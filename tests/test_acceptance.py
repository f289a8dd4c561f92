"""Acceptance suite: closed-loop recovery, calibration and invariants.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live). Closed-loop scenes come from the synthetic generator whose
forward chain matches the solver's, so recovery limits reflect solver
quality rather than model mismatch.
"""

import time

import numpy as np
import pytest

from pvghi import (
    SolverConfig,
    estimate,
    identify_omega,
    normalized_rmse,
    sun_positions,
    tukey_gate_matrix,
)
from pvghi.data import AlignedDataset, PlantSeries
from pvghi.proxy import disc_dni, forward_chain, incidence_modifier, proxy_matrix
from pvghi.solar import SolarPosition, extraterrestrial_normal
from pvghi.solver import ForwardModel, init_ghi, refine_ghi
from pvghi.synth import PlantSpec, SyntheticSpec, make_timestamps, synthesize
from conftest import clear_seed, mesh_vertex, true_omega
from test_proxy import (
    apply_temperature,
    chain_at,
    disc_oracle,
    efficiency,
    hay_davies_oracle,
    transpose,
)
from test_solver import gradient, objective


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def standard_fields(mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    east = mesh_vertex(mesh, 43.65, 94.39)
    west = mesh_vertex(mesh, 43.65, 265.61)
    flat = mesh_vertex(mesh, 0.0, 0.0)
    return {
        "p1": ((south, 8000.0),),
        "p2": ((east, 4000.0), (west, 4500.0)),
        "p3": ((flat, 10000.0),),
        "p4": ((south, 6600.0),),
    }


@pytest.fixture(scope="module")
def matched_run(site, mesh, params):
    """Criterion-1 scene: 4 plants, 7 days at 10 min, matched model."""
    fields = standard_fields(mesh)
    ts = make_timestamps("2015-06-01T00:00:00", 7, 600)
    spec = SyntheticSpec(plants=tuple(PlantSpec(k, v) for k, v in fields.items()))
    synth = synthesize(spec, site, ts, seed=11)
    sp = sun_positions(ts, site)
    omegas = tuple(
        true_omega(mesh, fields[p.plant_id], p.plant_id, params)
        for p in synth.dataset.plants
    )
    t0 = time.perf_counter()
    result = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
    elapsed = time.perf_counter() - t0
    return synth, sp, omegas, result, elapsed


def test_criterion_1_closed_loop_recovery(matched_run):
    synth, sp, _, result, elapsed = matched_run
    day = sp.daytime
    rmse = float(np.sqrt(np.mean((result.ghi[day] - synth.ghi_true[day]) ** 2)))
    ok = rmse < 5.0 and elapsed < 120.0
    report(
        1, ok,
        f"matched-model daytime RMSE {rmse:.2f} W/m^2 (< 5), "
        f"runtime {elapsed:.1f} s (< 120)",
    )


def test_criterion_2_grid_init_accuracy(site, mesh, params):
    fields = standard_fields(mesh)
    ts = make_timestamps("2015-05-01T00:00:00", 120, 300)
    spec = SyntheticSpec(plants=tuple(PlantSpec(k, v) for k, v in fields.items()))
    synth = synthesize(spec, site, ts, seed=23)
    sp = sun_positions(ts, site)
    omegas = tuple(
        true_omega(mesh, fields[p.plant_id], p.plant_id, params)
        for p in synth.dataset.plants
    )
    model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
    cfg = SolverConfig()
    trust = np.full((len(ts), len(omegas)), 1.0 / len(omegas))
    state = init_ghi(model, synth.ghi_clear, trust, cfg)

    bound = cfg.k_safety * synth.ghi_clear / cfg.n_grid
    informative = (
        sp.daytime & (np.rad2deg(sp.zenith) < 85.0) & (synth.ghi_true >= 20.0)
    )
    err = np.abs(state.ghi - synth.ghi_true)
    violations = int((err[informative] > bound[informative] + 1e-9).sum())
    n = int(informative.sum())
    ok = n >= 10_000 and violations == 0
    report(
        2, ok,
        f"init error <= GHI_max/30 on {n} informative daytime steps, "
        f"{violations} violations (0 required)",
    )


def test_criterion_3_orientation_recovery(site, mesh, params):
    south = mesh_vertex(mesh, 26.57, 180.0)
    east = mesh_vertex(mesh, 43.65, 94.39)
    west = mesh_vertex(mesh, 43.65, 265.61)
    ts = make_timestamps("2015-05-01T00:00:00", 45, 600)
    spec = SyntheticSpec(
        plants=(
            PlantSpec("single", ((south, 8000.0),)),
            PlantSpec("ew", ((east, 4000.0), (west, 4500.0))),
        )
    )
    synth = synthesize(spec, site, ts, seed=11)
    sp = sun_positions(ts, site)
    pr_clear = proxy_matrix(
        synth.ghi_clear,
        forward_chain(sp, ts, synth.dataset.mean_temperature(), mesh.orientations, params, site),
    ).values

    plant = synth.dataset.plants[0]
    mask = clear_seed(plant, sp)
    omega = identify_omega(plant.power[mask], pr_clear[mask])
    j = mesh.orientations.index(south)
    dominance = float(omega[j] / omega.sum())

    plant2 = synth.dataset.plants[1]
    mask2 = clear_seed(plant2, sp)
    omega2 = identify_omega(plant2.power[mask2], pr_clear[mask2])
    je, jw = mesh.orientations.index(east), mesh.orientations.index(west)
    p_east = omega2[je] * params.k2 * params.i_stc
    p_west = omega2[jw] * params.k2 * params.i_stc
    err_e = abs(p_east - 4000.0) / 4000.0
    err_w = abs(p_west - 4500.0) / 4500.0

    ok = dominance >= 0.95 and err_e < 0.10 and err_w < 0.10
    report(
        3, ok,
        f"vertex dominance {dominance:.3f} (>= 0.95), east-west field errors "
        f"{100 * err_e:.1f}% / {100 * err_w:.1f}% (< 10%)",
    )


def test_criterion_4_robustness_ablation(site, mesh, params):
    fields = standard_fields(mesh)
    corrupt_orientation = mesh_vertex(mesh, 26.57, 108.0)
    fields5 = dict(fields)
    fields5["p5"] = ((corrupt_orientation, 7000.0),)
    ts = make_timestamps("2015-06-01T00:00:00", 7, 600)

    gated_deg, ungated_deg, ordering = [], [], []
    for seed in range(5):
        spec = SyntheticSpec(plants=tuple(PlantSpec(k, v) for k, v in fields5.items()))
        synth = synthesize(spec, site, ts, seed=seed)
        sp = sun_positions(ts, site)
        day = sp.daytime
        k_n = synth.ghi_true[synth.ghi_true > 0].mean()

        rng = np.random.default_rng(1000 + seed)
        bad = rng.random(len(ts)) < 0.10
        p5 = synth.dataset.plants[4]
        corrupted = PlantSeries(
            p5.plant_id, p5.timestamps, np.where(bad, 0.5 * p5.power, p5.power),
            p5.temperature,
        )
        ds4 = AlignedDataset(ts, synth.dataset.plants[:4], site)
        ds5 = AlignedDataset(ts, synth.dataset.plants[:4] + (corrupted,), site)
        om4 = tuple(
            true_omega(mesh, fields5[p.plant_id], p.plant_id, params) for p in ds4.plants
        )
        om5 = tuple(
            true_omega(mesh, fields5[p.plant_id], p.plant_id, params) for p in ds5.plants
        )

        def nrmse(ds, om, enabled):
            cfg = SolverConfig(use_trust=enabled, use_gate=enabled)
            r = estimate(ds, om, mesh.orientations, params, cfg)
            return np.sqrt(np.mean((r.ghi[day] - synth.ghi_true[day]) ** 2)) / k_n

        base = nrmse(ds4, om4, True)
        on = nrmse(ds5, om5, True)
        off = nrmse(ds5, om5, False)
        gated_deg.append(on / base - 1.0)
        ungated_deg.append(off / base - 1.0)
        ordering.append(on < off)

    mean_on = float(np.mean(gated_deg))
    mean_off = float(np.mean(ungated_deg))
    ok = all(ordering) and mean_on < 0.20 and mean_off > 0.50
    report(
        4, ok,
        f"corrupted-plant degradation: gated {100 * mean_on:+.1f}% (< +20%), "
        f"ungated {100 * mean_off:+.1f}% (> +50%), ordering 5/5 seeds",
    )


def test_criterion_5_gradient_correctness(site, mesh, params):
    fields = standard_fields(mesh)
    ts = make_timestamps("2015-06-01T00:00:00", 7, 600)
    spec = SyntheticSpec(plants=tuple(PlantSpec(k, v) for k, v in fields.items()))
    synth = synthesize(spec, site, ts, seed=31)
    sp = sun_positions(ts, site)
    omegas = tuple(
        true_omega(mesh, fields[p.plant_id], p.plant_id, params)
        for p in synth.dataset.plants
    )
    model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
    cfg = SolverConfig(delta_ghi=0.25)
    T = len(ts)
    trust = np.full((T, 4), 0.25)
    gate = np.ones((T, 4), dtype=bool)

    rng = np.random.default_rng(77)
    checked, worst = 0, 0.0
    for _ in range(5):
        ghi = rng.uniform(0.0, 1.0, T) * 1.3 * synth.ghi_clear
        grad = gradient(model, ghi, trust, gate, cfg)
        delta = cfg.delta_ghi
        h_mid = objective(model.normalized_errors(ghi), trust, gate)
        h_up = objective(
            model.normalized_errors(ghi + delta), trust, gate
        )
        h_dn = objective(
            model.normalized_errors(np.maximum(ghi - delta, 0)), trust, gate
        )
        central = (h_up - h_dn) / (2 * delta)
        # the objective is only piecewise smooth (absolute value, power
        # cutoff, piecewise direct-fraction polynomials); a derivative
        # check is meaningful where both one-sided slopes agree
        s_up = (h_up - h_mid) / delta
        s_dn = (h_mid - h_dn) / delta
        slope_scale = np.maximum(np.maximum(np.abs(s_up), np.abs(s_dn)), 1e-12)
        locally_linear = np.abs(s_up - s_dn) <= 0.05 * slope_scale
        usable = (
            sp.daytime
            & (np.abs(grad) > 1e-4)
            & locally_linear
            & (ghi > 30)
        )
        rel = np.abs(grad[usable] - central[usable]) / np.abs(central[usable])
        checked += int(usable.sum())
        if rel.size:
            worst = max(worst, float(rel.max()))
    ok = checked >= 1000 and worst < 0.05
    report(
        5, ok,
        f"gradient vs central differences: {checked} states, "
        f"worst deviation {100 * worst:.2f}% (< 5%)",
    )


def test_criterion_6_tukey_calibration():
    rng = np.random.default_rng(123)
    flagged = (~tukey_gate_matrix(rng.standard_normal(1_000_000)[None, :], k_q=1.5)).mean()
    ok = 0.005 <= flagged <= 0.02
    report(
        6, ok,
        f"k_q=1.5 fences flag {100 * flagged:.2f}% of 1e6 normal samples "
        f"(within [0.5%, 2%])",
    )


def test_criterion_7_invariant_suite(matched_run, site, mesh, params):
    synth, sp, omegas, result, _ = matched_run
    checks = {}

    trust_rows = result.trust.sum(axis=1)
    checks["trust rows sum to 1"] = bool(np.abs(trust_rows - 1.0).max() < 1e-9)

    cfg = SolverConfig()
    within = np.all(result.ghi >= 0) and np.all(
        result.ghi <= cfg.k_safety * result.ghi_clear + 1e-9
    )
    checks["GHI bounds respected"] = bool(within and result.state.bound_violation == 0.0)

    monotone = all(
        np.all(np.diff(np.array(h)) <= 1e-9 * max(h[0], 1.0))
        for h in result.state.objective_history
    )
    checks["accepted objective non-increasing"] = bool(monotone)

    day = sp.daytime
    rep = normalized_rmse(result.ghi, synth.ghi_true)
    checks["bias^2+std^2=RMSE^2"] = bool(rep.identity_residual < 1e-9)

    # split/join equality on uniform trust and open gates
    def solve(dataset, sp_range, clear):
        model = ForwardModel(dataset, omegas, mesh.orientations, params, sp_range)
        n = len(clear)
        trust = np.full((n, dataset.n_plants), 1.0 / dataset.n_plants)
        gate = np.ones((n, dataset.n_plants), dtype=bool)
        state = init_ghi(model, clear, trust, cfg)
        return refine_ghi(model, state, trust, gate, cfg).ghi

    T = synth.dataset.n_steps
    half = T // 2

    def sliced(ds, sl):
        plants = tuple(
            PlantSeries(p.plant_id, p.timestamps[sl], p.power[sl], p.temperature[sl])
            for p in ds.plants
        )
        return AlignedDataset(ds.timestamps[sl], plants, ds.site)

    full = solve(synth.dataset, sp, synth.ghi_clear)
    lo = solve(
        sliced(synth.dataset, slice(None, half)),
        SolarPosition(sp.azimuth[:half], sp.zenith[:half]),
        synth.ghi_clear[:half],
    )
    hi = solve(
        sliced(synth.dataset, slice(half, None)),
        SolarPosition(sp.azimuth[half:], sp.zenith[half:]),
        synth.ghi_clear[half:],
    )
    checks["time separability"] = bool(np.array_equal(full, np.concatenate([lo, hi])))

    ok = all(checks.values())
    detail = "; ".join(f"{name}: {'ok' if val else 'VIOLATED'}" for name, val in checks.items())
    report(7, ok, detail)


def test_criterion_8_throughput(matched_run):
    _, _, _, result, _ = matched_run
    sps = result.seconds_per_sample
    ok = sps <= 0.1
    report(8, ok, f"single-thread estimate at {sps * 1e3:.2f} ms/sample (<= 100 ms)")


def test_criterion_9_forward_chain_oracles(params):
    checks = {}

    sp45 = SolarPosition(azimuth=np.array([np.pi]), zenith=np.array([np.deg2rad(45.0)]))
    got = float(disc_dni(np.array([600.0]), chain_at(sp45, np.array([180])))[0])
    checks["DISC"] = abs(got - disc_oracle(600.0, 45.0, 180)) < 1.0

    from pvghi import Orientation

    sp30 = SolarPosition(azimuth=np.array([np.pi]), zenith=np.array([np.deg2rad(30.0)]))
    plane = Orientation(tilt=np.deg2rad(30.0), azimuth=np.pi)
    comp = transpose(800.0, 200.0, 750.0, sp30, plane, extraterrestrial_normal(np.array([172])))
    want = hay_davies_oracle(800, 200, 750, 30, 180, 30, 180, 172)
    checks["Hay-Davies"] = (
        abs(float(comp.i_b[0]) - want[0]) < 1.0
        and abs(float(comp.i_d[0]) - want[1]) < 1.0
        and abs(float(comp.i_g[0]) - want[2]) < 1.0
    )

    checks["IAM(0)=1"] = float(incidence_modifier(np.array([0.0]), params)[0]) == 1.0
    checks["eta(I_STC)=0.942"] = float(efficiency(np.array([1000.0]), params)[0]) == 0.942
    cell = float(apply_temperature(np.array([1000.0]), np.array([25.0]), params)[0])
    checks["cell-temperature arithmetic"] = abs(cell - 864.98) < 1e-9

    ok = all(checks.values())
    detail = "; ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in checks.items())
    report(9, ok, detail)
