"""Grid initialization, descent refinement and the full estimation loop."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pvghi import InputError, OmegaCoefficients, SolverConfig, estimate, sun_positions
from pvghi.data import AlignedDataset, PlantSeries
from pvghi import proxy, solver
from pvghi.reconcile import tukey_gate_matrix
from pvghi.solver import (
    GATE_ROUNDS,
    GRAD_FLOOR,
    LAMBDA_MIN,
    ForwardModel,
    init_ghi,
    refine_ghi,
)
from pvghi.synth import CloudModel, PlantSpec, SyntheticSpec, make_timestamps, synthesize
from conftest import mesh_vertex, true_omega


def objective(errors, trust, gate):
    """Per-timestep objective |weighted mean normalized error| at the solver's weights."""
    return np.abs(solver._weighted_sum(solver._objective_weights(errors, trust, gate), errors))


def gradient(model, ghi, trust, gate, cfg):
    """The solver's forward-difference gradient of ``objective`` at ``ghi``."""
    errors = model.normalized_errors(ghi)
    w = solver._objective_weights(errors, trust, gate)
    return solver._gradient(model, ghi, w, cfg, errors)


def logit(p):
    return float(np.log(p / (1 - p)))


def build_scene(site, mesh, params, days=3, step=600, seed=0, cloud=None, plants=None):
    south = mesh_vertex(mesh, 26.57, 180.0)
    east = mesh_vertex(mesh, 43.65, 94.39)
    west = mesh_vertex(mesh, 43.65, 265.61)
    flat = mesh_vertex(mesh, 0.0, 0.0)
    fields = plants or {
        "p1": ((south, 8000.0),),
        "p2": ((east, 4000.0), (west, 4500.0)),
        "p3": ((flat, 10000.0),),
        "p4": ((south, 6600.0),),
    }
    ts = make_timestamps("2015-06-01T00:00:00", days, step)
    spec = SyntheticSpec(
        plants=tuple(PlantSpec(k, v) for k, v in fields.items()),
        cloud=cloud or CloudModel(),
    )
    synth = synthesize(spec, site, ts, seed=seed)
    sp = sun_positions(ts, site)
    omegas = tuple(
        true_omega(mesh, fields[p.plant_id], p.plant_id, params)
        for p in synth.dataset.plants
    )
    return synth, sp, omegas


class TestInit:
    def test_on_grid_truth_exact(self, site, mesh, params):
        # constant attenuation putting the truth exactly on grid node 17
        frac = (17 / 30) * 1.3
        cloud = CloudModel(sigma=0.0, mean_logit=logit((frac + 0.3) / 1.6))
        synth, sp, omegas = build_scene(site, mesh, params, cloud=cloud)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        cfg = SolverConfig()
        state = init_ghi(model, synth.ghi_clear, np.full((len(sp.zenith), 4), 0.25), cfg)
        informative = sp.daytime & (synth.dataset.power_matrix() > 0).any(axis=1)
        err = np.abs(state.ghi - synth.ghi_true)
        assert err[informative].max() < 1e-6 * synth.ghi_true.max()
        assert err[sp.daytime].max() < 15.0  # dead zone below the power cutoff

    def test_off_grid_within_one_step(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=7, seed=2)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        cfg = SolverConfig()
        trust = np.full((len(sp.zenith), 4), 0.25)
        state = init_ghi(model, synth.ghi_clear, trust, cfg)
        bound = cfg.k_safety * synth.ghi_clear / cfg.n_grid
        informative = (
            sp.daytime
            & (np.rad2deg(sp.zenith) < 85.0)
            & (synth.ghi_true >= 20.0)
        )
        err = np.abs(state.ghi - synth.ghi_true)
        assert informative.sum() > 200
        assert np.all(err[informative] <= bound[informative] + 1e-9)

    def test_night_zero(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        state = init_ghi(
            model, synth.ghi_clear, np.full((len(sp.zenith), 4), 0.25), SolverConfig()
        )
        assert np.all(state.ghi[~sp.daytime] == 0.0)


class TestGradient:
    def test_matches_central_difference(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=4)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        cfg = SolverConfig(delta_ghi=0.25)
        T = len(sp.zenith)
        trust = np.full((T, 4), 0.25)
        gate = np.ones((T, 4), dtype=bool)

        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(4):
            ghi = rng.uniform(0.0, 1.0, T) * 1.3 * synth.ghi_clear
            grad = gradient(model, ghi, trust, gate, cfg)
            delta = cfg.delta_ghi
            h_mid = objective(model.normalized_errors(ghi), trust, gate)
            h_up = objective(
                model.normalized_errors(ghi + delta), trust, gate
            )
            h_dn = objective(
                model.normalized_errors(np.maximum(ghi - delta, 0)),
                trust, gate,
            )
            central = (h_up - h_dn) / (2 * delta)
            # derivative checks are only meaningful where the piecewise
            # smooth objective is locally linear at the probe scale
            s_up = (h_up - h_mid) / delta
            s_dn = (h_mid - h_dn) / delta
            scale = np.maximum(np.maximum(np.abs(s_up), np.abs(s_dn)), 1e-12)
            smooth = (
                sp.daytime
                & (np.abs(grad) > 1e-4)
                & (np.abs(s_up - s_dn) <= 0.05 * scale)
                & (ghi > 30)
            )
            rel = np.abs(grad[smooth] - central[smooth]) / np.abs(central[smooth])
            checked += smooth.sum()
            assert rel.max() < 0.05
        assert checked > 500

    def test_gated_timestep_zero_gradient(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, seed=5)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        cfg = SolverConfig()
        T = len(sp.zenith)
        trust = np.full((T, 4), 0.25)
        gate = np.ones((T, 4), dtype=bool)
        noon = int(np.argmin(sp.zenith))
        gate[noon] = False
        ghi = 0.8 * synth.ghi_clear
        grad = gradient(model, ghi, trust, gate, cfg)
        assert grad[noon] == 0.0

    def test_zero_at_exact_solution(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, seed=6)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        cfg = SolverConfig()
        T = len(sp.zenith)
        trust = np.full((T, 4), 0.25)
        gate = np.ones((T, 4), dtype=bool)
        grad = gradient(model, synth.ghi_true, trust, gate, cfg)
        day = sp.daytime & (synth.ghi_true > 30)
        # at the generator's own GHI the objective sits at its minimum
        assert np.abs(grad[day]).max() < 1e-3


class TestRefine:
    def test_closed_loop_recovery(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=7)
        res = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
        day = sp.daytime
        rmse = np.sqrt(np.mean((res.ghi[day] - synth.ghi_true[day]) ** 2))
        assert rmse < 5.0

    def test_objective_history_non_increasing(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=8)
        res = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
        assert len(res.state.objective_history) >= 1
        for round_hist in res.state.objective_history:
            hist = np.array(round_hist)
            assert len(hist) >= 2
            assert np.all(np.diff(hist) <= 1e-9 * max(hist[0], 1.0))

    def test_lambda_decay_structure(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=2, seed=9)
        cfg = SolverConfig()
        res = estimate(synth.dataset, omegas, mesh.orientations, params, cfg)
        lam = res.state.lambdas
        ratio = np.log(lam / cfg.lambda0) / np.log(cfg.k_decay)
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-9)
        assert np.all(ratio >= 0)

    def test_bounds_respected(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=10)
        cfg = SolverConfig()
        res = estimate(synth.dataset, omegas, mesh.orientations, params, cfg)
        assert res.state.bound_violation == 0.0
        assert np.all(res.ghi >= 0.0)
        assert np.all(res.ghi <= cfg.k_safety * res.ghi_clear + 1e-9)

    def test_all_gated_timestep_untouched(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=2, seed=11)
        model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
        cfg = SolverConfig()
        T = len(sp.zenith)
        trust = np.full((T, 4), 0.25)
        state = init_ghi(model, synth.ghi_clear, trust, cfg)
        noon = int(np.argmin(sp.zenith))
        before = state.ghi[noon]
        gate = np.ones((T, 4), dtype=bool)
        gate[noon] = False
        state = refine_ghi(model, state, trust, gate, cfg)
        assert state.ghi[noon] == before


class TestReductions:
    def test_single_plant_ignores_trust_and_gate_flags(self, site, mesh, params):
        south = mesh_vertex(mesh, 26.57, 180.0)
        synth, sp, omegas = build_scene(
            site, mesh, params, days=3, seed=12, plants={"only": ((south, 8000.0),)}
        )
        on = estimate(
            synth.dataset, omegas, mesh.orientations, params,
            SolverConfig(use_trust=True, use_gate=True),
        )
        off = estimate(
            synth.dataset, omegas, mesh.orientations, params,
            SolverConfig(use_trust=False, use_gate=False),
        )
        assert np.array_equal(on.ghi, off.ghi)
        np.testing.assert_allclose(on.trust, 1.0)
        assert on.gate.all()

    def test_two_plants_keep_all_gates(self, site, mesh, params):
        south = mesh_vertex(mesh, 26.57, 180.0)
        flat = mesh_vertex(mesh, 0.0, 0.0)
        synth, sp, omegas = build_scene(
            site, mesh, params, days=2, seed=13,
            plants={"a": ((south, 8000.0),), "b": ((flat, 5000.0),)},
        )
        res = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
        assert res.gate.all()  # quartiles undefined below three plants


class TestSeparabilityAndDeterminism:
    def slice_dataset(self, dataset, sl):
        plants = tuple(
            PlantSeries(p.plant_id, p.timestamps[sl], p.power[sl], p.temperature[sl])
            for p in dataset.plants
        )
        return AlignedDataset(dataset.timestamps[sl], plants, dataset.site)

    def test_split_join_equality(self, site, mesh, params):
        from pvghi.solar import SolarPosition

        synth, sp, omegas = build_scene(site, mesh, params, days=2, seed=14)
        cfg = SolverConfig()
        T = len(sp.zenith)

        def solve(dataset, sp_range, clear):
            model = ForwardModel(dataset, omegas, mesh.orientations, params, sp_range)
            n = len(clear)
            trust = np.full((n, dataset.n_plants), 1.0 / dataset.n_plants)
            gate = np.ones((n, dataset.n_plants), dtype=bool)
            state = init_ghi(model, clear, trust, cfg)
            return refine_ghi(model, state, trust, gate, cfg).ghi

        full = solve(synth.dataset, sp, synth.ghi_clear)
        half = T // 2
        lo = solve(
            self.slice_dataset(synth.dataset, slice(None, half)),
            SolarPosition(sp.azimuth[:half], sp.zenith[:half]),
            synth.ghi_clear[:half],
        )
        hi = solve(
            self.slice_dataset(synth.dataset, slice(half, None)),
            SolarPosition(sp.azimuth[half:], sp.zenith[half:]),
            synth.ghi_clear[half:],
        )
        assert np.array_equal(full, np.concatenate([lo, hi]))

    def test_rerun_identical(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=2, seed=16)
        a = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
        b = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
        assert np.array_equal(a.ghi, b.ghi)


class TestMissingData:
    def test_missing_plant_samples_excluded(self, site, mesh, params):
        synth, sp, omegas = build_scene(site, mesh, params, days=2, seed=17)
        plants = list(synth.dataset.plants)
        power = plants[0].power.copy()
        noon = int(np.argmin(sp.zenith))
        power[noon] = np.nan
        plants[0] = PlantSeries(
            plants[0].plant_id, plants[0].timestamps, power, plants[0].temperature
        )
        ds = AlignedDataset(synth.dataset.timestamps, tuple(plants), site)
        res = estimate(ds, omegas, mesh.orientations, params, SolverConfig())
        assert res.n_plants_used[noon] == 3
        day = sp.daytime
        rmse = np.sqrt(np.mean((res.ghi[day] - synth.ghi_true[day]) ** 2))
        assert rmse < 5.0


def test_forward_model_names_every_unusable_plant(site, mesh, params):
    synth, sp, (p1, p2, p3, p4) = build_scene(site, mesh, params, days=1)
    zero = OmegaCoefficients("p2", np.zeros_like(p2.omega), p2.estimated_pnom)
    unrated = OmegaCoefficients("p4", p4.omega, float("nan"))
    with pytest.raises(InputError, match="p2, p4"):
        ForwardModel(synth.dataset, (p1, zero, p3, unrated), mesh.orientations, params, sp)


@pytest.mark.parametrize("rating", [0.0, -1.0, float("inf")])
def test_forward_model_rejects_bad_rating(site, mesh, params, rating):
    synth, sp, omegas = build_scene(site, mesh, params, days=1)
    bad = OmegaCoefficients("p3", omegas[2].omega, rating)
    omegas = (*omegas[:2], bad, omegas[3])
    with pytest.raises(InputError, match="p3"):
        ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)


THREE_PLANTS = {
    "p1": ((26.57, 180.0, 8000.0),),
    "p2": ((43.65, 94.39, 4000.0), (43.65, 265.61, 4500.0)),
    "p3": ((0.0, 0.0, 10000.0),),
}


def three_plant_scene(site, mesh, params, days, seed):
    fields = {
        pid: tuple((mesh_vertex(mesh, tilt, az), pnom) for tilt, az, pnom in f)
        for pid, f in THREE_PLANTS.items()
    }
    return build_scene(site, mesh, params, days=days, seed=seed, plants=fields)


def test_restricted_model_matches_full_rows(site, mesh, params):
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=2, seed=19)
    model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
    ghi = 0.8 * synth.ghi_clear
    pr = model.proxies(ghi)
    errors = model.normalized_errors(ghi)
    rng = np.random.default_rng(19)
    t_count = len(ghi)
    for m in (1, 2, 3, 5, 9, 17, t_count // 2 + 1):
        idx = np.sort(rng.choice(t_count, m, replace=False))
        sub = model.rows(idx)
        np.testing.assert_array_equal(sub.proxies(ghi[idx]), pr[idx])
        np.testing.assert_array_equal(sub.normalized_errors(ghi[idx]), errors[idx])
        half = sub.rows(np.arange(0, m, 2))
        np.testing.assert_array_equal(half.normalized_errors(ghi[idx[::2]]), errors[idx[::2]])


def test_forward_model_runs_only_on_rows_that_need_it(site, mesh, params, monkeypatch):
    """Grid candidates cover the daytime steps, descent the active ones.

    Full-length evaluations remain for the shadow maps' clear-sky power
    and the grid winner. A step whose
    gradient is flat costs one gradient evaluation without an iteration,
    at most once per round.
    """
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=3, seed=20)
    rows_seen = []
    chain = solver.proxy_matrix

    def counting(ghi, *args):
        rows_seen.append(len(ghi))
        return chain(ghi, *args)

    monkeypatch.setattr(solver, "proxy_matrix", counting)
    cfg = SolverConfig()
    res = estimate(synth.dataset, omegas, mesh.orientations, params, cfg)
    t_count = len(res.ghi)
    day = int((sp.daytime & (res.ghi_clear > 0)).sum())
    assert 0 < day < t_count
    assert rows_seen[: cfg.n_grid + 2] == [t_count] + [day] * cfg.n_grid + [t_count]
    fixed = (2 + GATE_ROUNDS) * t_count
    flat = GATE_ROUNDS * day
    bound = cfg.n_grid * day + 2 * int(res.state.iterations.sum()) + fixed + flat
    assert sum(rows_seen) <= bound
    loops = sum(len(h) - 1 for h in res.state.objective_history)
    full_length = (2 + cfg.n_grid + GATE_ROUNDS + 2 * loops) * t_count
    assert sum(rows_seen) < full_length / 2


def test_refine_evaluates_the_chain_on_active_rows_only(site, mesh, params, monkeypatch):
    """A refine round starts from the state's errors, not from a full-length evaluation."""
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=3, seed=20)
    model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
    t_count = len(sp.zenith)
    trust = np.full((t_count, 3), 1 / 3)
    gate = np.ones((t_count, 3), dtype=bool)
    cfg = SolverConfig()
    state = init_ghi(model, synth.ghi_clear, trust, cfg)
    rows_seen = []
    chain = solver.proxy_matrix

    def counting(ghi, *args):
        rows_seen.append(len(ghi))
        return chain(ghi, *args)

    monkeypatch.setattr(solver, "proxy_matrix", counting)
    refine_ghi(model, state, trust, gate, cfg)
    day = int((sp.daytime & (synth.ghi_clear > 0)).sum())
    assert rows_seen
    assert max(rows_seen) <= day < t_count


def test_estimate_computes_each_plane_once(site, mesh, params, monkeypatch):
    """The GHI-independent geometry is built once per used orientation.

    Every forward evaluation of the solve reuses it, so the angle of
    incidence runs once per plane and not once per plane and evaluation.
    """
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=3, seed=20)
    planes = []
    aoi = proxy.angle_of_incidence

    def counting(sp_, orientation):
        planes.append(orientation)
        return aoi(sp_, orientation)

    monkeypatch.setattr(proxy, "angle_of_incidence", counting)
    estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
    used = [o for j, o in enumerate(mesh.orientations) if any(oc.omega[j] for oc in omegas)]
    assert len(used) == 4
    assert planes == used


@pytest.fixture(scope="module")
def day_scene(site, mesh, params):
    return build_scene(site, mesh, params, days=1, step=1800)


@settings(max_examples=40)
@given(st.data())
def test_estimate_stays_within_bounds(day_scene, mesh, params, data):
    """0 <= GHI <= k_safety x clear-sky, whatever the plants report."""
    synth, _, omegas = day_scene
    ds = synth.dataset
    scale = data.draw(arrays(
        np.float64, (ds.n_steps, ds.n_plants),
        elements=st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, np.nan, 50.0])),
    ))
    plants = tuple(replace(p, power=p.power * scale[:, i]) for i, p in enumerate(ds.plants))
    k_safety = data.draw(st.sampled_from([1.0, 1.3, 2.0]))
    res = estimate(
        AlignedDataset(ds.timestamps, plants, ds.site), omegas, mesh.orientations, params,
        SolverConfig(k_safety=k_safety), ghi_clear=synth.ghi_clear,
    )
    assert (res.ghi >= 0.0).all()
    assert (res.ghi <= k_safety * synth.ghi_clear).all()


def with_missing(dataset, missing):
    """The dataset with power set missing where ``missing`` (T x plants) is true."""
    plants = tuple(
        replace(p, power=np.where(missing[:, i], np.nan, p.power))
        for i, p in enumerate(dataset.plants)
    )
    return AlignedDataset(dataset.timestamps, plants, dataset.site)


def reference_refine(model, state, trust, gate, cfg):
    """The descent with every active timestep's gradient taken in every iteration."""
    ghi = state.ghi.copy()
    lam = np.full_like(ghi, cfg.lambda0)
    day = model.chain.daytime & (state.ghi_max > 0)
    errors = model.normalized_errors(ghi)
    h = objective(errors, trust, gate)
    has_data = (np.isfinite(errors) & gate & (trust > 0)).any(axis=1)
    active = day & has_data
    round_history = [float(h[active].sum())]
    state.err_history.append(float(np.sqrt(np.nansum(errors**2))))
    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        grad = gradient(model.rows(rows), ghi[rows], trust[rows], gate[rows], cfg)
        direction = np.where(np.abs(grad) <= GRAD_FLOOR, 0.0, np.sign(grad))
        active[rows[direction == 0.0]] = False
        rows, direction = rows[direction != 0.0], direction[direction != 0.0]
        sub = model.rows(rows)
        cand = np.clip(ghi[rows] - lam[rows] * direction, 0.0, state.ghi_max[rows])
        err_cand = sub.normalized_errors(cand)
        h_cand = objective(err_cand, trust[rows], gate[rows])
        improved = h_cand < h[rows]
        kept = rows[improved]
        ghi[kept] = cand[improved]
        errors[kept] = err_cand[improved]
        h[kept] = h_cand[improved]
        lam[rows[~improved]] *= cfg.k_decay
        state.iterations[rows] += 1
        active[rows[lam[rows] < LAMBDA_MIN]] = False
        state.bound_violation = max(
            state.bound_violation,
            float(np.max(ghi - state.ghi_max, initial=0.0)),
            float(np.max(-ghi, initial=0.0)),
        )
        state.err_history.append(float(np.sqrt(np.nansum(errors**2))))
        round_history.append(float(h[day & has_data].sum()))
    state.objective_history.append(round_history)
    state.ghi, state.errors, state.lambdas = ghi, errors, lam
    state.converged = state.converged | (day & has_data & ~active)
    return state


def test_descent_matches_the_every_row_gradient_reference(site, mesh, params):
    """Retaking the gradient only where GHI moved changes no bit of the state.

    Four plants, a tenth of their power samples missing, uneven trust and
    the Tukey gate refreshed between rounds as ``estimate`` does.
    """
    synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=21)
    rng = np.random.default_rng(21)
    ds = synth.dataset
    missing = rng.random((ds.n_steps, ds.n_plants)) < 0.1
    model = ForwardModel(with_missing(ds, missing), omegas, mesh.orientations, params, sp)
    trust = rng.uniform(0.1, 1.0, missing.shape)
    cfg = SolverConfig()
    state = init_ghi(model, synth.ghi_clear, trust, cfg)
    ref = copy.deepcopy(state)
    for _ in range(GATE_ROUNDS):
        gate = tukey_gate_matrix(state.errors, k_q=cfg.k_q)
        np.testing.assert_array_equal(gate, tukey_gate_matrix(ref.errors, k_q=cfg.k_q))
        state = refine_ghi(model, state, trust, gate, cfg)
        ref = reference_refine(model, ref, trust, gate, cfg)
    assert not gate[np.isfinite(state.errors)].all()
    assert state.iterations.sum() > 1000
    for name in ("ghi", "errors", "lambdas", "iterations", "converged"):
        np.testing.assert_array_equal(getattr(state, name), getattr(ref, name), err_msg=name)
    assert state.err_history == ref.err_history
    assert state.objective_history == ref.objective_history
    assert state.bound_violation == ref.bound_violation


@pytest.fixture(scope="module")
def holed_scene(site, mesh, params):
    """Two days of four plants at 30 min, a tenth of the power samples missing."""
    synth, sp, omegas = build_scene(site, mesh, params, days=2, step=1800, seed=22)
    ds = synth.dataset
    missing = np.random.default_rng(22).random((ds.n_steps, ds.n_plants)) < 0.1
    model = ForwardModel(with_missing(ds, missing), omegas, mesh.orientations, params, sp)
    return model, synth.ghi_clear


@settings(max_examples=30)
@given(st.data())
def test_solve_is_separable_in_time(holed_scene, data):
    """Solving any subset of timesteps gives the full solve's values there."""
    model, ghi_clear = holed_scene
    t_count, n_pv = model.power.shape
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, t_count - 1), min_size=1))))
    gate = data.draw(arrays(np.bool_, (t_count, n_pv)))
    trust = np.full((t_count, n_pv), 1.0 / n_pv)
    cfg = SolverConfig()

    def solve(m, clear, trust, gate):
        return refine_ghi(m, init_ghi(m, clear, trust, cfg), trust, gate, cfg)

    full = solve(model, ghi_clear, trust, gate)
    part = solve(model.rows(idx), ghi_clear[idx], trust[idx], gate[idx])
    np.testing.assert_array_equal(part.ghi, full.ghi[idx])
    np.testing.assert_array_equal(part.iterations, full.iterations[idx])
    np.testing.assert_array_equal(part.converged, full.converged[idx])


@settings(max_examples=30)
@given(st.data())
def test_missing_power_is_never_imputed(day_scene, mesh, params, data):
    """A missing sample has no error and is never counted as a plant used."""
    synth, _, omegas = day_scene
    ds = synth.dataset
    missing = data.draw(arrays(np.bool_, (ds.n_steps, ds.n_plants)))
    res = estimate(
        with_missing(ds, missing), omegas, mesh.orientations, params, SolverConfig(),
        ghi_clear=synth.ghi_clear,
    )
    np.testing.assert_array_equal(np.isnan(res.state.errors), missing)
    np.testing.assert_array_equal(res.n_plants_used, (~missing & res.gate).sum(axis=1))
