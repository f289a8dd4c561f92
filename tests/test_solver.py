"""Grid initialization, descent refinement and the full estimation loop."""

import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pvghi import (
    InputError,
    OmegaCoefficients,
    SolverConfig,
    clearsky_ghi,
    estimate,
    sun_positions,
)
from pvghi.data import AlignedDataset, PlantSeries
from pvghi import proxy, reconcile, solver
from pvghi.reconcile import sun_bin_keys, tukey_gate_matrix
from pvghi.solar import SolarPosition
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
from test_reconcile import (
    reference_build_shadow_map,
    reference_smooth_threshold_map,
    reference_trust_weights,
)


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


def test_coefficient_sets_are_matched_by_plant_id(site, mesh, params):
    """Each plant takes the set of its id, in whatever order the sets come;
    sets of other plants are ignored. A plant without a set, or an id
    given twice, is an InputError naming it."""
    synth, sp, omegas = build_scene(site, mesh, params, days=1)
    ds = synth.dataset
    base = estimate(ds, omegas, mesh.orientations, params)
    elsewhere = OmegaCoefficients("elsewhere", omegas[0].omega, 1000.0)
    for given in (
        (omegas[1], omegas[0], *omegas[2:]),
        omegas[::-1],
        (omegas[2], elsewhere, omegas[3], omegas[0], omegas[1]),
    ):
        res = estimate(ds, given, mesh.orientations, params)
        for name in ("ghi", "trust", "gate", "n_plants_used"):
            np.testing.assert_array_equal(getattr(res, name), getattr(base, name), err_msg=name)
        for name in ("errors", "lambdas", "iterations", "converged"):
            np.testing.assert_array_equal(
                getattr(res.state, name), getattr(base.state, name), err_msg=name
            )
        assert res.state.err_history == base.state.err_history
        assert res.state.objective_history == base.state.objective_history
    with pytest.raises(InputError, match=re.escape("no coefficients for plant(s) p2, p4")):
        estimate(ds, (omegas[0], omegas[2]), mesh.orientations, params)
    with pytest.raises(InputError, match=re.escape("coefficients of plant(s) p3 given twice")):
        estimate(ds, (*omegas, omegas[2]), mesh.orientations, params)
    with pytest.raises(InputError, match=re.escape("plant(s) elsewhere, p1 given twice")):
        estimate(ds, (elsewhere, *omegas, elsewhere, omegas[0]), mesh.orientations, params)


def test_estimate_without_a_clear_sky_uses_the_site_model(site, mesh, params):
    """None is ``clearsky_ghi`` at the dataset's site, Linke turbidity included."""
    synth, sp, omegas = build_scene(site, mesh, params, days=1)
    ds = synth.dataset
    given = estimate(
        ds, omegas, mesh.orientations, params, ghi_clear=clearsky_ghi(sp, ds.timestamps, site)
    )
    default = estimate(ds, omegas, mesh.orientations, params, ghi_clear=None)
    for name in ("ghi", "ghi_clear", "converged", "trust", "gate", "solved"):
        np.testing.assert_array_equal(getattr(default, name), getattr(given, name))
    hazy = replace(ds, site=replace(site, linke_turbidity=4.0))
    other = estimate(hazy, omegas, mesh.orientations, params)
    assert not np.array_equal(other.ghi_clear, default.ghi_clear)
    assert not np.array_equal(other.ghi, default.ghi)


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_estimate_rejects_a_bad_daytime_clear_sky(site, mesh, params, bad):
    """A daytime clear-sky value that is not finite and >= 0 is an InputError.

    Unchecked, a daytime step with such a value gets GHI 0, marked
    converged. Night values are free and change no estimate.
    """
    synth, sp, omegas = build_scene(site, mesh, params, days=1)
    ds = synth.dataset
    clear = synth.ghi_clear.copy()
    clear[int(np.argmin(sp.zenith))] = bad
    with pytest.raises(InputError, match="1 daytime value"):
        estimate(ds, omegas, mesh.orientations, params, ghi_clear=clear)
    with pytest.raises(InputError, match="values for"):
        estimate(ds, omegas, mesh.orientations, params, ghi_clear=synth.ghi_clear[1:])
    night = synth.ghi_clear.copy()
    night[~sp.daytime] = bad
    np.testing.assert_array_equal(
        estimate(ds, omegas, mesh.orientations, params, ghi_clear=night).ghi,
        estimate(ds, omegas, mesh.orientations, params, ghi_clear=synth.ghi_clear).ghi,
    )


@pytest.mark.parametrize("night", [-1.0, np.nan], ids=["negative", "nan"])
def test_a_free_night_clear_sky_bounds_nothing(site, mesh, params, night):
    """The bound violation is taken over the rows the solver solves.

    A night clear-sky value is free: with -1 at night the night bound
    is -1.3 W/m^2, which GHI 0 does not leave the solver's rows for.
    """
    synth, sp, omegas = build_scene(site, mesh, params, days=1)
    clear = np.where(sp.daytime, synth.ghi_clear, night)
    res = estimate(synth.dataset, omegas, mesh.orientations, params, ghi_clear=clear)
    assert res.state.bound_violation == 0.0
    np.testing.assert_array_equal(res.solved, sp.daytime & (synth.ghi_clear > 0))


@pytest.mark.parametrize("n_plants", range(1, 13))
def test_weighted_sum_adds_the_plants_left_to_right(n_plants):
    rng = np.random.default_rng(n_plants)
    w = rng.random((300, n_plants))
    w[rng.random(w.shape) < 0.3] = 0.0
    values = rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 7, size=w.shape)
    values[(w == 0) & (rng.random(w.shape) < 0.5)] = np.nan  # missing, without weight
    want = []
    for w_row, v_row in zip(w.tolist(), values.tolist()):
        total = w_row[0] * v_row[0] if w_row[0] > 0 else 0.0
        for wi, vi in zip(w_row[1:], v_row[1:]):
            total += wi * vi if wi > 0 else 0.0
        want.append(total)
    np.testing.assert_array_equal(solver._weighted_sum(w, values), want)


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


def test_a_model_built_on_rows_is_the_restricted_model(site, mesh, params):
    """Building the model on some timesteps equals restricting the full model
    to them bit for bit; all of a model's own rows, in order, are the model."""
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=2, seed=19)
    model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp)
    idx = np.flatnonzero(sp.daytime)
    sun = SolarPosition(sp.azimuth[idx], sp.zenith[idx])
    built = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sun, idx)
    restricted = model.rows(idx)
    for name in (*proxy._FIELDS_IN_TIME, "tilt"):
        np.testing.assert_array_equal(
            getattr(built.chain, name), getattr(restricted.chain, name), err_msg=name
        )
    np.testing.assert_array_equal(built.power, restricted.power)
    assert built.rows(np.arange(idx.size)) is built
    assert model.rows(np.arange(len(sp.zenith))) is model
    backwards = built.rows(np.arange(idx.size)[::-1])
    assert backwards is not built
    np.testing.assert_array_equal(backwards.power, built.power[::-1])


def test_estimate_builds_the_chain_once_on_the_solved_rows(site, mesh, params, monkeypatch):
    """The forward chain is never built for a step the solver does not solve."""
    synth, _, omegas = three_plant_scene(site, mesh, params, days=3, seed=20)
    built = []
    chain = solver.forward_chain

    def counting(sp, timestamps, *args):
        built.append(len(timestamps))
        return chain(sp, timestamps, *args)

    monkeypatch.setattr(solver, "forward_chain", counting)
    res = estimate(synth.dataset, omegas, mesh.orientations, params, SolverConfig())
    assert 0 < res.solved.sum() < len(res.ghi)
    assert built == [res.solved.sum()]


def test_refine_copies_no_whole_chain(site, mesh, params, monkeypatch):
    """Where every solved step has data, a refine round restricts the model
    only as steps freeze, never to all of its rows, and updates the
    state's errors in place."""
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=3, seed=20)
    idx = np.flatnonzero(sp.daytime & (synth.ghi_clear > 0))
    model = ForwardModel(synth.dataset, omegas, mesh.orientations, params, sp).rows(idx)
    assert np.isfinite(model.power).all()
    trust = np.full(model.power.shape, 1 / 3)
    gate = np.ones(model.power.shape, dtype=bool)
    cfg = SolverConfig()
    state = init_ghi(model, synth.ghi_clear[idx], trust, cfg)
    errors = state.errors
    copies = []
    rows = proxy.ForwardChain.rows

    def counting(chain, take):
        copies.append((len(chain.e0), len(take)))
        return rows(chain, take)

    monkeypatch.setattr(proxy.ForwardChain, "rows", counting)
    state = refine_ghi(model, state, trust, gate, cfg)
    assert copies  # steps froze during the round
    assert all(taken < n_rows for n_rows, taken in copies), copies
    assert state.errors is errors


def decided_steps(dataset, sp, ghi_clear):
    """Solved steps with some plant reporting and not every reporting plant at 0 W."""
    power = dataset.power_matrix()
    reported = np.isfinite(power)
    dark = (np.where(reported, power, 0.0) == 0.0).all(axis=1)
    return sp.daytime & (ghi_clear > 0) & reported.any(axis=1) & ~dark


def test_forward_model_runs_only_on_rows_that_need_it(site, mesh, params, monkeypatch):
    """Grid candidates cover the decided steps, descent the active ones.

    The shadow maps' clear-sky power and the grid winner's errors cover
    the solved steps; no evaluation covers every step. A step whose
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
    sun_up = int(sp.daytime.sum())
    day = int(res.solved.sum())
    decided = int(decided_steps(synth.dataset, sp, res.ghi_clear).sum())
    assert 0 < decided < day <= sun_up < t_count
    assert rows_seen[: cfg.n_grid + 2] == [day] + [decided] * cfg.n_grid + [day]
    fixed = 2 * day
    flat = GATE_ROUNDS * day
    bound = cfg.n_grid * decided + 2 * int(res.state.iterations.sum()) + fixed + flat
    assert sum(rows_seen) <= bound
    loops = sum(len(h) - 1 for h in res.state.objective_history)
    full_length = (2 + cfg.n_grid + GATE_ROUNDS + 2 * loops) * t_count
    assert sum(rows_seen) < full_length / 2


def solved_model(dataset, omegas, mesh, params, sp, ghi_clear):
    """The forward model on the solved steps, sun up and clear-sky > 0, as
    ``estimate`` builds it, and those steps."""
    idx = np.flatnonzero(sp.daytime & (ghi_clear > 0))
    sun = SolarPosition(sp.azimuth[idx], sp.zenith[idx])
    return ForwardModel(dataset, omegas, mesh.orientations, params, sun, idx), idx


def test_refine_evaluates_the_chain_on_active_rows_only(site, mesh, params, monkeypatch):
    """A refine round starts from the state's errors, not from an evaluation
    on all of the model's rows; every fifth row is gated out entirely."""
    synth, sp, omegas = three_plant_scene(site, mesh, params, days=3, seed=20)
    model, idx = solved_model(synth.dataset, omegas, mesh, params, sp, synth.ghi_clear)
    n = idx.size
    trust = np.full((n, 3), 1 / 3)
    gate = np.ones((n, 3), dtype=bool)
    gate[::5] = False
    cfg = SolverConfig()
    state = init_ghi(model, synth.ghi_clear[idx], trust, cfg)
    rows_seen = []
    chain = solver.proxy_matrix

    def counting(ghi, *args):
        rows_seen.append(len(ghi))
        return chain(ghi, *args)

    monkeypatch.setattr(solver, "proxy_matrix", counting)
    refine_ghi(model, state, trust, gate, cfg)
    assert rows_seen[0] == n - len(range(0, n, 5))
    assert max(rows_seen) < n


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
    """The descent with every active timestep's gradient taken in every iteration.

    Every row of ``model`` is a solved step.
    """
    ghi = state.ghi.copy()
    lam = np.full_like(ghi, cfg.lambda0)
    errors = model.normalized_errors(ghi)
    h = objective(errors, trust, gate)
    has_data = (np.isfinite(errors) & gate & (trust > 0)).any(axis=1)
    active = has_data.copy()
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
        round_history.append(float(h[has_data].sum()))
    state.objective_history.append(round_history)
    state.ghi, state.errors, state.lambdas = ghi, errors, lam
    state.converged = has_data & ~active
    return state


def reference_init(model, ghi_clear, trust, cfg):
    """The grid with all ``n_grid`` candidates on every step, dark ones included.

    Every row of ``model`` is a solved step.
    """
    ghi_clear = np.asarray(ghi_clear, float)
    ghi_max = cfg.k_safety * ghi_clear
    w = solver._objective_weights(model.power, trust, np.ones(trust.shape, dtype=bool))
    has_data = w.sum(axis=1) > 0
    best_score = np.full(len(ghi_max), np.inf)
    ghi = np.zeros(len(ghi_max))
    for g in range(1, cfg.n_grid + 1):
        cand = (g / cfg.n_grid) * ghi_max
        score = solver._weighted_sum(w, np.abs(model.normalized_errors(cand)))
        better = has_data & (score < best_score)
        best_score[better] = score[better]
        ghi[better] = cand[better]
    ghi[~has_data] = ghi_clear[~has_data]
    reported = np.isfinite(model.power)
    dark = (np.where(reported, model.power, 0.0) == 0.0).all(axis=1)
    ghi[has_data & dark] = 0.0
    return solver.EstimationState(
        ghi=ghi,
        errors=model.normalized_errors(ghi),
        lambdas=np.full(len(ghi), cfg.lambda0),
        ghi_max=ghi_max,
        iterations=np.zeros(len(ghi), dtype=int),
        converged=np.zeros(len(ghi), dtype=bool),
    )


@pytest.fixture(scope="module")
def dark_scene(site, mesh, params):
    """Three days of four plants with dark steps, a tenth of the power
    samples missing and no plant reporting at the first noon.

    p1 is halved while the sun's azimuth is within 80-150 degrees, so
    its shadow map, and with it the trust, varies with the sun.
    """
    synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=23)
    ds = synth.dataset
    azimuth = np.rad2deg(sp.azimuth) % 360.0
    sector = (azimuth >= 80.0) & (azimuth <= 150.0)
    shaded = replace(ds.plants[0], power=np.where(sector, 0.5, 1.0) * ds.plants[0].power)
    ds = AlignedDataset(ds.timestamps, (shaded, *ds.plants[1:]), ds.site)
    missing = np.random.default_rng(23).random((ds.n_steps, ds.n_plants)) < 0.1
    no_data = int(np.argmin(sp.zenith))
    missing[no_data] = True
    ds = with_missing(ds, missing)
    day = sp.daytime & (synth.ghi_clear > 0)
    decided = decided_steps(ds, sp, synth.ghi_clear)
    assert missing[day].any(axis=1).sum() > 50
    assert (day & ~decided).sum() > 20  # the no-data step and the dark ones
    return synth, sp, omegas, ds, no_data


def test_init_matches_the_every_step_grid(dark_scene, mesh, params):
    """Running the grid on the decided steps alone changes no bit of the state."""
    synth, sp, omegas, ds, no_data = dark_scene
    model, idx = solved_model(ds, omegas, mesh, params, sp, synth.ghi_clear)
    clear = synth.ghi_clear[idx]
    trust = np.random.default_rng(23).uniform(0.1, 1.0, model.power.shape)
    cfg = SolverConfig()
    state = init_ghi(model, clear, trust, cfg)
    ref = reference_init(model, clear, trust, cfg)
    no_data = np.searchsorted(idx, no_data)
    assert state.ghi[no_data] == clear[no_data] > 0
    for name in ("ghi", "errors", "lambdas", "ghi_max", "iterations", "converged"):
        np.testing.assert_array_equal(getattr(state, name), getattr(ref, name), err_msg=name)


def assert_matches_the_reference_pipeline(dark_scene, mesh, params, ghi_clear):
    """``estimate`` on ``dark_scene`` at ``ghi_clear`` against the every-row references.

    The references solve the solved steps; every other step keeps GHI 0,
    step ``lambda0`` and 0 iterations, is converged, has each plant's
    error its power over its rating, trust 1/n and no plant gated. The
    shadow maps read no clear-sky power off the solved steps, the trust
    is read at them, and each round gates them.
    """
    _, sp, omegas, ds, _ = dark_scene
    cfg = SolverConfig(trust_bin_deg=10.0)  # three days fill few 2-degree bins
    res = estimate(ds, omegas, mesh.orientations, params, cfg, ghi_clear=ghi_clear)
    assert np.ptp(res.trust[:, 0]) > 0.1

    model, idx = solved_model(ds, omegas, mesh, params, sp, ghi_clear)
    np.testing.assert_array_equal(res.solved, np.isin(np.arange(ds.n_steps), idx))

    def every_step(values, fill):
        out = np.full((ds.n_steps, *values.shape[1:]), fill, dtype=values.dtype)
        out[idx] = values
        return out

    pred_clear = every_step(model.plant_power(ghi_clear[idx]), np.nan)
    maps = [
        reference_smooth_threshold_map(
            reference_build_shadow_map(
                plant, pred_clear[:, i], model.pnom[i], sp, cfg.trust_bin_deg
            ),
            bandwidth_deg=cfg.trust_bandwidth_deg, floor=cfg.trust_floor,
        )
        for i, plant in enumerate(ds.plants)
    ]
    solved_sp = SolarPosition(sp.azimuth[idx], sp.zenith[idx])
    trust = reference_trust_weights(maps, solved_sp, floor=cfg.trust_floor)
    np.testing.assert_array_equal(res.trust, every_step(trust, 1 / ds.n_plants))
    ref = reference_init(model, ghi_clear[idx], trust, cfg)
    for _ in range(GATE_ROUNDS):
        gate = tukey_gate_matrix(ref.errors, k_q=cfg.k_q)
        ref = reference_refine(model, ref, trust, gate, cfg)
    gate = every_step(gate, True)
    errors = ds.power_matrix() / model.pnom
    errors[idx] = ref.errors

    np.testing.assert_array_equal(res.gate, gate)
    np.testing.assert_array_equal(res.ghi, every_step(ref.ghi, 0.0))
    np.testing.assert_array_equal(res.n_plants_used, (np.isfinite(errors) & gate).sum(axis=1))
    np.testing.assert_array_equal(res.state.errors, errors)
    np.testing.assert_array_equal(res.state.ghi_max, cfg.k_safety * ghi_clear)
    for name, fill in (("iterations", 0), ("lambdas", cfg.lambda0), ("converged", True)):
        np.testing.assert_array_equal(
            getattr(res.state, name), every_step(getattr(ref, name), fill), err_msg=name
        )
    assert res.state.err_history == ref.err_history
    assert res.state.objective_history == ref.objective_history
    assert res.state.bound_violation == ref.bound_violation
    return res


def test_estimate_matches_the_reference_pipeline(dark_scene, mesh, params):
    """Shadow maps, the grid, the gate and the descent as the every-row references run them.

    The reference trust comes from the per-plant shadow-map pipeline on
    the solved timesteps. The error history is the norm over the solved
    timesteps, the rows the descent changes.
    """
    assert_matches_the_reference_pipeline(dark_scene, mesh, params, dark_scene[0].ghi_clear)


def test_estimate_matches_the_reference_where_a_daytime_clear_sky_is_zero(
    dark_scene, mesh, params
):
    """A sun-up step with a zero clear sky is not solved; its values are the
    references' all the same."""
    synth, sp, *_ = dark_scene
    zero = np.flatnonzero(sp.daytime)[::7]
    clear = synth.ghi_clear.copy()
    clear[zero] = 0.0
    res = assert_matches_the_reference_pipeline(dark_scene, mesh, params, clear)
    assert not res.solved[zero].any()
    assert (res.ghi[zero] == 0.0).all() and res.converged[zero].all()


def test_shadow_maps_read_only_the_solved_steps(dark_scene, mesh, params):
    """A sun-up step with a zero clear sky is not solved, and its power
    enters no shadow map: setting it missing changes no trust weight."""
    synth, sp, omegas, ds, _ = dark_scene
    cfg = SolverConfig(trust_bin_deg=10.0)
    unsolved = np.flatnonzero(sp.daytime)[::3]
    clear = synth.ghi_clear.copy()
    clear[unsolved] = 0.0
    missing = np.zeros((ds.n_steps, ds.n_plants), dtype=bool)
    missing[unsolved] = True
    kept = estimate(ds, omegas, mesh.orientations, params, cfg, ghi_clear=clear)
    dropped = estimate(
        with_missing(ds, missing), omegas, mesh.orientations, params, cfg, ghi_clear=clear
    )
    assert np.ptp(kept.trust[kept.solved, 0]) > 0.1
    np.testing.assert_array_equal(dropped.trust, kept.trust)
    np.testing.assert_array_equal(dropped.ghi, kept.ghi)


def test_the_unsolved_steps_get_their_values_in_closed_form(site, mesh, params):
    """Night and the sun-up steps with a zero clear sky are not solved: each
    plant's trust there is exactly 1/n, no plant is gated, and every
    reporting plant is used.

    At a trust floor of 0.03 with five plants the floor's own weights,
    (1/f) / (n/f), are not exactly 1/5.
    """
    plants = {**THREE_PLANTS, "p4": ((26.57, 180.0, 6600.0),), "p5": ((26.57, 265.61, 5000.0),)}
    synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=24, plants={
        pid: tuple((mesh_vertex(mesh, tilt, az), pnom) for tilt, az, pnom in f)
        for pid, f in plants.items()
    })
    ds = synth.dataset
    missing = np.random.default_rng(24).random((ds.n_steps, ds.n_plants)) < 0.2
    ds = with_missing(ds, missing)
    clear = synth.ghi_clear.copy()
    clear[np.flatnonzero(sp.daytime)[::3]] = 0.0
    cfg = SolverConfig(trust_floor=0.03, trust_bin_deg=10.0)
    res = estimate(ds, omegas, mesh.orientations, params, cfg, ghi_clear=clear)
    unsolved = ~res.solved
    assert (unsolved & sp.daytime).sum() > 50
    assert (res.trust[unsolved] == 1 / 5).all()
    assert res.gate[unsolved].all()
    np.testing.assert_array_equal(res.n_plants_used[unsolved], (~missing[unsolved]).sum(axis=1))
    assert not res.gate[res.solved].all()


def test_converged_is_the_last_rounds_verdict(dark_scene, mesh, params):
    """A step that an earlier round froze but this round left at the
    iteration cap is not converged: its GHI is this round's unfinished one."""
    synth, sp, omegas, ds, no_data = dark_scene
    model, idx = solved_model(ds, omegas, mesh, params, sp, synth.ghi_clear)
    trust = np.full(model.power.shape, 1 / ds.n_plants)
    gate = np.ones(trust.shape, dtype=bool)
    cfg = SolverConfig(max_iterations=1)
    state = init_ghi(model, synth.ghi_clear[idx], trust, cfg)
    state.converged[:] = True
    state = refine_ghi(model, state, trust, gate, cfg)
    # one iteration halves a step at most, so every step that took one is still active
    stepped = state.iterations == 1
    assert stepped.sum() > 100 and (state.lambdas[stepped] >= LAMBDA_MIN).all()
    assert not state.converged[stepped].any()
    assert not state.converged[np.searchsorted(idx, no_data)]  # no plant reports there
    assert state.converged[~stepped & np.isfinite(model.power).any(axis=1)].all()


def test_estimate_bins_the_solved_rows_once(dark_scene, mesh, params, monkeypatch):
    """The shadow maps and the trust read one set of sun-bin keys, the solved rows'."""
    _, sp, omegas, ds, _ = dark_scene
    calls = []

    def counting(*args):
        calls.append(args)
        return sun_bin_keys(*args)

    monkeypatch.setattr(reconcile, "sun_bin_keys", counting)
    monkeypatch.setattr(solver, "sun_bin_keys", counting, raising=False)
    cfg = SolverConfig(trust_bin_deg=10.0)
    res = estimate(ds, omegas, mesh.orientations, params, cfg)
    assert len(calls) == 1
    (positions, bin_deg), = calls
    np.testing.assert_array_equal(positions.zenith, sp.zenith[res.solved])
    np.testing.assert_array_equal(positions.azimuth, sp.azimuth[res.solved])
    assert bin_deg == 10.0


def test_descent_matches_the_every_row_gradient_reference(site, mesh, params):
    """Retaking the gradient only where GHI moved changes no bit of the state.

    Four plants, a tenth of their power samples missing, uneven trust and
    the Tukey gate refreshed between rounds as ``estimate`` does.
    """
    synth, sp, omegas = build_scene(site, mesh, params, days=3, seed=21)
    rng = np.random.default_rng(21)
    ds = synth.dataset
    missing = rng.random((ds.n_steps, ds.n_plants)) < 0.1
    model, idx = solved_model(
        with_missing(ds, missing), omegas, mesh, params, sp, synth.ghi_clear
    )
    trust = rng.uniform(0.1, 1.0, model.power.shape)
    cfg = SolverConfig()
    state = init_ghi(model, synth.ghi_clear[idx], trust, cfg)
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
