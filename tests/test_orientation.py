"""Mesh generation, clear-sky selection and coefficient identification."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

from pvghi import (
    InputError,
    Site,
    estimate_nominal_power,
    generate_mesh,
    identify,
    identify_omega,
    clearsky_ghi,
    select_clear,
    sun_positions,
)
from pvghi import orientation
from pvghi.data import AlignedDataset, PlantSeries, SettingError
from pvghi.orientation import (
    IdentificationResult,
    InsufficientDataError,
    OmegaCoefficients,
    OrientationConfig,
    SplitReport,
    load_omegas,
    save_omegas,
)
from pvghi.proxy import forward_chain, proxy_matrix
from pvghi.reconcile import binned_quantile, sun_bin_keys
from pvghi.solar import SolarPosition
from pvghi.synth import (
    CloudModel,
    PlantSpec,
    ShadowSector,
    SyntheticSpec,
    make_timestamps,
    synthesize,
)
from conftest import clear_seed, mesh_vertex
from test_acceptance import standard_fields
from test_proxy import assert_same_bits
from test_solver import with_missing


def by_splits(*days):
    """Identification settings with the split lengths ``days``, other settings default."""
    return OrientationConfig(split_candidates=days)


def day_index(timestamps):
    """Whole days since the first timestamp, as ``identify`` counts them."""
    seconds = timestamps.astype("int64")
    return (seconds - seconds[0]) // 86400


def select_clear_reference(plant, sp, bin_deg=5.0):
    """Reference seed mask over all timesteps: bins the plant's daytime
    samples with power by their own sun positions, then selects as
    ``select_clear`` does."""
    power = plant.power
    rows = np.flatnonzero(sp.daytime & np.isfinite(power))
    keys = sun_bin_keys(sp, bin_deg)[rows]
    x = power[rows]
    cells, level = binned_quantile(
        keys, x, orientation.ENVELOPE_QUANTILE, orientation.ENVELOPE_MIN_SAMPLES
    )
    level_of = np.full(keys.max(initial=0) + 1, np.inf)
    level_of[cells] = level
    mask = np.zeros(len(power), dtype=bool)
    mask[rows] = x >= orientation.ENVELOPE_FRAC * level_of[keys]
    return mask


def fold_edges_reference(timestamps, length_days, rows):
    """Reference fold membership of the timesteps ``rows`` for one fold
    length, from a day index of its own; folds start at the first timestamp."""
    start = timestamps[0].astype("int64")
    day = ((timestamps.astype("int64") - start) // 86400).astype(int)
    fold = day // length_days
    return [fold[rows] == k for k in range(int(fold.max()) + 1)]


def daytime_proxy(dataset, ghi_clear, mesh, params):
    """The sun positions, daytime rows and clear-sky proxy ``identify`` builds."""
    sp = sun_positions(dataset.timestamps, dataset.site)
    day = np.flatnonzero(sp.daytime)
    sun = SolarPosition(azimuth=sp.azimuth[day], zenith=sp.zenith[day])
    return sp, day, orientation._clear_proxy(dataset, sun, ghi_clear, mesh, params, day)


def clear_fits(dataset, ghi_clear, mesh, params):
    """The sun positions, daytime rows and per-plant records ``identify`` makes."""
    sp, day, pr = daytime_proxy(dataset, ghi_clear, mesh, params)
    n_min = max(len(mesh), orientation.MIN_FIT_SAMPLES)
    fits = [orientation._ClearFits(p.plant_id, p.power[day], pr, n_min) for p in dataset.plants]
    return sp, day, fits


def refined_masks(dataset, ghi_clear, mesh, params):
    """Seed and refined clear masks over all timesteps, as ``identify`` makes them."""
    sp, day, fits = clear_fits(dataset, ghi_clear, mesh, params)
    period = np.cumsum(np.diff(sp.daytime.astype(int), prepend=0) == 1)[day]
    keys = sun_bin_keys(sp, 5.0)[day]
    seeds = [clear_seed(p, sp) for p in dataset.plants]
    refined = []
    for seed, fit in zip(seeds, fits):
        mask, _ = orientation._refine_clear(fit, seed[day], period, keys, params)
        full = np.zeros(dataset.n_steps, dtype=bool)
        full[day] = mask
        refined.append(full)
    return seeds, refined


def split_search(dataset, ghi_clear, mesh, params, masks, split_days):
    """The split search alone, on clear masks over all timesteps."""
    _, day, fits = clear_fits(dataset, ghi_clear, mesh, params)
    omegas, report = orientation._split_search(
        fits, [m[day] & fit.finite for m, fit in zip(masks, fits)], [None] * len(fits),
        orientation._folds(day_index(dataset.timestamps), split_days, day), params,
    )
    return IdentificationResult(omegas, mesh, report)


def huber_losses(power, pr_clear):
    """The Huber loss of each IRLS pass of ``identify_omega``, at its fixed scale.

    Each pass's coefficients are copied from ``_weighted_nnls`` before
    the sparsity cut edits the last in place; the scale is the MAD of
    the first, unweighted fit's residuals.
    """
    fits = []
    solve = orientation._weighted_nnls

    def recording(*args):
        omega = solve(*args)
        fits.append(omega.copy())
        return omega

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orientation, "_weighted_nnls", recording)
        identify_omega(power, pr_clear)
    resid = [power - pr_clear @ omega for omega in fits]
    scale = np.median(np.abs(resid[0] - np.median(resid[0]))) / 0.6745
    c = orientation.HUBER_C
    return [
        float(np.where(u <= c, 0.5 * u**2, c * u - 0.5 * c**2).sum())
        for u in (np.abs(r) / scale for r in resid)
    ]


class TestMesh:
    def test_subdivision_one_count(self):
        mesh = generate_mesh(1)
        assert 15 <= len(mesh) <= 21

    def test_zenith_vertex_once(self, mesh):
        flat = [o for o in mesh.orientations if o.tilt == 0.0]
        assert len(flat) == 1
        assert flat[0].azimuth == 0.0

    def test_all_tilts_within_hemisphere(self, mesh):
        assert all(0 <= o.tilt <= np.pi / 2 for o in mesh.orientations)

    def test_north_facing_discarded(self, mesh):
        for o in mesh.orientations:
            az = np.rad2deg(o.azimuth)
            from_north = min(az, 360 - az)
            assert not (np.rad2deg(o.tilt) > 15.0 and from_north <= 60.0)

    def test_minimum_great_circle_spacing(self, mesh):
        os_ = mesh.orientations
        for i in range(len(os_)):
            for j in range(i + 1, len(os_)):
                cosd = np.cos(os_[i].tilt) * np.cos(os_[j].tilt) + np.sin(
                    os_[i].tilt
                ) * np.sin(os_[j].tilt) * np.cos(os_[i].azimuth - os_[j].azimuth)
                assert np.arccos(np.clip(cosd, -1, 1)) >= np.deg2rad(1.0) - 1e-12

    def test_subdivision_range_enforced(self):
        with pytest.raises(InputError):
            generate_mesh(0)
        with pytest.raises(InputError):
            generate_mesh(5)


@pytest.fixture(scope="module")
def clear_scene(site, mesh, params):
    """45-day two-plant synthetic with the default bimodal cloud model."""
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
    return synth, sp, pr_clear, south, east, west


class TestSelectClear:
    def test_closed_loop_recall_and_precision(self, clear_scene):
        """Thresholds measured from this oracle generator.

        A one-standard-deviation band around a resolved Gaussian mode
        cannot select much more than ~68% of it, so recall sits near
        0.55; what matters for the downstream regression is precision.
        """
        synth, sp, _, _, _, _ = clear_scene
        truly = synth.clear_true
        for plant in synth.dataset.plants:
            mask = clear_seed(plant, sp)
            recall = (mask & truly).sum() / truly.sum()
            precision = (mask & truly).sum() / mask.sum()
            assert recall >= 0.45
            assert precision >= 0.85

    def test_night_never_clear(self, clear_scene):
        synth, sp, _, _, _, _ = clear_scene
        mask = clear_seed(synth.dataset.plants[0], sp)
        assert not mask[~sp.daytime].any()

    def test_fully_clear_series_still_selects(self, site, mesh):
        south = mesh_vertex(mesh, 26.57, 180.0)
        ts = make_timestamps("2015-05-01T00:00:00", 45, 600)
        cloud = CloudModel(mean_logit=30.0, sigma=0.0)  # saturated: always clear
        spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),), cloud=cloud)
        synth = synthesize(spec, site, ts, seed=1)
        assert synth.clear_true[sun_positions(ts, site).daytime].all()
        sp = sun_positions(ts, site)
        mask = clear_seed(synth.dataset.plants[0], sp)
        day_power = sp.daytime & (synth.dataset.plants[0].power > 0)
        assert mask.sum() / day_power.sum() >= 0.4

    def test_missing_power_never_clear(self, clear_scene, site):
        synth, sp, _, _, _, _ = clear_scene
        plant = synth.dataset.plants[0]
        power = plant.power.copy()
        power[:: 2] = np.nan
        holed = PlantSeries(plant.plant_id, plant.timestamps, power, plant.temperature)
        mask = clear_seed(holed, sp)
        assert not mask[::2].any()


@settings(max_examples=15)
@given(st.data())
def test_missing_power_is_never_selected_clear(clear_scene, mesh, params, data):
    """Neither selector marks a missing sample clear: scattered gaps and outages."""
    synth, sp, _, _, _, _ = clear_scene
    ds = synth.dataset
    t_count = ds.n_steps
    plant = st.integers(0, ds.n_plants - 1)
    missing = np.zeros((t_count, ds.n_plants), dtype=bool)
    for i, t in data.draw(st.lists(st.tuples(plant, st.integers(0, t_count - 1)), max_size=300)):
        missing[t, i] = True
    outage = st.tuples(plant, st.integers(0, t_count - 1), st.integers(1, 3 * 144))
    for i, start, length in data.draw(st.lists(outage, max_size=3)):
        missing[start:start + length, i] = True
    holed = with_missing(ds, missing)
    seeds, refined = refined_masks(holed, synth.ghi_clear, mesh, params)
    for i, (seed, mask) in enumerate(zip(seeds, refined)):
        assert not (seed & missing[:, i]).any()
        assert not (mask & missing[:, i]).any()


def plant_of(power):
    """A plant with ``power`` on a 10-min grid."""
    step = np.timedelta64(600, "s")
    ts = np.datetime64("2015-05-01T00:00:00", "s") + np.arange(len(power)) * step
    return PlantSeries("p", ts, power, np.full(len(power), 15.0))


@st.composite
def sun_and_power(draw):
    """Sun positions above and below the horizon, a power series with
    gaps and a bin size; coarse bins hold many samples, fine ones few."""
    n = draw(st.integers(1, 150))
    zenith = draw(arrays(float, n, elements=st.floats(0.0, np.pi)))
    azimuth = draw(arrays(float, n, elements=st.floats(0.0, 2 * np.pi)))
    power = draw(arrays(float, n, elements=st.one_of(st.floats(0.0, 1e4), st.just(np.nan))))
    return SolarPosition(azimuth, zenith), power, draw(st.sampled_from([5.0, 30.0, 90.0]))


# a night row, a gap, one bin of six samples with power and one of two (below
# ENVELOPE_MIN_SAMPLES)
@example((
    SolarPosition(np.full(10, 3.0), np.array([0.5] * 6 + [2.0, 0.5, 1.2, 1.2])),
    np.array([900.0, 1000.0, 950.0, np.nan, 500.0, 990.0, 800.0, 1000.0, 300.0, 310.0]),
    5.0,
))
@settings(max_examples=200)
@given(sun_and_power())
def test_select_clear_on_daytime_keys_equals_the_reference(scene):
    """``select_clear`` on the daytime steps' sun-bin keys, bit for bit."""
    sp, power, bin_deg = scene
    plant = plant_of(power)
    np.testing.assert_array_equal(
        clear_seed(plant, sp, bin_deg), select_clear_reference(plant, sp, bin_deg)
    )


@st.composite
def fold_scenes(draw):
    """Timestamps from any time of day at one of several steps, fold
    lengths and the rows whose folds are taken."""
    n = draw(st.integers(1, 300))
    step = draw(st.sampled_from([600, 3600, 5 * 3600, 86400, 3 * 86400]))
    start = np.datetime64("2015-05-01T00:00:00", "s") + draw(st.integers(0, 86399))
    timestamps = start + np.arange(n) * np.timedelta64(step, "s")
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    return timestamps, lengths, np.flatnonzero(draw(arrays(bool, n)))


# a 10-day span that neither length divides, rows on the first 5 days only:
# the last fold of each length holds no row
@example((
    np.datetime64("2015-05-01T06:00:00", "s") + np.arange(240) * np.timedelta64(3600, "s"),
    [3, 4], np.arange(120),
))
@settings(max_examples=200)
@given(fold_scenes())
def test_folds_of_every_length_equal_the_per_length_reference(scene):
    """``_folds`` on one day index gives every length's folds bit for bit,
    as many as span every timestep's day."""
    timestamps, lengths, rows = scene
    folds = orientation._folds(day_index(timestamps), lengths, rows)
    assert list(folds) == lengths
    for length in lengths:
        reference = fold_edges_reference(timestamps, length, rows)
        assert len(folds[length]) == len(reference)
        for got, want in zip(folds[length], reference):
            np.testing.assert_array_equal(got, want)


class TestRefineClear:
    @pytest.mark.parametrize("seed", [117, 126])
    def test_fresh_weather_rates_unshaded_plants(self, mesh, params, seed):
        """Steady haze that a per-bin power split takes for clear sky.

        On these two scenes a two-mode split of each bin rated every
        plant 14-24 % high; the refined masks hold them within 1 %.
        """
        site = Site(latitude=47.5, longitude=7.5, altitude=1500.0)
        ts = make_timestamps("2015-05-01T00:00:00", 45, 600)
        fields = standard_fields(mesh)
        spec = SyntheticSpec(
            plants=tuple(PlantSpec(pid, f, noise_rel=0.01) for pid, f in fields.items())
        )
        synth = synthesize(spec, site, ts, seed=seed)
        res = identify(synth.dataset, synth.ghi_clear, params, by_splits(45, 30, 15))
        for oc in res.omegas:
            true_pnom = sum(pnom for _, pnom in fields[oc.plant_id])
            assert abs(oc.estimated_pnom - true_pnom) / true_pnom < 0.05, oc.plant_id

    def test_masks_are_clear_daytime_samples_with_power(self, clear_scene, mesh, params):
        synth, sp, _, _, _, _ = clear_scene
        _, refined = refined_masks(synth.dataset, synth.ghi_clear, mesh, params)
        for plant, mask in zip(synth.dataset.plants, refined):
            assert not mask[~sp.daytime].any()
            assert np.isfinite(plant.power[mask]).all()
            assert (mask & synth.clear_true).sum() / mask.sum() >= 0.9

    def test_dead_plant_named(self, clear_scene, mesh, params):
        synth = clear_scene[0]
        single, _ = synth.dataset.plants
        dead = replace(single, plant_id="dead", power=np.zeros(len(single.power)))
        dataset = AlignedDataset(synth.dataset.timestamps, (single, dead), synth.dataset.site)
        with pytest.raises(
            InsufficientDataError, match="dead: the clear-sky fit left every orientation at zero"
        ):
            identify(dataset, synth.ghi_clear, params, by_splits(45))

    def test_plant_too_short_for_a_mask_named(self, clear_scene, mesh, params):
        """Two days of data leave every 5-degree bin below its sample floor."""
        synth = clear_scene[0]
        single, _ = synth.dataset.plants
        power = np.full(len(single.power), np.nan)
        power[-288:] = single.power[-288:]
        late = replace(single, plant_id="late", power=power)
        dataset = AlignedDataset(synth.dataset.timestamps, (single, late), synth.dataset.site)
        with pytest.raises(InsufficientDataError, match="late: 2 clear samples, need >= 62"):
            identify(dataset, synth.ghi_clear, params, by_splits(45))


class TestIdentifyOmega:
    def test_single_orientation_dominant(self, clear_scene, mesh, params):
        synth, sp, pr_clear, south, _, _ = clear_scene
        plant = synth.dataset.plants[0]
        mask = synth.clear_true & np.isfinite(plant.power)
        omega = identify_omega(plant.power[mask], pr_clear[mask])
        j = mesh.orientations.index(south)
        assert omega[j] / omega.sum() >= 0.95
        assert abs(estimate_nominal_power(omega, params) - 8000.0) / 8000.0 < 0.10

    def test_east_west_fields_recovered(self, clear_scene, mesh, params):
        synth, sp, pr_clear, _, east, west = clear_scene
        plant = synth.dataset.plants[1]
        mask = synth.clear_true & np.isfinite(plant.power)
        omega = identify_omega(plant.power[mask], pr_clear[mask])
        je, jw = mesh.orientations.index(east), mesh.orientations.index(west)
        p_east = omega[je] * params.k2 * params.i_stc
        p_west = omega[jw] * params.k2 * params.i_stc
        assert abs(p_east - 4000.0) / 4000.0 < 0.10
        assert abs(p_west - 4500.0) / 4500.0 < 0.10

    def test_zero_power_gives_zero_omega(self, clear_scene):
        _, _, pr_clear, _, _, _ = clear_scene
        rows = pr_clear[:200]
        omega = identify_omega(np.zeros(200), rows)
        assert np.all(omega == 0.0)

    def test_scale_equivariance(self, clear_scene):
        synth, _, pr_clear, _, _, _ = clear_scene
        plant = synth.dataset.plants[0]
        mask = synth.clear_true & np.isfinite(plant.power)
        base = identify_omega(plant.power[mask], pr_clear[mask])
        scaled = identify_omega(3.0 * plant.power[mask], pr_clear[mask])
        nz = base > 0
        np.testing.assert_allclose(scaled[nz] / base[nz], 3.0, rtol=1e-6)

    def test_irls_objective_non_increasing(self, clear_scene):
        synth, sp, pr_clear, _, _, _ = clear_scene
        plant = synth.dataset.plants[0]
        # contaminated mask so the robust loop actually has to work
        mask = clear_seed(plant, sp)
        history = huber_losses(plant.power[mask], pr_clear[mask])
        assert len(history) >= 2
        diffs = np.diff(np.array(history))
        assert np.all(diffs <= 1e-8 * max(history[0], 1.0))

    def test_insufficient_samples(self, clear_scene):
        _, _, pr_clear, _, _, _ = clear_scene
        with pytest.raises(InsufficientDataError):
            identify_omega(np.ones(10), pr_clear[:10])

    def test_nonnegative_always(self, clear_scene):
        synth, sp, pr_clear, _, _, _ = clear_scene
        for plant in synth.dataset.plants:
            mask = clear_seed(plant, sp)
            omega = identify_omega(plant.power[mask], pr_clear[mask])
            assert np.all(omega >= 0.0)


def random_fit(seed, n, k, tie=None):
    """A non-negative n x k proxy block and a noisy power with outliers.

    With ``tie`` set, column 1 is column 0 times 1 + tie * N(0, 1) per
    row: 0 duplicates it, 1e-9 leaves a Gram holding both columns too
    ill-conditioned to solve, 1e-4 does not.
    """
    rng = np.random.default_rng(seed)
    a = rng.random((n, k))
    if tie is not None:
        a[:, 1] = a[:, 0] * (1.0 + tie * rng.standard_normal(n))
    y = a @ rng.exponential(size=k) * (1.0 + 0.05 * rng.standard_normal(n))
    y[rng.random(n) < 0.1] *= 0.3
    return a, y, rng


def weighted_objective(a, y, w, omega):
    return float(np.sum(w * (y - a @ omega) ** 2))


class TestGramSolve:
    """``_weighted_nnls`` reaches the weighted rows' NNLS objective."""

    @staticmethod
    def assert_meets_scipy(a, y, w, passive, form=None):
        """``form(new)`` makes the Gram's columns ``new``, a.T @ a[:, new] by default."""
        gram = orientation._columns_on_demand(
            a.shape[1], form or (lambda new: a.T @ a[:, new])
        )
        got = orientation._weighted_nnls(a, y, w, gram, a.T @ y, passive)
        sw = np.sqrt(w)
        want = scipy_nnls(a * sw[:, None], y * sw)[0]
        assert np.all(got >= 0.0)
        f_got, f_want = (weighted_objective(a, y, w, om) for om in (got, want))
        assert abs(f_got - f_want) <= 1e-9 * f_want
        return got

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 12),
        rows_per_column=st.integers(3, 40),
        tie=st.sampled_from([None, 1e-4, 1e-6, 1e-9, 0.0]),
        start=st.sampled_from(["none", "some", "all"]),
    )
    def test_matches_nnls_on_the_weighted_rows(self, seed, k, rows_per_column, tie, start):
        """From any starting support, as IRLS passes start from the last one."""
        a, y, rng = random_fit(seed, k * rows_per_column, k, tie)
        w = np.where(rng.random(len(y)) < 0.5, 1.0, rng.uniform(0.01, 1.0, len(y)))
        passive = {
            "none": np.zeros(k, bool), "some": rng.random(k) < 0.5, "all": np.ones(k, bool),
        }[start]
        self.assert_meets_scipy(a, y, w, passive)

    @pytest.mark.parametrize("tie", [0.0, 1e-9])
    def test_tied_columns_meet_the_bound(self, tie):
        """A duplicated or nearly duplicated column leaves the Gram singular or nearly so."""
        for seed in range(40):
            a, y, rng = random_fit(seed, 200, 6, tie)
            for passive in (np.zeros(6, bool), np.ones(6, bool)):
                self.assert_meets_scipy(a, y, np.ones(len(y)), passive)
                w = rng.uniform(0.01, 1.0, len(y))
                self.assert_meets_scipy(a, y, w, passive)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 10),
        rows_per_column=st.integers(5, 40),
    )
    def test_loss_history_non_increasing(self, seed, k, rows_per_column):
        a, y, _ = random_fit(seed, k * rows_per_column, k)
        history = huber_losses(y, a)
        assert len(history) >= 2
        assert np.all(np.diff(history) <= 1e-12 * history[0])


class TestWarmStart:
    """Fits that start from another fit's support end where a cold fit ends."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 12),
        rows_per_column=st.integers(3, 40),
        tie=st.sampled_from([None, 1e-4, 1e-9, 0.0]),
        data=st.data(),
    )
    def test_on_demand_columns_from_any_support(self, seed, k, rows_per_column, tie, data):
        """Only the Gram columns the search reads are formed, from any start."""
        a, y, rng = random_fit(seed, k * rows_per_column, k, tie)
        w = np.where(rng.random(len(y)) < 0.5, 1.0, rng.uniform(0.01, 1.0, len(y)))
        passive = data.draw(arrays(bool, k))
        read = np.zeros(k, bool)

        def gram(new):
            assert not read[new].any(), "a Gram column formed twice"
            read[new] = True
            return a.T @ a[:, new]

        got = TestGramSolve.assert_meets_scipy(a, y, w, passive, gram)
        assert read[got > 0].all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 12),
        rows_per_column=st.integers(5, 40),
        support=st.floats(0.0, 1.0),
    )
    def test_warm_fit_keeps_the_cold_fit(self, seed, k, rows_per_column, support):
        a, y, rng = random_fit(seed, k * rows_per_column, k)
        cold = identify_omega(y, a)
        start = rng.exponential(size=k) * (rng.random(k) < support)
        warm = identify_omega(y, a, start)
        np.testing.assert_array_equal(warm > 0, cold > 0)
        np.testing.assert_allclose(warm, cold, rtol=1e-9, atol=0.0)

    def test_warm_fit_of_a_clear_scene(self, clear_scene, mesh, params, monkeypatch):
        """Each plant's refined mask, fitted from the fit of its first half.

        The warm fit's first NNLS pass starts from the support of ``start``.
        """
        synth, _, pr_clear, _, _, _ = clear_scene
        _, refined = refined_masks(synth.dataset, synth.ghi_clear, mesh, params)
        starts, search = [], orientation.nnls

        def recording(gram, rhs, passive, solve):
            starts.append(passive.copy())
            return search(gram, rhs, passive, solve)

        monkeypatch.setattr(orientation, "nnls", recording)
        for plant, mask in zip(synth.dataset.plants, refined):
            half = mask & (np.cumsum(mask) <= mask.sum() // 2)
            start = identify_omega(plant.power[half], pr_clear[half])
            cold = identify_omega(plant.power[mask], pr_clear[mask])
            starts.clear()
            warm = identify_omega(plant.power[mask], pr_clear[mask], start)
            np.testing.assert_array_equal(starts[0], start > 0)
            np.testing.assert_array_equal(warm > 0, cold > 0)
            np.testing.assert_allclose(warm, cold, rtol=1e-9, atol=0.0)


def test_identify_fits_each_row_set_once(clear_scene, mesh, params, monkeypatch):
    """One ``identify_omega`` call per distinct plant and row set.

    The refinement's last mask is the 45-day split's one fold, and the
    30-day split's second fold is the 15-day split's third: neither is
    fitted again.
    """
    synth, _, _, _, _, _ = clear_scene
    dataset, splits = synth.dataset, (45, 30, 15)
    calls = []
    fit = orientation.identify_omega

    def recording(power, pr_clear, start=None):
        calls.append(power.tobytes() + pr_clear.tobytes())
        return fit(power, pr_clear, start)

    monkeypatch.setattr(orientation, "identify_omega", recording)
    _, refined = refined_masks(dataset, synth.ghi_clear, mesh, params)
    refine_sets = set(calls)
    calls.clear()
    identify(dataset, synth.ghi_clear, params, by_splits(*splits))
    assert len(calls) == len(set(calls))

    # the row sets the split search fits, on the refined masks
    sp, day, pr = daytime_proxy(dataset, synth.ghi_clear, mesh, params)
    folds = orientation._folds(day_index(dataset.timestamps), splits, day)
    fold_sets, n_folds = set(), 0
    for plant, mask in zip(dataset.plants, refined):
        for length in splits:
            for fold in folds[length]:
                rows = mask[day] & fold
                if rows.sum() >= max(len(mesh), orientation.MIN_FIT_SAMPLES):
                    fold_sets.add(plant.power[day][rows].tobytes() + pr[rows].tobytes())
                    n_folds += 1
    assert set(calls) == refine_sets | fold_sets
    assert len(refine_sets & fold_sets) == len(dataset.plants)
    assert n_folds - len(fold_sets) == len(dataset.plants)


class TestNominalPower:
    def test_single_entry(self, params):
        omega = np.zeros(5)
        omega[2] = 10.0
        assert estimate_nominal_power(omega, params) == pytest.approx(9420.0)

    def test_zero(self, params):
        assert estimate_nominal_power(np.zeros(4), params) == 0.0

    def test_small_plant_closed_loop(self, site, mesh, params):
        south = mesh_vertex(mesh, 26.57, 180.0)
        ts = make_timestamps("2015-05-01T00:00:00", 45, 600)
        spec = SyntheticSpec(plants=(PlantSpec("small", ((south, 6600.0),)),))
        synth = synthesize(spec, site, ts, seed=3)
        sp = sun_positions(ts, site)
        pr_clear = proxy_matrix(
            synth.ghi_clear,
            forward_chain(
                sp, ts, synth.dataset.mean_temperature(), mesh.orientations, params, site
            ),
        ).values
        mask = clear_seed(synth.dataset.plants[0], sp)
        omega = identify_omega(synth.dataset.plants[0].power[mask], pr_clear[mask])
        assert abs(estimate_nominal_power(omega, params) - 6600.0) / 6600.0 < 0.10


@pytest.fixture(scope="module")
def season_scene(site, mesh, params):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-01-01T00:00:00", 300, 1800)
    shadow = (
        ShadowSector(
            azimuth_min_deg=80, azimuth_max_deg=160, zenith_min_deg=50,
            attenuation=0.35, day_min=1, day_max=105,
        ),
    )
    sp = sun_positions(ts, site)
    return south, ts, sp, shadow


class TestSplits:
    @staticmethod
    def split_report(season_scene, site, mesh, params, shaded, true_mask=False):
        """Split search on the selector's masks, or on the generator's clear mask."""
        south, ts, _, shadow = season_scene
        spec = SyntheticSpec(
            plants=(PlantSpec("p", ((south, 8000.0),), shadows=shadow if shaded else ()),)
        )
        synth = synthesize(spec, site, ts, seed=5)
        if true_mask:
            res = split_search(
                synth.dataset, synth.ghi_clear, mesh, params, [synth.clear_true], (300, 75)
            )
        else:
            res = identify(synth.dataset, synth.ghi_clear, params, by_splits(300, 75))
        return res.report

    def test_seasonal_shading_prefers_short_split(self, season_scene, site, mesh, params):
        report = self.split_report(season_scene, site, mesh, params, shaded=True)
        table = dict(zip(report.split_days, report.pv_rmse))
        assert table[75] < table[300]
        assert report.chosen_split == 75

    def test_unshaded_ties_to_longest(self, season_scene, site, mesh, params):
        report = self.split_report(season_scene, site, mesh, params, shaded=False)
        assert report.chosen_split == 300

    def test_true_mask_seasonal_shading_prefers_short_split(
        self, season_scene, site, mesh, params
    ):
        report = self.split_report(
            season_scene, site, mesh, params, shaded=True, true_mask=True
        )
        table = dict(zip(report.split_days, report.pv_rmse))
        assert table[75] < table[300]
        assert report.chosen_split == 75

    def test_true_mask_unshaded_ties_to_longest(self, season_scene, site, mesh, params):
        report = self.split_report(
            season_scene, site, mesh, params, shaded=False, true_mask=True
        )
        assert report.chosen_split == 300

    def test_split_scores_and_exported_fold(self, season_scene, site, mesh, params, monkeypatch):
        """The two normalizations of the split search, recomputed from its fits.

        The split table pools each plant's fold residuals over the rating
        of its first fold fit; the plant exports the chosen split's fold
        fit whose RMSE over its own rating is lowest.
        """
        south, ts, _, shadow = season_scene
        spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),), shadows=shadow),))
        synth = synthesize(spec, site, ts, seed=5)
        fitted, masks = {}, []
        fit, refine = orientation._ClearFits.__call__, orientation._refine_clear

        def recording_fit(self, rows, start):
            fitted[rows.tobytes()] = fit(self, rows, start)
            return fitted[rows.tobytes()]

        def recording_refine(*args):
            refined = refine(*args)
            masks.append(refined[0])
            return refined

        monkeypatch.setattr(orientation._ClearFits, "__call__", recording_fit)
        monkeypatch.setattr(orientation, "_refine_clear", recording_refine)
        res = identify(synth.dataset, synth.ghi_clear, params, by_splits(300, 75))
        _, day, pr = daytime_proxy(synth.dataset, synth.ghi_clear, mesh, params)
        power = synth.dataset.plants[0].power[day]
        assert res.report.chosen_split == 75

        folds_of = orientation._folds(day_index(ts), res.report.split_days, day)
        for length, pooled in zip(res.report.split_days, res.report.pv_rmse):
            folds = [masks[0] & fold for fold in folds_of[length]]
            omegas = [fitted[rows.tobytes()] for rows in folds]  # every fold is fitted
            ratings = [estimate_nominal_power(omega, params) for omega in omegas]
            rmse = [
                np.sqrt(np.mean((power[rows] - pr[rows] @ omega) ** 2))
                for rows, omega in zip(folds, omegas)
            ]
            n = [rows.sum() for rows in folds]
            assert pooled == pytest.approx(
                np.sqrt(np.dot(n, np.square(rmse)) / sum(n)) / ratings[0], rel=1e-12
            )
            if length == res.report.chosen_split:
                own = np.divide(rmse, ratings)
                np.testing.assert_array_equal(res.omegas[0].omega, omegas[np.argmin(own)])

    def test_short_dataset_rejected(self, site, mesh, params):
        south = mesh_vertex(mesh, 26.57, 180.0)
        ts = make_timestamps("2015-05-01T00:00:00", 30, 1800)
        spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
        synth = synthesize(spec, site, ts, seed=1)
        with pytest.raises(InputError, match="shorter than every candidate"):
            identify(synth.dataset, synth.ghi_clear, params, by_splits(91))


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_identify_rejects_a_bad_daytime_clear_sky(clear_scene, mesh, params, bad):
    synth, sp, _, _, _, _ = clear_scene
    rows = np.flatnonzero(sp.daytime)[::50]
    clear = synth.ghi_clear.copy()
    clear[rows] = bad
    with pytest.raises(InputError, match=f"{len(rows)} daytime value"):
        identify(synth.dataset, clear, params, by_splits(45))
    with pytest.raises(InputError, match="values for"):
        identify(synth.dataset, synth.ghi_clear[:-1], params, by_splits(45))


def test_identify_without_a_clear_sky_uses_the_site_model(clear_scene, site, params):
    """None is ``clearsky_ghi`` at the dataset's site, Linke turbidity included."""
    synth, sp, _, _, _, _ = clear_scene
    ds = synth.dataset
    runs = [
        identify(replace(ds, site=s), clear, params, by_splits(45))
        for s, clear in (
            (site, clearsky_ghi(sp, ds.timestamps, site)),
            (site, None),
            (replace(site, linke_turbidity=3.5), None),
        )
    ]
    given, default, hazy = ([oc.omega for oc in res.omegas] for res in runs)
    np.testing.assert_array_equal(default, given)
    assert runs[1].report == runs[0].report
    assert not np.array_equal(hazy, default)


def test_identify_uses_site_pressure(mesh, params):
    """Identification fits the chain that synthesis and estimation evaluate.

    At 1500 m a sea-level chain misses this noise-free rating by 0.8 %.
    """
    site = Site(latitude=47.5, longitude=7.5, altitude=1500.0)
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-05-01T00:00:00", 35, 600)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
    synth = synthesize(spec, site, ts, seed=4)
    res = split_search(synth.dataset, synth.ghi_clear, mesh, params, [synth.clear_true], (35,))
    assert abs(res.omegas[0].estimated_pnom - 8000.0) / 8000.0 < 1e-9


def test_omega_roundtrip(tmp_path, clear_scene, site, mesh, params):
    synth = clear_scene[0]
    res = identify(synth.dataset, synth.ghi_clear, params, by_splits(45))
    path = tmp_path / "omega.json"
    save_omegas(res, path)
    loaded = load_omegas(path, mesh)
    assert len(loaded) == len(res.omegas)
    for a, b in zip(res.omegas, loaded):
        assert a.plant_id == b.plant_id
        np.testing.assert_allclose(a.omega, b.omega, rtol=0, atol=0)
        assert a.estimated_pnom == b.estimated_pnom


@pytest.mark.parametrize("repeat, where", [
    ("plant", "plants[1]: plant 'p' listed twice"),
    ("orientation", "plants[0].coefficients[1]: orientation (0.0, 0.0) listed twice"),
])
def test_load_omegas_names_a_repeated_entry(tmp_path, mesh, repeat, where):
    """A second entry for a plant or for one of its orientations would
    overwrite the first; it is an InputError naming the file and the entry."""
    zenith = {"tilt_deg": 0.0, "azimuth_deg": 0.0, "omega_m2": 1.0}
    entry = {"plant_id": "p", "coefficients": [zenith], "estimated_pnom_w": 942.0}
    plants = [entry, entry] if repeat == "plant" else [{**entry, "coefficients": [zenith] * 2}]
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"mesh_subdivision": 2, "plants": plants}))
    with pytest.raises(InputError) as info:
        load_omegas(path, mesh)
    assert str(info.value) == f"{path}: {where}"


def test_identify_takes_its_mesh_and_splits_from_the_settings(clear_scene, params):
    """The result's mesh is ``generate_mesh(cfg.subdivision)`` and its split
    table lists each length once: the settings refuse a repeated one."""
    synth = clear_scene[0]
    with pytest.raises(SettingError, match="split_candidates"):
        by_splits(45, 45, 15)
    cfg = OrientationConfig(subdivision=1, split_candidates=(45, 15))
    res = identify(synth.dataset, synth.ghi_clear, params, cfg)
    assert res.mesh == generate_mesh(1)
    assert all(len(oc.omega) == len(res.mesh) for oc in res.omegas)
    assert res.report.split_days == (45, 15)


@pytest.fixture(scope="module")
def omega_file(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "omega.json"


@given(st.data())
def test_omega_roundtrip_is_exact(omega_file, mesh, data):
    """Any sparse non-negative coefficients come back bit for bit."""
    coefficient = st.one_of(
        st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-300), st.sampled_from([1e6, 5e-324])
    )
    omegas = tuple(
        OmegaCoefficients(
            f"p{i}",
            data.draw(arrays(np.float64, len(mesh), elements=coefficient)),
            data.draw(st.floats(1e-6, 1e9)),
        )
        for i in range(data.draw(st.integers(1, 3)))
    )
    save_omegas(IdentificationResult(omegas, mesh, SplitReport((45,), (0.1,), 45)), omega_file)
    loaded = load_omegas(omega_file, mesh)
    assert [oc.plant_id for oc in loaded] == [oc.plant_id for oc in omegas]
    for a, b in zip(omegas, loaded):
        np.testing.assert_array_equal(b.omega, a.omega)
        assert b.estimated_pnom == a.estimated_pnom


def test_identify_refuses_all_zero_coefficients(site, mesh, params):
    ts = make_timestamps("2015-05-01T00:00:00", 7, 600)
    sp = sun_positions(ts, site)
    dead = PlantSeries("dead", ts, np.zeros(len(ts)), np.full(len(ts), 15.0))
    dataset = AlignedDataset(ts, (dead,), site)
    with pytest.raises(
        InsufficientDataError, match="dead: identification left every orientation at zero"
    ):
        split_search(dataset, clearsky_ghi(sp, ts, site), mesh, params, [sp.daytime], (7,))


def test_split_search_names_a_plant_without_a_fold_to_fit(site, mesh, params):
    """A clear mask one sample short of a fit in the first fold and empty in the second."""
    ts = make_timestamps("2015-05-01T00:00:00", 14, 600)
    sp = sun_positions(ts, site)
    plant = PlantSeries("sparse", ts, np.full(len(ts), 1000.0), np.full(len(ts), 15.0))
    n_min = max(len(mesh), orientation.MIN_FIT_SAMPLES)
    mask = sp.daytime & (np.cumsum(sp.daytime) < n_min)
    dataset = AlignedDataset(ts, (plant,), site)
    with pytest.raises(InsufficientDataError, match="sparse: no fold has enough clear samples"):
        split_search(dataset, clearsky_ghi(sp, ts, site), mesh, params, [mask], (7,))


def test_identify_builds_one_proxy_on_daytime_rows(clear_scene, mesh, params, monkeypatch):
    """Seed, refinement and split search share one proxy of the daytime rows.

    It is built a block of at most ceil(K / PROXY_BLOCKS) planes at a
    time, the blocks in mesh order, each chain on the daytime stamps. No
    other row is read: clear-sky GHI at night changes no coefficient and
    no split score.
    """
    synth, sp, _, _, _, _ = clear_scene
    blocks_seen, rows_seen = [], []
    chain, stage = orientation.forward_chain, orientation.proxy_matrix

    def recording_chain(sp_, timestamps, t_ambient, planes, *args):
        blocks_seen.append((timestamps, list(planes)))
        return chain(sp_, timestamps, t_ambient, planes, *args)

    def recording_stage(ghi, *args):
        rows_seen.append(len(ghi))
        return stage(ghi, *args)

    monkeypatch.setattr(orientation, "forward_chain", recording_chain)
    monkeypatch.setattr(orientation, "proxy_matrix", recording_stage)
    res = identify(synth.dataset, synth.ghi_clear, params, by_splits(45, 15))
    block = -(-len(mesh) // orientation.PROXY_BLOCKS)  # 8 of the 62 level-2 planes
    assert len(blocks_seen) == 8
    for stamps, planes in blocks_seen:
        np.testing.assert_array_equal(stamps, synth.dataset.timestamps[sp.daytime])
        assert 1 <= len(planes) <= block
    assert [o for _, planes in blocks_seen for o in planes] == list(mesh.orientations)
    assert rows_seen == [int(sp.daytime.sum())] * len(blocks_seen)

    garbage = synth.ghi_clear.copy()
    garbage[~sp.daytime] = np.nan
    again = identify(synth.dataset, garbage, params, by_splits(45, 15))
    assert again.report == res.report
    for a, b in zip(res.omegas, again.omegas):
        np.testing.assert_array_equal(a.omega, b.omega)


def test_identify_models_the_rows_estimate_solves(site, mesh, params, monkeypatch):
    """A sun-up step whose given clear sky is 0 is not fitted, as ``estimate``
    does not solve it: the proxy holds the sun-up steps with clear-sky > 0,
    and blanking the power of the others changes no coefficient and no
    split score.

    The scene is ``clear_scene``'s plants over 35 days (seed 10), one on
    which fitting the zero-sky steps' power moves both plants' ratings.
    """
    spec = SyntheticSpec(plants=(
        PlantSpec("single", ((mesh_vertex(mesh, 26.57, 180.0), 8000.0),)),
        PlantSpec("ew", ((mesh_vertex(mesh, 43.65, 94.39), 4000.0),
                         (mesh_vertex(mesh, 43.65, 265.61), 4500.0))),
    ))
    ts = make_timestamps("2015-05-01T00:00:00", 35, 600)
    synth = synthesize(spec, site, ts, seed=10)
    sp = sun_positions(ts, site)
    clear = synth.ghi_clear.copy()
    zero = np.flatnonzero(sp.daytime)[::3]
    clear[zero] = 0.0
    stamps_seen = []
    chain = orientation.forward_chain

    def recording(sp_, timestamps, *args):
        stamps_seen.append(timestamps)
        return chain(sp_, timestamps, *args)

    monkeypatch.setattr(orientation, "forward_chain", recording)
    res = identify(synth.dataset, clear, params, by_splits(35, 15))
    assert stamps_seen
    for stamps in stamps_seen:
        np.testing.assert_array_equal(stamps, ts[sp.daytime & (clear > 0)])

    missing = np.zeros((synth.dataset.n_steps, synth.dataset.n_plants), dtype=bool)
    missing[zero] = True
    blanked = identify(with_missing(synth.dataset, missing), clear, params, by_splits(35, 15))
    assert blanked.report == res.report
    for a, b in zip(res.omegas, blanked.omegas):
        np.testing.assert_array_equal(a.omega, b.omega)
        assert a.estimated_pnom == b.estimated_pnom


def test_identify_bins_the_daytime_sun_positions_once(clear_scene, params, monkeypatch):
    """Every plant's seed and refinement share one sun-bin key per daytime step."""
    synth, sp, _, _, _, _ = clear_scene
    calls = []

    def counting(sp_, bin_deg):
        calls.append((sp_, bin_deg))
        return sun_bin_keys(sp_, bin_deg)

    monkeypatch.setattr(orientation, "sun_bin_keys", counting)
    cfg = OrientationConfig(split_candidates=(45,), clear_bin_deg=4.0)
    identify(synth.dataset, synth.ghi_clear, params, cfg)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][0].zenith, sp.zenith[sp.daytime])
    np.testing.assert_array_equal(calls[0][0].azimuth, sp.azimuth[sp.daytime])
    assert calls[0][1] == 4.0


@pytest.mark.parametrize("level, n_blocks, block", [(1, 6, 3), (2, 8, 8)])
def test_block_built_proxy_equals_one_chain(clear_scene, params, level, n_blocks, block):
    """The clear-sky proxy built a block of planes at a time, bit for bit."""
    synth, sp, _, _, _, _ = clear_scene
    dataset, mesh = synth.dataset, generate_mesh(level)
    assert -(-len(mesh) // orientation.PROXY_BLOCKS) == block
    assert -(-len(mesh) // block) == n_blocks
    day = np.flatnonzero(sp.daytime)
    sun = SolarPosition(azimuth=sp.azimuth[day], zenith=sp.zenith[day])
    got = orientation._clear_proxy(dataset, sun, synth.ghi_clear, mesh, params, day)
    whole = forward_chain(
        sun, dataset.timestamps[day], dataset.mean_temperature()[day],
        mesh.orientations, params, dataset.site,
    )
    want = proxy_matrix(synth.ghi_clear[day], whole).values
    assert got.shape == (len(day), len(mesh)) and got.flags.c_contiguous
    assert_same_bits(got, want)


def test_clear_proxy_holds_one_block_of_geometry(clear_scene, params):
    """The traced peak of building the level-3 proxy stays under 2x its size.

    A chain over the whole mesh holds (K, T) incidence cosines and IAM
    factors beside the proxy: 3.2x the proxy's bytes on this scene (232
    planes, 4,090 daytime rows). Blocks of 29 planes read 1.6x.
    """
    synth, sp, _, _, _, _ = clear_scene
    mesh = generate_mesh(3)
    day = np.flatnonzero(sp.daytime)
    sun = SolarPosition(azimuth=sp.azimuth[day], zenith=sp.zenith[day])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pr = orientation._clear_proxy(synth.dataset, sun, synth.ghi_clear, mesh, params, day)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pr.shape == (len(day), 232)
    assert peak - before < 2.0 * pr.nbytes
