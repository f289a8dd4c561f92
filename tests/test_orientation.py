"""Mesh generation, clear-sky selection and coefficient identification."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from pvghi.data import AlignedDataset, PlantSeries
from pvghi.orientation import (
    IdentificationResult,
    InsufficientDataError,
    OmegaCoefficients,
    SplitReport,
    load_omegas,
    save_omegas,
)
from pvghi.proxy import forward_chain, proxy_matrix
from pvghi.synth import (
    CloudModel,
    PlantSpec,
    ShadowSector,
    SyntheticSpec,
    make_timestamps,
    synthesize,
)
from conftest import mesh_vertex
from test_acceptance import standard_fields
from test_solver import with_missing


def daytime_proxy(dataset, ghi_clear, mesh, params):
    """The sun positions, daytime rows and clear-sky proxy ``identify`` builds."""
    sp = sun_positions(dataset.timestamps, dataset.site)
    day = np.flatnonzero(sp.daytime)
    return sp, day, orientation._clear_proxy(dataset, sp, ghi_clear, mesh, params, day)


def refined_masks(dataset, ghi_clear, mesh, params):
    """Seed and refined clear masks over all timesteps, as ``identify`` makes them."""
    sp, day, pr = daytime_proxy(dataset, ghi_clear, mesh, params)
    seeds = [select_clear(p, sp) for p in dataset.plants]
    refined = []
    for mask in orientation._refine_clear(
        dataset, sp, pr, mesh, params, [seed[day] for seed in seeds], 5.0
    ):
        full = np.zeros(dataset.n_steps, dtype=bool)
        full[day] = mask
        refined.append(full)
    return seeds, refined


def split_search(dataset, ghi_clear, mesh, params, masks, split_days):
    """The split search alone, on clear masks over all timesteps."""
    _, day, pr = daytime_proxy(dataset, ghi_clear, mesh, params)
    return orientation._split_search(
        dataset, day, pr, mesh, params, [m[day] for m in masks], list(split_days)
    )


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
            mask = select_clear(plant, sp)
            recall = (mask & truly).sum() / truly.sum()
            precision = (mask & truly).sum() / mask.sum()
            assert recall >= 0.45
            assert precision >= 0.85

    def test_night_never_clear(self, clear_scene):
        synth, sp, _, _, _, _ = clear_scene
        mask = select_clear(synth.dataset.plants[0], sp)
        assert not mask[~sp.daytime].any()

    def test_fully_clear_series_still_selects(self, site, mesh):
        south = mesh_vertex(mesh, 26.57, 180.0)
        ts = make_timestamps("2015-05-01T00:00:00", 45, 600)
        cloud = CloudModel(mean_logit=30.0, sigma=0.0)  # saturated: always clear
        spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),), cloud=cloud)
        synth = synthesize(spec, site, ts, seed=1)
        assert synth.clear_true[sun_positions(ts, site).daytime].all()
        sp = sun_positions(ts, site)
        mask = select_clear(synth.dataset.plants[0], sp)
        day_power = sp.daytime & (synth.dataset.plants[0].power > 0)
        assert mask.sum() / day_power.sum() >= 0.4

    def test_missing_power_never_clear(self, clear_scene, site):
        synth, sp, _, _, _, _ = clear_scene
        plant = synth.dataset.plants[0]
        power = plant.power.copy()
        power[:: 2] = np.nan
        holed = PlantSeries(plant.plant_id, plant.timestamps, power, plant.temperature)
        mask = select_clear(holed, sp)
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
        res = identify(synth.dataset, synth.ghi_clear, mesh, params, (45, 30, 15), 5.0)
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
        with pytest.raises(InsufficientDataError, match="dead"):
            identify(dataset, synth.ghi_clear, mesh, params, (45,), 5.0)

    def test_plant_too_short_for_a_mask_named(self, clear_scene, mesh, params):
        """Two days of data leave every 5-degree bin below its sample floor."""
        synth = clear_scene[0]
        single, _ = synth.dataset.plants
        power = np.full(len(single.power), np.nan)
        power[-288:] = single.power[-288:]
        late = replace(single, plant_id="late", power=power)
        dataset = AlignedDataset(synth.dataset.timestamps, (single, late), synth.dataset.site)
        with pytest.raises(InsufficientDataError, match="late"):
            identify(dataset, synth.ghi_clear, mesh, params, (45,), 5.0)


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
        mask = select_clear(plant, sp)
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
            mask = select_clear(plant, sp)
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
    def assert_meets_scipy(a, y, w, passive):
        got = orientation._weighted_nnls(a, y, w, a.T @ a, a.T @ y, passive)
        sw = np.sqrt(w)
        want = scipy_nnls(a * sw[:, None], y * sw)[0]
        assert np.all(got >= 0.0)
        f_got, f_want = (weighted_objective(a, y, w, om) for om in (got, want))
        assert abs(f_got - f_want) <= 1e-9 * f_want

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
        mask = select_clear(synth.dataset.plants[0], sp)
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
            res = identify(synth.dataset, synth.ghi_clear, mesh, params, (300, 75), 5.0)
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

    def test_short_dataset_rejected(self, site, mesh, params):
        south = mesh_vertex(mesh, 26.57, 180.0)
        ts = make_timestamps("2015-05-01T00:00:00", 30, 1800)
        spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
        synth = synthesize(spec, site, ts, seed=1)
        with pytest.raises(InputError, match="shorter than every candidate"):
            identify(synth.dataset, synth.ghi_clear, mesh, params, (91,), 5.0)


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
    res = identify(synth.dataset, synth.ghi_clear, mesh, params, (45,), 5.0)
    path = tmp_path / "omega.json"
    save_omegas(res, path)
    loaded = load_omegas(path, mesh)
    assert len(loaded) == len(res.omegas)
    for a, b in zip(res.omegas, loaded):
        assert a.plant_id == b.plant_id
        np.testing.assert_allclose(a.omega, b.omega, rtol=0, atol=0)
        assert a.estimated_pnom == b.estimated_pnom


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
    with pytest.raises(InsufficientDataError, match="dead"):
        split_search(dataset, clearsky_ghi(ts, site), mesh, params, [sp.daytime], (7,))


def test_identify_builds_one_proxy_on_daytime_rows(clear_scene, mesh, params, monkeypatch):
    """Seed, refinement and split search share one proxy of the daytime rows.

    No other row is read: clear-sky GHI at night changes no coefficient
    and no split score.
    """
    synth, sp, _, _, _, _ = clear_scene
    stamps_seen, rows_seen = [], []
    chain, stage = orientation.forward_chain, orientation.proxy_matrix

    def recording_chain(sp_, timestamps, *args):
        stamps_seen.append(timestamps)
        return chain(sp_, timestamps, *args)

    def recording_stage(ghi, *args):
        rows_seen.append(len(ghi))
        return stage(ghi, *args)

    monkeypatch.setattr(orientation, "forward_chain", recording_chain)
    monkeypatch.setattr(orientation, "proxy_matrix", recording_stage)
    res = identify(synth.dataset, synth.ghi_clear, mesh, params, (45, 15), 5.0)
    assert len(stamps_seen) == 1
    np.testing.assert_array_equal(stamps_seen[0], synth.dataset.timestamps[sp.daytime])
    assert rows_seen == [int(sp.daytime.sum())]

    garbage = synth.ghi_clear.copy()
    garbage[~sp.daytime] = np.nan
    again = identify(synth.dataset, garbage, mesh, params, (45, 15), 5.0)
    assert again.report == res.report
    for a, b in zip(res.omegas, again.omegas):
        np.testing.assert_array_equal(a.omega, b.omega)
