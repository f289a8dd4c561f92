"""Mesh generation, clear-sky selection and coefficient identification."""

from dataclasses import replace

import numpy as np
import pytest

from pvghi import (
    InputError,
    Site,
    estimate_nominal_power,
    fit_gmm2,
    generate_mesh,
    identify_omega,
    clearsky_ghi,
    select_clear,
    sun_positions,
)
from pvghi import orientation
from pvghi.data import AlignedDataset, PlantSeries
from pvghi.orientation import (
    InsufficientDataError,
    identify_with_splits,
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


class TestGmm:
    def test_separated_modes_recovered(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.normal(0, 1, 500), rng.normal(10, 1, 500)])
        fit = fit_gmm2(x)
        assert not fit.degenerate
        assert abs(fit.mu1 - 0.0) < 0.3
        assert abs(fit.mu2 - 10.0) < 0.3
        assert fit.mu1 <= fit.mu2

    def test_identical_samples_degenerate(self):
        fit = fit_gmm2(np.full(50, 3.7))
        assert fit.degenerate
        assert fit.w1 == 1.0
        assert fit.mu1 == 3.7

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_gmm2(np.arange(10))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.normal(0, 1, 100), rng.normal(5, 2, 100)])
        a, b = fit_gmm2(x), fit_gmm2(x)
        assert a == b


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
        history = []
        identify_omega(plant.power[mask], pr_clear[mask], loss_history=history)
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

    def test_seasonal_shading_prefers_short_split(self, season_scene, site, mesh, params):
        south, ts, sp, shadow = season_scene
        spec = SyntheticSpec(plants=(PlantSpec("sh", ((south, 8000.0),), shadows=shadow),))
        synth = synthesize(spec, site, ts, seed=5)
        masks = [select_clear(p, sp) for p in synth.dataset.plants]
        res = identify_with_splits(
            synth.dataset, sp, synth.ghi_clear, mesh, params, masks,
            split_days=(300, 75),
        )
        table = dict(zip(res.report.split_days, res.report.pv_rmse))
        assert table[75] < table[300]
        assert res.report.chosen_split == 75

    def test_unshaded_ties_to_longest(self, season_scene, site, mesh, params):
        south, ts, sp, _ = season_scene
        spec = SyntheticSpec(plants=(PlantSpec("cl", ((south, 8000.0),)),))
        synth = synthesize(spec, site, ts, seed=5)
        masks = [select_clear(p, sp) for p in synth.dataset.plants]
        res = identify_with_splits(
            synth.dataset, sp, synth.ghi_clear, mesh, params, masks,
            split_days=(300, 75),
        )
        assert res.report.chosen_split == 300

    def test_short_dataset_rejected(self, site, mesh, params):
        south = mesh_vertex(mesh, 26.57, 180.0)
        ts = make_timestamps("2015-05-01T00:00:00", 30, 1800)
        spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
        synth = synthesize(spec, site, ts, seed=1)
        sp = sun_positions(ts, site)
        masks = [np.ones(len(ts), dtype=bool)]
        with pytest.raises(InputError, match="shorter than every candidate"):
            identify_with_splits(
                synth.dataset, sp, synth.ghi_clear, mesh, params, masks,
                split_days=(91,),
            )


def test_identify_uses_site_pressure(mesh, params):
    """Identification fits the chain that synthesis and estimation evaluate.

    At 1500 m a sea-level chain misses this noise-free rating by 0.8 %.
    """
    site = Site(latitude=47.5, longitude=7.5, altitude=1500.0)
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-05-01T00:00:00", 35, 600)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
    synth = synthesize(spec, site, ts, seed=4)
    res = identify_with_splits(
        synth.dataset, sun_positions(ts, site), synth.ghi_clear, mesh, params,
        [synth.clear_true], split_days=(35,),
    )
    assert abs(res.omegas[0].estimated_pnom - 8000.0) / 8000.0 < 1e-9


def test_omega_roundtrip(tmp_path, clear_scene, site, mesh, params):
    synth, sp, _, _, _, _ = clear_scene
    masks = [select_clear(p, sp) for p in synth.dataset.plants]
    res = identify_with_splits(
        synth.dataset, sp, synth.ghi_clear, mesh, params, masks, split_days=(45,),
    )
    path = tmp_path / "omega.json"
    save_omegas(res, path)
    loaded = load_omegas(path, mesh)
    assert len(loaded) == len(res.omegas)
    for a, b in zip(res.omegas, loaded):
        assert a.plant_id == b.plant_id
        np.testing.assert_allclose(a.omega, b.omega, rtol=0, atol=0)
        assert a.estimated_pnom == b.estimated_pnom


def test_identify_refuses_all_zero_coefficients(site, mesh, params):
    ts = make_timestamps("2015-05-01T00:00:00", 7, 600)
    sp = sun_positions(ts, site)
    dead = PlantSeries("dead", ts, np.zeros(len(ts)), np.full(len(ts), 15.0))
    dataset = AlignedDataset(ts, (dead,), site)
    with pytest.raises(InsufficientDataError, match="dead"):
        identify_with_splits(
            dataset, sp, clearsky_ghi(ts, site), mesh, params, [sp.daytime],
            split_days=(7,),
        )


def test_identify_builds_the_proxy_on_clear_finite_rows(
    clear_scene, site, mesh, params, monkeypatch
):
    """The proxy covers exactly the union of the clear samples with finite power.

    No other row is read: clear-sky GHI outside that union changes no
    coefficient and no split score.
    """
    synth, sp, _, _, _, _ = clear_scene
    masks = [select_clear(p, sp) for p in synth.dataset.plants]
    single, ew = synth.dataset.plants
    power = single.power.copy()
    power[::7] = np.nan
    dataset = AlignedDataset(synth.dataset.timestamps, (replace(single, power=power), ew), site)
    union = (masks[0] & np.isfinite(power)) | (masks[1] & np.isfinite(ew.power))
    assert 0 < union.sum() < (masks[0] | masks[1]).sum()

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
    res = identify_with_splits(
        dataset, sp, synth.ghi_clear, mesh, params, masks, split_days=(45, 15),
    )
    assert len(stamps_seen) == 1
    np.testing.assert_array_equal(stamps_seen[0], synth.dataset.timestamps[union])
    assert rows_seen == [int(union.sum())]

    garbage = synth.ghi_clear.copy()
    garbage[~union] = np.nan
    again = identify_with_splits(
        dataset, sp, garbage, mesh, params, masks, split_days=(45, 15),
    )
    assert again.report == res.report
    for a, b in zip(res.omegas, again.omegas):
        np.testing.assert_array_equal(a.omega, b.omega)
