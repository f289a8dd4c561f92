"""Synthetic generator: determinism, forward-model identity, gates and caps."""

import warnings

import numpy as np

from pvghi import sun_positions
from pvghi.proxy import proxy_matrix
from pvghi.synth import (
    CloudModel,
    PlantSpec,
    ShadowSector,
    SyntheticSpec,
    make_timestamps,
    synthesize,
)
from conftest import mesh_vertex


def test_identity_configuration_matches_forward_model(site, mesh, params):
    """Attenuation pinned at one, no noise: power is the exact chain output."""
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 2, 600)
    cloud = CloudModel(mean_logit=30.0, sigma=0.0)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),), cloud=cloud)
    synth = synthesize(spec, site, ts, seed=0)
    sp = sun_positions(ts, site)
    assert np.array_equal(synth.ghi_true[sp.daytime], synth.ghi_clear[sp.daytime])
    pr = proxy_matrix(
        synth.ghi_true, sp, ts, synth.dataset.mean_temperature(), [south], params,
        site,
    ).values
    expected = pr[:, 0] * (8000.0 / (params.k2 * params.i_stc))
    np.testing.assert_allclose(synth.dataset.plants[0].power, expected, rtol=1e-12)


def test_seed_reproducibility(site, mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 3, 600)
    spec = SyntheticSpec(
        plants=(PlantSpec("p", ((south, 8000.0),), noise_rel=0.02),)
    )
    a = synthesize(spec, site, ts, seed=42)
    b = synthesize(spec, site, ts, seed=42)
    c = synthesize(spec, site, ts, seed=43)
    assert np.array_equal(a.ghi_true, b.ghi_true)
    assert np.array_equal(a.dataset.plants[0].power, b.dataset.plants[0].power)
    assert not np.array_equal(a.ghi_true, c.ghi_true)


def test_changing_seed_keeps_deterministic_fields(site, mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 2, 600)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
    a = synthesize(spec, site, ts, seed=1)
    b = synthesize(spec, site, ts, seed=2)
    assert np.array_equal(a.ghi_clear, b.ghi_clear)
    assert np.array_equal(
        a.dataset.plants[0].temperature, b.dataset.plants[0].temperature
    )


def test_curtailment_cap(site, mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 3, 600)
    cap = 0.8 * 8000.0
    spec = SyntheticSpec(
        plants=(PlantSpec("p", ((south, 8000.0),), curtailment_w=cap),)
    )
    synth = synthesize(spec, site, ts, seed=7)
    assert np.all(synth.dataset.plants[0].power <= cap)


def test_shadow_sector_applies(site, mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 3, 600)
    sector = ShadowSector(
        azimuth_min_deg=0.0, azimuth_max_deg=360.0, attenuation=0.25
    )
    base = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
    shaded = SyntheticSpec(
        plants=(PlantSpec("p", ((south, 8000.0),), shadows=(sector,)),)
    )
    a = synthesize(base, site, ts, seed=3)
    b = synthesize(shaded, site, ts, seed=3)
    sp = sun_positions(ts, site)
    day = sp.daytime & (a.dataset.plants[0].power > 0)
    np.testing.assert_allclose(
        b.dataset.plants[0].power[day], 0.25 * a.dataset.plants[0].power[day]
    )


def test_clear_mask_matches_attenuation(site, mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 5, 600)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
    synth = synthesize(spec, site, ts, seed=9)
    sp = sun_positions(ts, site)
    np.testing.assert_array_equal(
        synth.clear_true, (synth.attenuation >= 1.0) & sp.daytime
    )


def test_noise_applied_and_nonnegative(site, mesh):
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-06-01T00:00:00", 3, 600)
    clean = SyntheticSpec(plants=(PlantSpec("p", ((south, 8000.0),)),))
    noisy = SyntheticSpec(
        plants=(PlantSpec("p", ((south, 8000.0),), noise_rel=0.05),)
    )
    a = synthesize(clean, site, ts, seed=4)
    b = synthesize(noisy, site, ts, seed=4)
    assert not np.array_equal(a.dataset.plants[0].power, b.dataset.plants[0].power)
    assert np.all(b.dataset.plants[0].power >= 0.0)


def test_start_is_read_like_a_csv_timestamp():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        naive = make_timestamps("2015-05-01T00:00:00", 1, 600)
        zulu = make_timestamps("2015-05-01T00:00:00Z", 1, 600)
        utc = make_timestamps("2015-05-01T00:00:00+00:00", 1, 600)
        plus2 = make_timestamps("2015-05-01T00:00:00+02:00", 1, 600)
    step = np.timedelta64(600, "s")
    assert naive.dtype == np.dtype("datetime64[s]")
    np.testing.assert_array_equal(
        naive, np.datetime64("2015-05-01T00:00:00", "s") + np.arange(144) * step
    )
    np.testing.assert_array_equal(zulu, naive)
    np.testing.assert_array_equal(utc, naive)
    np.testing.assert_array_equal(plus2, naive - np.timedelta64(2, "h"))
