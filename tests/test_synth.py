"""Synthetic generator: determinism, forward-model identity, gates and caps."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from pvghi import InputError, Orientation, clearsky_ghi, sun_positions
from pvghi.data import SettingError
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
        synth.ghi_true,
        forward_chain(sp, ts, synth.dataset.mean_temperature(), [south], params, site),
    ).values
    expected = pr[:, 0] * (8000.0 / (params.k2 * params.i_stc))
    np.testing.assert_allclose(synth.dataset.plants[0].power, expected, rtol=1e-12)


def test_night_is_exactly_zero(site, mesh):
    """True GHI and every plant's power, noisy, shaded, curtailed or on a
    vertical plane, are exactly +0.0 while the sun is down: the clear sky
    is 0 there and the chain gives +0.0 at GHI 0, with no night rule."""
    south = mesh_vertex(mesh, 26.57, 180.0)
    wall = Orientation(tilt=np.pi / 2, azimuth=np.deg2rad(250.0))
    ts = make_timestamps("2015-06-01T00:00:00", 3, 600)
    spec = SyntheticSpec(plants=(
        PlantSpec("noisy", ((south, 8000.0),), noise_rel=0.3, curtailment_w=2000.0),
        PlantSpec("shaded", ((south, 4000.0), (wall, 3000.0)),
                  shadows=(ShadowSector(0.0, 360.0, 0.0, 180.0),), noise_rel=0.05),
    ), temperature_mean=20.0, temperature_amplitude=40.0)
    synth = synthesize(spec, site, ts, seed=5)
    night = ~sun_positions(ts, site).daytime
    assert night.sum() > 100
    for values in (synth.ghi_true, *(p.power for p in synth.dataset.plants)):
        assert (values[night] == 0.0).all() and not np.signbit(values[night]).any()


@pytest.mark.parametrize("field", ["temperature_mean", "temperature_amplitude"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_temperature_not_finite_is_a_setting_error(mesh, field, value):
    """A NaN mean once gave a NaN temperature on every step and NaN power on
    most, without an error; an infinite amplitude was named as a plant's."""
    with pytest.raises(SettingError) as err:
        SyntheticSpec(plants=(_spec(mesh),), **{field: value})
    assert err.value.field == field


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


def test_synthesize_computes_the_sun_positions_once(site, mesh, monkeypatch):
    """The clear-sky curve is evaluated on the sun positions of the power chain."""
    calls = []

    def counting(*args):
        calls.append(args)
        return sun_positions(*args)

    monkeypatch.setattr("pvghi.solar.sun_positions", counting)
    monkeypatch.setattr("pvghi.synth.sun_positions", counting)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((mesh_vertex(mesh, 26.57, 180.0), 8000.0),)),))
    synthesize(spec, site, make_timestamps("2015-06-01T00:00:00", 1, 600), seed=0)
    assert len(calls) == 1


def test_synthesize_uses_the_site_linke_turbidity(site, mesh):
    clean = replace(site, linke_turbidity=2.5)
    ts = make_timestamps("2015-06-01T00:00:00", 1, 600)
    spec = SyntheticSpec(plants=(PlantSpec("p", ((mesh_vertex(mesh, 26.57, 180.0), 8000.0),)),))
    data = synthesize(spec, clean, ts, seed=0)
    sp = sun_positions(ts, site)
    np.testing.assert_array_equal(data.ghi_clear, clearsky_ghi(sp, ts, clean))
    assert (data.ghi_clear > clearsky_ghi(sp, ts, site))[sp.daytime].all()
    assert data.dataset.site == clean


def test_a_repeated_plant_id_is_an_input_error(site, mesh):
    p = PlantSpec("p", ((mesh_vertex(mesh, 26.57, 180.0), 8000.0),))
    with pytest.raises(InputError, match="plant 'p' listed twice"):
        synthesize(
            SyntheticSpec(plants=(p, p)), site, make_timestamps("2015-06-01T00:00:00", 1, 600),
            seed=0,
        )


def test_an_empty_grid_is_an_input_error(site, mesh):
    spec = SyntheticSpec(plants=(PlantSpec("p", ((mesh_vertex(mesh, 26.57, 180.0), 8000.0),)),))
    with pytest.raises(InputError, match="timestamps: empty grid"):
        synthesize(spec, site, np.array([], dtype="datetime64[s]"), seed=0)


def _spec(mesh, **plant):
    return PlantSpec(**{"plant_id": "p", "fields": ((mesh_vertex(mesh, 26.57, 180.0), 8000.0),),
                        **plant})


@pytest.mark.parametrize(
    "field, plant",
    [
        ("fields", {"fields": ((None, 8000.0), (None, np.nan))}),
        ("fields", {"fields": ((None, np.inf),)}),
        ("fields", {"fields": ((None, 0.0),)}),
        ("fields", {"fields": ()}),
        ("noise_rel", {"noise_rel": np.nan}),
        ("noise_rel", {"noise_rel": -0.5}),
        ("noise_rel", {"noise_rel": np.inf}),
        ("curtailment_w", {"curtailment_w": np.nan}),
        ("curtailment_w", {"curtailment_w": -1.0}),
    ],
    ids=["rating-nan", "rating-inf", "rating-0", "no-field", "noise-nan", "noise-negative", "noise-inf",
         "curtailment-nan", "curtailment-negative"],
)
def test_a_bad_plant_spec_is_a_setting_error(mesh, field, plant):
    """A NaN fails the checks too: each is a chained comparison."""
    with pytest.raises(SettingError) as err:
        _spec(mesh, **plant)
    assert err.value.field == field


@pytest.mark.parametrize(
    "field, sector",
    [
        ("azimuth_max_deg", {"azimuth_min_deg": 150.0, "azimuth_max_deg": 80.0}),
        ("azimuth_min_deg", {"azimuth_min_deg": np.nan, "azimuth_max_deg": 80.0}),
        ("azimuth_max_deg", {"azimuth_min_deg": 80.0, "azimuth_max_deg": np.nan}),
        ("zenith_max_deg", {"zenith_min_deg": 60.0, "zenith_max_deg": 30.0}),
        ("zenith_min_deg", {"zenith_min_deg": np.nan}),
        ("attenuation", {"attenuation": np.nan}),
        ("attenuation", {"attenuation": 1.5}),
        ("day_max", {"day_min": 200, "day_max": 100}),
        ("day_min", {"day_min": np.nan}),
    ],
    ids=["azimuth-reversed", "azimuth-min-nan", "azimuth-max-nan", "zenith-reversed",
         "zenith-nan", "attenuation-nan", "attenuation-1.5", "days-reversed", "day-nan"],
)
def test_a_bad_shadow_sector_is_a_setting_error(field, sector):
    """A reversed range would shade nothing; it is refused rather than ignored."""
    with pytest.raises(SettingError) as err:
        ShadowSector(**{"azimuth_min_deg": 80.0, "azimuth_max_deg": 150.0, **sector})
    assert err.value.field == field


@pytest.mark.parametrize(
    "field, cloud",
    [
        ("sigma", {"sigma": np.nan}),
        ("sigma", {"sigma": -0.1}),
        ("sigma", {"sigma": np.inf}),
        ("ar_coeff", {"ar_coeff": np.nan}),
        ("mean_logit", {"mean_logit": -np.inf}),
        ("gain", {"gain": np.nan}),
        ("offset", {"offset": np.inf}),
    ],
    ids=["sigma-nan", "sigma-negative", "sigma-inf", "ar-nan", "mean-inf", "gain-nan",
         "offset-inf"],
)
def test_a_bad_cloud_model_is_a_setting_error(field, cloud):
    """A NaN sigma once gave a NaN true GHI on every daytime step, without an error."""
    with pytest.raises(SettingError) as err:
        CloudModel(**cloud)
    assert err.value.field == field


@pytest.mark.parametrize(
    "start, days, step, named",
    [
        ("2015-06-01T00:00:00", 1e20, 600, "days: 1e+20 from 2015-06-01T00:00:00 runs past"),
        ("2015-06-01T00:00:00", np.nan, 600, "days: nan holds no 600 s sample"),
        ("2015-06-01T00:00:00", np.inf, 600, "days: inf from 2015-06-01T00:00:00 runs past"),
        ("2015-06-01T00:00:00", -1, 600, "days: -1 holds no 600 s sample"),
        ("2015-06-01T00:00:00", 1, 0, "step_seconds: must be a positive whole number, got 0"),
        ("yesterday", np.nan, 0, "start: bad timestamp 'yesterday'"),
        ("9999-12-31T00:00:00", 2, 600, "days: 2 from 9999-12-31T00:00:00 runs past"),
    ],
    ids=["huge", "nan", "inf", "negative", "step-0", "bad-start-first", "past-9999"],
)
def test_make_timestamps_names_a_bad_grid(start, days, step, named):
    """Each used to be a numpy or Python error, or an empty or unreadable grid."""
    with pytest.raises(InputError) as err:
        make_timestamps(start, days, step)
    assert str(err.value).startswith(named), err.value


def test_make_timestamps_reaches_the_last_readable_stamp():
    ts = make_timestamps("9999-12-31T00:00:00", 1, 600)
    assert len(ts) == 144 and str(ts[-1]) == "9999-12-31T23:50:00"


def test_a_curtailment_of_zero_and_noise_of_zero_are_kept(site, mesh):
    """The bounds themselves are valid: a switched-off plant, a noiseless one."""
    ts = make_timestamps("2015-06-01T00:00:00", 1, 600)
    data = synthesize(SyntheticSpec(plants=(_spec(mesh, curtailment_w=0.0),)), site, ts, seed=0)
    assert (data.dataset.plants[0].power == 0.0).all()
    ShadowSector(azimuth_min_deg=80.0, azimuth_max_deg=80.0, attenuation=0.0)
