"""Sun position against an independent ephemeris, plus the irradiance helpers.

The cross-check oracle is the Plataforma Solar de Almeria algorithm
(Blanco-Muriel et al. 2001), transcribed here from its published
pseudocode, including the parallax correction. Both routines are
geometric (no refraction), so they are directly comparable.
"""

import numpy as np
import pytest

from pvghi import (
    InputError,
    Orientation,
    Site,
    angle_of_incidence,
    clearsky_ghi,
    extraterrestrial_normal,
    relative_airmass,
    sun_positions,
)
from pvghi.solar import SolarPosition, day_of_year


def psa_position(ts, lat_deg, lon_deg):
    """Independent solar position oracle; returns (azimuth, zenith) in rad."""
    dt = ts.astype("datetime64[s]").astype("object")
    year, month, day = dt.year, dt.month, dt.day
    hours = dt.hour + dt.minute / 60.0 + dt.second / 3600.0

    # Julian date with C-style truncating integer division
    li1 = int((month - 14) / 12.0)
    li2 = (
        (1461 * (year + 4800 + li1)) // 4
        + (367 * (month - 2 - 12 * li1)) // 12
        - (3 * ((year + 4900 + li1) // 100)) // 4
        + day
        - 32075
    )
    jd = li2 - 0.5 + hours / 24.0
    elapsed = jd - 2451545.0

    omega = 2.1429 - 0.0010394594 * elapsed
    mean_long = 4.8950630 + 0.017202791698 * elapsed
    anomaly = 6.2400600 + 0.0172019699 * elapsed
    ecl_long = (
        mean_long
        + 0.03341607 * np.sin(anomaly)
        + 0.00034894 * np.sin(2 * anomaly)
        - 0.0001134
        - 0.0000203 * np.sin(omega)
    )
    ecl_obl = 0.4090928 - 6.2140e-9 * elapsed + 0.0000396 * np.cos(omega)

    sin_el = np.sin(ecl_long)
    ra = np.arctan2(np.cos(ecl_obl) * sin_el, np.cos(ecl_long))
    if ra < 0:
        ra += 2 * np.pi
    decl = np.arcsin(np.sin(ecl_obl) * sin_el)

    gmst = 6.6974243242 + 0.0657098283 * elapsed + hours
    lmst = np.deg2rad(gmst * 15.0 + lon_deg)
    ha = lmst - ra
    lat = np.deg2rad(lat_deg)

    zenith = np.arccos(
        np.clip(np.cos(lat) * np.cos(ha) * np.cos(decl) + np.sin(decl) * np.sin(lat), -1, 1)
    )
    azimuth = np.arctan2(-np.sin(ha), np.tan(decl) * np.cos(lat) - np.sin(lat) * np.cos(ha))
    if azimuth < 0:
        azimuth += 2 * np.pi
    # parallax correction (earth radius / astronomical unit)
    zenith += (6371.01 / 149597890.0) * np.sin(zenith)
    return azimuth, zenith


def angular_separation(az1, zen1, az2, zen2):
    """Great-circle angle between two directions given as (azimuth, zenith)."""
    cosd = np.cos(zen1) * np.cos(zen2) + np.sin(zen1) * np.sin(zen2) * np.cos(az1 - az2)
    return np.arccos(np.clip(cosd, -1, 1))


def test_position_matches_independent_ephemeris():
    rng = np.random.default_rng(20)
    start = np.datetime64("1990-01-01T00:00:00")
    span = np.datetime64("2030-12-31T00:00:00") - start
    worst = 0.0
    for _ in range(400):
        ts = start + np.timedelta64(int(rng.integers(0, span.astype(int))), "s")
        lat = float(rng.uniform(-65, 65))
        lon = float(rng.uniform(-180, 180))
        site = Site(latitude=lat, longitude=lon)
        sp = sun_positions(np.array([ts]), site)
        az_o, zen_o = psa_position(ts, lat, lon)
        sep = np.rad2deg(
            angular_separation(float(sp.azimuth[0]), float(sp.zenith[0]), az_o, zen_o)
        )
        worst = max(worst, float(sep))
    assert worst < 0.2, f"worst separation {worst:.3f} deg"


def test_equator_equinox_noon_overhead():
    site = Site(latitude=0.0, longitude=0.0)
    sp = sun_positions(np.array(["2020-03-20T12:00:00"], dtype="datetime64[s]"), site)
    assert np.rad2deg(sp.zenith[0]) < 2.0


def test_midnight_below_horizon():
    site = Site(latitude=47.0, longitude=0.0)
    sp = sun_positions(np.array(["2021-06-21T00:00:00"], dtype="datetime64[s]"), site)
    assert np.rad2deg(sp.zenith[0]) > 90.0


def test_angles_within_their_ranges():
    rng = np.random.default_rng(3)
    ts = np.datetime64("2015-01-01T00:00:00") + rng.integers(
        0, 86400 * 365 * 5, size=1000
    ).astype("timedelta64[s]")
    site = Site(latitude=12.3, longitude=-45.6)
    sp = sun_positions(ts, site)
    assert np.all(sp.azimuth >= 0) and np.all(sp.azimuth < 2 * np.pi)
    assert np.all(sp.zenith >= 0) and np.all(sp.zenith <= np.pi)


def test_position_deterministic():
    site = Site(latitude=47.0, longitude=8.0)
    ts = np.array([np.datetime64("2020-07-01T10:00:00")] * 2)
    sp1 = sun_positions(ts, site)
    sp2 = sun_positions(ts, site)
    assert np.array_equal(sp1.azimuth, sp2.azimuth)
    assert np.array_equal(sp1.zenith, sp2.zenith)


def test_extraterrestrial_values():
    # hand evaluation: 1367 * (1 + 0.033*cos(2*pi/365)) = 1412.10
    np.testing.assert_allclose(extraterrestrial_normal(1), 1412.1, atol=0.05)
    # cosine nearly zero around day 91: 1367 * (1 + 0.033*0.004304) = 1367.19
    np.testing.assert_allclose(extraterrestrial_normal(91), 1367.19, atol=0.05)
    assert extraterrestrial_normal(182) < 1367.0
    with pytest.raises(InputError):
        extraterrestrial_normal(0)
    with pytest.raises(InputError):
        extraterrestrial_normal(367)


def test_aoi_horizontal_equals_zenith():
    rng = np.random.default_rng(4)
    zen = rng.uniform(0, np.pi / 2, 100)
    az = rng.uniform(0, 2 * np.pi, 100)
    sp = SolarPosition(azimuth=az, zenith=zen)
    aoi = angle_of_incidence(sp, Orientation(tilt=0.0, azimuth=1.23))
    np.testing.assert_allclose(aoi, zen, atol=1e-12)


def test_aoi_aligned_is_zero():
    sp = SolarPosition(azimuth=np.array([2.0]), zenith=np.array([0.7]))
    aoi = angle_of_incidence(sp, Orientation(tilt=0.7, azimuth=2.0))
    np.testing.assert_allclose(aoi, 0.0, atol=1e-7)


def test_aoi_vertical_wall_sun_on_horizon():
    sp = SolarPosition(azimuth=np.array([np.pi]), zenith=np.array([np.pi / 2]))
    aoi = angle_of_incidence(sp, Orientation(tilt=np.pi / 2, azimuth=np.pi))
    np.testing.assert_allclose(aoi, 0.0, atol=1e-12)


def test_airmass_values():
    assert abs(relative_airmass(0.0) - 1.0) < 0.002
    am60 = relative_airmass(np.deg2rad(60.0))
    assert abs(am60 - 2.0) / 2.0 < 0.01
    assert np.isinf(relative_airmass(np.deg2rad(95.0)))


def test_clearsky_night_zero_and_nonnegative(site):
    ts = np.datetime64("2021-06-10T00:00:00") + np.arange(144) * np.timedelta64(600, "s")
    sp = sun_positions(ts, site)
    ghi = clearsky_ghi(sp, ts, site)
    assert np.all(ghi >= 0)
    assert np.all(ghi[~sp.daytime] == 0)


def test_clearsky_summer_noon_range():
    site = Site(latitude=45.0, longitude=0.0, altitude=200.0)
    ts = np.array([np.datetime64("2021-06-21T12:00:00")])
    ghi = clearsky_ghi(sun_positions(ts, site), ts, site)
    assert 700.0 <= ghi[0] <= 1100.0


def test_clearsky_cross_check_independent_chain():
    """Same closed form, independent zenith source and transcription."""
    site = Site(latitude=45.0, longitude=0.0, altitude=200.0)
    ts = np.datetime64("2021-06-21T12:00:00")
    _, zen = psa_position(ts, site.latitude, site.longitude)
    doy = 172
    e0 = 1367.0 * (1 + 0.033 * np.cos(2 * np.pi * doy / 365.0))
    zdeg = np.rad2deg(zen)
    am = 1.0 / (np.cos(zen) + 0.50572 * (96.07995 - zdeg) ** -1.6364)
    fh1, fh2 = np.exp(-site.altitude / 8000.0), np.exp(-site.altitude / 1250.0)
    cg1, cg2 = 5.09e-5 * site.altitude + 0.868, 3.92e-5 * site.altitude + 0.0387
    expected = (
        cg1 * e0 * np.cos(zen) * np.exp(-cg2 * am * (fh1 + 2.0 * fh2)) * np.exp(0.01 * am**1.8)
    )
    got = clearsky_ghi(sun_positions(np.array([ts]), site), np.array([ts]), site)[0]
    assert abs(got - expected) / expected < 0.02


def test_day_of_year():
    assert day_of_year(np.array([np.datetime64("2020-01-01T05:00:00")]))[0] == 1
    assert day_of_year(np.array([np.datetime64("2020-12-31T23:00:00")]))[0] == 366
