"""Forward power chain against independent scalar oracles.

The DISC and tilted-plane oracles below are standalone transcriptions
of the published models, evaluated scalar-by-scalar; the library path
is vectorized and structured differently. Frozen values were computed
with these oracles.
"""

from dataclasses import replace

import numpy as np
import pytest

from pvghi import InputError, Orientation, Site, sun_positions
from pvghi.proxy import (
    I_MIN,
    IrradianceComponents,
    ProxyParams,
    apply_iam,
    apply_temperature,
    dhi_from,
    disc_dni,
    efficiency,
    forward_chain,
    incidence_modifier,
    pressure_at_altitude,
    proxy_matrix,
    transpose_hay_davies,
)
from pvghi.solar import SolarPosition, extraterrestrial_normal
from pvghi.synth import make_timestamps


def disc_oracle(ghi, zen_deg, doy, pressure=101325.0):
    e0 = 1367.0 * (1 + 0.033 * np.cos(2 * np.pi * doy / 365.0))
    zen = np.deg2rad(zen_deg)
    if ghi <= 0 or zen_deg >= 87.0:
        return 0.0
    kt = ghi / (e0 * max(np.cos(zen), np.cos(np.deg2rad(87.0))))
    kt = min(max(kt, 0.0), 1.0)
    am_rel = 1.0 / (np.cos(zen) + 0.50572 * (96.07995 - zen_deg) ** -1.6364)
    am = min(am_rel * pressure / 101325.0, 12.0)
    if kt <= 0.6:
        a = 0.512 - 1.56 * kt + 2.286 * kt**2 - 2.222 * kt**3
        b = 0.37 + 0.962 * kt
        c = -0.28 + 0.932 * kt - 2.048 * kt**2
    else:
        a = -5.743 + 21.77 * kt - 27.49 * kt**2 + 11.56 * kt**3
        b = 41.4 - 118.5 * kt + 66.05 * kt**2 + 31.9 * kt**3
        c = -47.01 + 184.2 * kt - 222.0 * kt**2 + 73.81 * kt**3
    dkn = a + b * np.exp(c * am)
    knc = 0.866 - 0.122 * am + 0.0121 * am**2 - 0.000653 * am**3 + 1.4e-5 * am**4
    return min(max((knc - dkn) * e0, 0.0), e0)


def hay_davies_oracle(ghi, dhi, dni, zen_deg, sun_az_deg, tilt_deg, surf_az_deg, doy, albedo=0.2):
    e0 = 1367.0 * (1 + 0.033 * np.cos(2 * np.pi * doy / 365.0))
    zen, saz = np.deg2rad(zen_deg), np.deg2rad(sun_az_deg)
    tilt, paz = np.deg2rad(tilt_deg), np.deg2rad(surf_az_deg)
    cos_aoi = max(
        np.cos(zen) * np.cos(tilt) + np.sin(zen) * np.sin(tilt) * np.cos(saz - paz), 0.0
    )
    i_b = dni * cos_aoi
    i_g = albedo * ghi * (1 - np.cos(tilt)) / 2
    anis = dni / e0
    r_b = cos_aoi / max(np.cos(zen), np.cos(np.deg2rad(87)))
    i_d = dhi * (anis * r_b + (1 - anis) * (1 + np.cos(tilt)) / 2)
    return i_b, i_d, i_g


def sp_single(zen_deg, az_deg=180.0):
    return SolarPosition(
        azimuth=np.array([np.deg2rad(az_deg)]), zenith=np.array([np.deg2rad(zen_deg)])
    )


def chain_at(sp, doy, orientations=()):
    """Sea-level chain for the sun positions ``sp`` on the days of year ``doy``."""
    days = (np.asarray(doy) - 1).astype("timedelta64[D]")
    ts = np.datetime64("2015-01-01T12:00:00") + days
    return forward_chain(
        sp, ts, np.full(len(ts), 20.0), orientations, ProxyParams(), Site(0.0, 0.0)
    )


class TestDisc:
    def test_zero_ghi(self):
        assert disc_dni(np.array([0.0]), chain_at(sp_single(45.0), np.array([180])))[0] == 0.0

    def test_zenith_cutoff(self):
        assert disc_dni(np.array([50.0]), chain_at(sp_single(89.0), np.array([180])))[0] == 0.0

    def test_against_oracle_frozen_case(self):
        got = disc_dni(np.array([600.0]), chain_at(sp_single(45.0), np.array([180])))[0]
        assert abs(got - 526.722) < 1.0  # frozen from the scalar oracle
        assert abs(got - disc_oracle(600.0, 45.0, 180)) < 1e-9

    def test_against_oracle_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ghi = float(rng.uniform(0, 1100))
            zen = float(rng.uniform(0, 89.9))
            doy = int(rng.integers(1, 366))
            got = disc_dni(np.array([ghi]), chain_at(sp_single(zen), np.array([doy])))[0]
            want = disc_oracle(ghi, zen, doy)
            assert abs(got - want) < 1.0, (ghi, zen, doy)

    def test_bounded_by_extraterrestrial(self):
        rng = np.random.default_rng(6)
        ghi = rng.uniform(0, 1400, 500)
        zen = rng.uniform(0, 88, 500)
        doy = rng.integers(1, 366, 500)
        sp = SolarPosition(azimuth=np.zeros(500), zenith=np.deg2rad(zen))
        dni = disc_dni(ghi, chain_at(sp, doy))
        assert np.all(dni >= 0)
        assert np.all(dni <= extraterrestrial_normal(doy) + 1e-9)


class TestDhi:
    def test_hand_case(self):
        got = dhi_from(np.array([500.0]), chain_at(sp_single(60.0), [1]), np.array([400.0]))
        np.testing.assert_allclose(got, 300.0, atol=1e-9)

    def test_all_diffuse(self):
        got = dhi_from(np.array([321.0]), chain_at(sp_single(30.0), [1]), np.array([0.0]))
        np.testing.assert_allclose(got, 321.0)

    def test_clamped(self):
        got = dhi_from(np.array([100.0]), chain_at(sp_single(0.0), [1]), np.array([200.0]))
        assert got[0] == 0.0


def transpose(ghi, dhi, dni, sp, orientation, e0):
    """Library transposition on a chain of the one plane, with the given e0."""
    chain = replace(chain_at(sp, [1], [orientation]), e0=e0, albedo=0.2)
    return transpose_hay_davies(np.array([ghi]), np.array([dhi]), np.array([dni]), chain, 0)


class TestTransposition:
    def test_isotropic_limit_horizontal(self):
        comp = transpose(
            300.0, 300.0, 0.0, sp_single(40.0), Orientation(tilt=0.0, azimuth=0.0),
            np.array([1367.0]),
        )
        np.testing.assert_allclose(comp.i_d, 300.0)
        np.testing.assert_allclose(comp.i_b, 0.0)
        np.testing.assert_allclose(comp.i_g, 0.0)

    def test_ground_reflection_vertical(self):
        comp = transpose(
            1000.0, 200.0, 500.0, sp_single(40.0), Orientation(tilt=np.pi / 2, azimuth=np.pi),
            np.array([1367.0]),
        )
        np.testing.assert_allclose(comp.i_g, 100.0)

    def test_full_case_against_oracle(self):
        comp = transpose(
            800.0, 200.0, 750.0,
            sp_single(30.0), Orientation(tilt=np.deg2rad(30.0), azimuth=np.pi),
            extraterrestrial_normal(np.array([172])),
        )
        want = hay_davies_oracle(800, 200, 750, 30, 180, 30, 180, 172)
        # frozen: (750.0, 211.744, 10.718)
        np.testing.assert_allclose(comp.i_b[0], want[0], atol=1.0)
        np.testing.assert_allclose(comp.i_d[0], want[1], atol=1.0)
        np.testing.assert_allclose(comp.i_g[0], want[2], atol=1.0)
        np.testing.assert_allclose(comp.i_b[0], 750.0, atol=1.0)
        np.testing.assert_allclose(comp.i_d[0], 211.744, atol=1.0)
        np.testing.assert_allclose(comp.i_g[0], 10.718, atol=1.0)

    def test_components_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ghi = rng.uniform(0, 1000)
            dni = rng.uniform(0, 900)
            dhi = max(ghi - np.cos(np.deg2rad(40)) * dni, 0)
            comp = transpose(
                ghi, dhi, dni,
                sp_single(rng.uniform(0, 89)),
                Orientation(tilt=rng.uniform(0, np.pi / 2), azimuth=rng.uniform(0, 2 * np.pi)),
                np.array([1367.0]),
            )
            assert comp.i_b >= 0 and comp.i_d >= 0 and comp.i_g >= 0


class TestIam:
    def test_normal_incidence(self, params):
        comp = IrradianceComponents(*(np.array([v]) for v in (0, 0, 600.0, 100.0, 10.0)))
        got = apply_iam(comp, incidence_modifier(np.array([0.0]), params))
        np.testing.assert_allclose(got, 600.0 + 0.95 * 110.0)

    def test_grazing_kills_beam(self, params):
        comp = IrradianceComponents(*(np.array([v]) for v in (0, 0, 600.0, 100.0, 0.0)))
        got = apply_iam(comp, incidence_modifier(np.array([np.deg2rad(92.0)]), params))
        np.testing.assert_allclose(got, 0.95 * 100.0)

    def test_sixty_degrees(self, params):
        # secant form: 1 - 0.05*(2 - 1) = 0.95
        np.testing.assert_allclose(
            incidence_modifier(np.array([np.deg2rad(60.0)]), params), 0.95, atol=1e-12
        )


class TestTemperature:
    def test_zero_in_zero_out(self, params):
        assert apply_temperature(np.array([0.0]), np.array([25.0]), params)[0] == 0.0

    def test_hand_case(self, params):
        # T_cell = 25 + 0.0314*1000 = 56.4; 1000*(1 - 4.3e-3*31.4) = 864.98
        got = apply_temperature(np.array([1000.0]), np.array([25.0]), params)
        np.testing.assert_allclose(got, 864.98, atol=1e-9)

    def test_reference_temperature_identity(self, params):
        i = 800.0
        t_amb = params.t_ref - params.phi * i
        got = apply_temperature(np.array([i]), np.array([t_amb]), params)
        np.testing.assert_allclose(got, i, atol=1e-9)


class TestEfficiency:
    def test_reference_point_exact(self, params):
        assert efficiency(np.array([1000.0]), params)[0] == params.k2

    def test_log_point(self, params):
        got = efficiency(np.array([1000.0 * np.e]), params)[0]
        np.testing.assert_allclose(got, 0.942 - 0.0502 - 0.0377, atol=1e-12)

    def test_cutoff(self, params):
        assert efficiency(np.array([0.0]), params)[0] == 0.0
        assert efficiency(np.array([9.9]), params)[0] == 0.0
        assert efficiency(np.array([10.0]), params)[0] > 0.0


@pytest.fixture(scope="module")
def scene(site):
    ts = make_timestamps("2021-06-10T00:00:00", 2, 600)
    sp = sun_positions(ts, site)
    temp = np.full(len(ts), 20.0)
    orientations = [
        Orientation(tilt=0.0, azimuth=0.0),
        Orientation(tilt=np.deg2rad(30), azimuth=np.pi),
    ]
    return ts, sp, temp, orientations


class TestProxyMatrix:

    def test_zero_ghi_zero_matrix(self, scene, site, params):
        ts, sp, temp, orientations = scene
        chain = forward_chain(sp, ts, temp, orientations, params, site)
        pm = proxy_matrix(np.zeros(len(ts)), chain)
        assert np.all(pm.values == 0.0)

    def test_night_rows_zero(self, scene, site, params):
        ts, sp, temp, orientations = scene
        ghi = np.full(len(ts), 500.0)
        pm = proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site))
        assert np.all(pm.values[~sp.daytime] == 0.0)

    def test_column_equals_scalar_chain(self, scene, site, params):
        """One noon timestep equals the hand-composed scalar chain."""
        ts, sp, temp, orientations = scene
        noon = int(np.argmin(sp.zenith))
        ghi_t = 640.0
        ghi = np.zeros(len(ts))
        ghi[noon] = ghi_t
        pm = proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site))

        from pvghi.solar import day_of_year

        zen_deg = float(np.rad2deg(sp.zenith[noon]))
        az_deg = float(np.rad2deg(sp.azimuth[noon]))
        doy = int(day_of_year(ts)[noon])
        dni = disc_oracle(ghi_t, zen_deg, doy, pressure_at_altitude(site.altitude))
        dhi = max(ghi_t - np.cos(np.deg2rad(zen_deg)) * dni, 0.0)
        i_b, i_d, i_g = hay_davies_oracle(ghi_t, dhi, dni, zen_deg, az_deg, 0.0, 0.0, doy)
        iam = max(1 - params.k1 * (1 / np.cos(0.0 if zen_deg >= 90 else np.deg2rad(zen_deg)) - 1), 0)
        i_aoi = iam * i_b + 0.95 * (i_d + i_g)
        t_cell = temp[noon] + params.phi * i_aoi
        i_aoit = max(i_aoi * (1 + params.gamma * (t_cell - params.t_ref)), 0.0)
        r = np.log(i_aoit / params.i_stc)
        eta = min(max(params.k2 + params.k3 * r + params.k4 * r * r, 0.0), 1.0)
        want = eta * i_aoit if i_aoit >= I_MIN else 0.0
        np.testing.assert_allclose(pm.values[noon, 0], want, rtol=1e-9)

    def test_monotone_in_ghi_for_sun_facing(self, scene, site, params):
        ts, sp, temp, orientations = scene
        noon = int(np.argmin(sp.zenith))
        clear = 900.0
        last = -1.0
        for g in np.arange(0.0, clear, 50.0):
            ghi = np.zeros(len(ts))
            ghi[noon] = g
            pm = proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site))
            val = pm.values[noon, 1]
            assert val >= last - 1e-9
            last = val

    def test_entries_bounded(self, scene, site, params):
        ts, sp, temp, orientations = scene
        rng = np.random.default_rng(8)
        ghi = rng.uniform(0, 1.3 * 1000, len(ts))
        pm = proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site))
        assert np.all(pm.values >= 0)
        assert np.all(pm.values <= 1.3 * 1367.0 * 1.033)

    def test_deterministic(self, scene, site, params):
        ts, sp, temp, orientations = scene
        rng = np.random.default_rng(9)
        ghi = rng.uniform(0, 900, len(ts))
        a = proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site)).values
        b = proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site)).values
        assert np.array_equal(a, b)

    def test_time_separability_brute_force(self, site, params):
        ts = make_timestamps("2021-06-10T08:00:00", 10 * 600 / 86400, 600)
        sp = sun_positions(ts, site)
        temp = np.full(len(ts), 18.0)
        orientations = [Orientation(tilt=np.deg2rad(25), azimuth=np.pi)]
        base_ghi = np.full(len(ts), 420.0)
        chain = forward_chain(sp, ts, temp, orientations, params, site)
        base = proxy_matrix(base_ghi, chain).values
        for k in range(len(ts)):
            bumped_ghi = base_ghi.copy()
            bumped_ghi[k] += 77.0
            bumped = proxy_matrix(bumped_ghi, chain).values
            others = np.arange(len(ts)) != k
            assert np.array_equal(base[others], bumped[others])

    def test_restricted_chain_matches_full_rows(self, scene, site, params):
        """Restricting a chain, once or twice, or building it on the rows
        directly, gives the full chain's rows bit for bit."""
        ts, sp, temp, orientations = scene
        planes = [*orientations, Orientation(tilt=np.pi / 2, azimuth=np.deg2rad(250.0))]
        chain = forward_chain(sp, ts, temp, planes, params, site)
        rng = np.random.default_rng(10)
        ghi = rng.uniform(0, 1000, len(ts))
        full = proxy_matrix(ghi, chain).values
        for m in (1, 2, 7, 40, len(ts) // 2 + 1, len(ts)):
            idx = np.sort(rng.choice(len(ts), m, replace=False))
            sub = chain.rows(idx)
            np.testing.assert_array_equal(proxy_matrix(ghi[idx], sub).values, full[idx])
            half = np.arange(0, m, 2)
            np.testing.assert_array_equal(
                proxy_matrix(ghi[idx[half]], sub.rows(half)).values, full[idx[half]]
            )
            direct = forward_chain(
                SolarPosition(azimuth=sp.azimuth[idx], zenith=sp.zenith[idx]),
                ts[idx], temp[idx], planes, params, site,
            )
            np.testing.assert_array_equal(proxy_matrix(ghi[idx], direct).values, full[idx])

    def test_length_mismatch_rejected(self, scene, site, params):
        ts, sp, temp, orientations = scene
        with pytest.raises(InputError):
            proxy_matrix(np.zeros(3), forward_chain(sp, ts, temp, orientations, params, site))
