"""Forward power chain against independent scalar oracles.

The DISC and tilted-plane oracles below are standalone transcriptions
of the published models, evaluated scalar-by-scalar; the library path
is vectorized and structured differently. Frozen values were computed
with these oracles.

``proxy_matrix`` runs transposition, IAM, temperature and efficiency
in one in-place pass per block of planes. The layer functions below are the
chain layer by layer, kept here as its reference: the per-layer tests
check them against the oracles, and ``proxy_matrix`` must equal their
composition bit for bit.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvghi import InputError, Orientation, Site, generate_mesh, sun_positions
from pvghi.proxy import (
    DISC_ZENITH_CUTOFF,
    I_MIN,
    PLANE_BLOCK_CELLS,
    ForwardChain,
    ProxyParams,
    dhi_from,
    disc_dni,
    forward_chain,
    incidence_modifier,
    pressure_at_altitude,
    proxy_matrix,
)
from pvghi.solar import SolarPosition, extraterrestrial_normal
from pvghi.synth import make_timestamps


@dataclass(frozen=True)
class IrradianceComponents:
    """Beam, diffuse and ground-reflected irradiance on a tilted plane."""

    dni: np.ndarray
    dhi: np.ndarray
    i_b: np.ndarray
    i_d: np.ndarray
    i_g: np.ndarray


def transpose_hay_davies(ghi, dhi, dni, chain: ForwardChain, plane: int) -> IrradianceComponents:
    """Project horizontal irradiance onto the chain's plane ``plane``.

    Beam by incidence-angle projection, diffuse by the Hay-Davies
    anisotropy blend, ground reflection isotropic with the site's
    albedo. The beam ratio denominator is floored at cos(87 deg) to
    avoid the horizon blow-up.
    """
    ghi = np.asarray(ghi, float)
    dhi = np.asarray(dhi, float)
    dni = np.asarray(dni, float)
    cos_tilt = np.cos(chain.tilt[plane])
    cos_aoi = chain.cos_aoi[plane]
    i_b = dni * cos_aoi
    i_g = chain.albedo * ghi * (1.0 - cos_tilt) / 2.0
    anisotropy = np.clip(dni / chain.e0, 0.0, 1.0)
    r_b = cos_aoi / np.maximum(chain.cos_zen, np.cos(DISC_ZENITH_CUTOFF))
    iso = (1.0 + cos_tilt) / 2.0
    i_d = dhi * (anisotropy * r_b + (1.0 - anisotropy) * iso)
    return IrradianceComponents(
        dni=dni,
        dhi=dhi,
        i_b=np.maximum(i_b, 0.0),
        i_d=np.maximum(i_d, 0.0),
        i_g=np.maximum(i_g, 0.0),
    )


def apply_iam(components: IrradianceComponents, iam):
    """Combine plane-of-array components with the beam's reflection losses."""
    return iam * components.i_b + 0.95 * (components.i_d + components.i_g)


def apply_temperature(i_aoi, t_ambient, params: ProxyParams):
    """Derate irradiance-equivalent power for cell temperature.

    The cell runs hotter than ambient in proportion to the absorbed
    irradiance; output scales linearly with the excess over the
    reference temperature.
    """
    i_aoi = np.asarray(i_aoi, dtype=float)
    t_cell = np.asarray(t_ambient, dtype=float) + params.phi * i_aoi
    return np.maximum(i_aoi * (1.0 + params.gamma * (t_cell - params.t_ref)), 0.0)


def efficiency(i_aoit, params: ProxyParams):
    """Combined module and inverter efficiency as a function of irradiance.

    Log-quadratic in the irradiance ratio, clamped to [0, 1], with a
    hard cutoff below I_MIN where the curve diverges.
    """
    i_aoit = np.asarray(i_aoit, dtype=float)
    safe = np.maximum(i_aoit, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_r = np.log(safe / params.i_stc)
        eta = params.k2 + params.k3 * ln_r + params.k4 * ln_r * ln_r
    eta = np.clip(eta, 0.0, 1.0)
    return np.where(i_aoit >= I_MIN, eta, 0.0)


def reference_proxy_matrix(ghi: np.ndarray, chain: ForwardChain) -> np.ndarray:
    """The chain layer by layer, one allocating step at a time."""
    ghi = np.asarray(ghi, dtype=float)
    dni = disc_dni(ghi, chain)
    dhi = dhi_from(ghi, chain, dni)
    values = np.empty((len(ghi), len(chain.tilt)))
    for j in range(len(chain.tilt)):
        comp = transpose_hay_davies(ghi, dhi, dni, chain, j)
        i_aoi = apply_iam(comp, chain.iam[j])
        i_aoit = apply_temperature(i_aoi, chain.t_ambient, chain.params)
        values[:, j] = efficiency(i_aoit, chain.params) * i_aoit
    return values


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

    def test_negative_ghi_rejected(self, scene, site, params):
        ts, sp, temp, orientations = scene
        ghi = np.full(len(ts), 300.0)
        ghi[len(ts) // 2] = -1e-9
        with pytest.raises(InputError, match="negative"):
            proxy_matrix(ghi, forward_chain(sp, ts, temp, orientations, params, site))


# the mesh's planes, plus a flat and a vertical one at exactly 0 and 90 deg
PLANES = (
    *generate_mesh(2).orientations,
    Orientation(tilt=0.0, azimuth=np.deg2rad(135.0)),
    Orientation(tilt=np.pi / 2, azimuth=np.deg2rad(200.0)),
)
ZENITH_DEG = st.one_of(
    st.floats(0.0, 100.0),
    st.floats(86.9, 87.1),  # around the DISC cutoff
    st.sampled_from([0.0, 87.0, 89.99, 90.0, 135.0]),  # night from 90 deg on
)
# 2000 W/m^2 is above 1.3 x clear-sky GHI at every sun height
GHI = st.one_of(st.floats(0.0, 2000.0), st.sampled_from([0.0, np.nan, 2000.0]))


@st.composite
def chain_cases(draw):
    """A forward chain over drawn sun positions, planes, weather and constants,
    the GHI to evaluate it at, and a subset of its rows."""
    n = draw(st.integers(1, 24))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    sp = SolarPosition(
        azimuth=column(st.floats(0.0, 2 * np.pi)), zenith=np.deg2rad(column(ZENITH_DEG))
    )
    days = column(st.integers(0, 364)).astype("timedelta64[D]")
    ts = np.datetime64("2015-01-01T12:00:00") + days
    t_ambient = column(st.floats(-30.0, 50.0))
    ghi = column(GHI)
    planes = draw(st.lists(st.sampled_from(PLANES), min_size=1, max_size=6))
    site = Site(0.0, 0.0, altitude=draw(st.floats(0.0, 3000.0)), albedo=draw(st.floats(0.0, 1.0)))
    # a steep gamma with a large phi drives the temperature derate to 0
    params = ProxyParams(
        k1=draw(st.floats(0.0, 0.2)),
        phi=draw(st.floats(0.0, 0.1)),
        gamma=draw(st.one_of(st.floats(-0.05, 0.0), st.just(-0.05))),
        t_ref=draw(st.floats(15.0, 35.0)),
        i_stc=draw(st.floats(500.0, 1500.0)),
        k2=draw(st.floats(0.8, 1.0)),
        k3=draw(st.floats(-0.1, 0.0)),
        k4=draw(st.floats(-0.1, 0.0)),
    )
    rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return forward_chain(sp, ts, t_ambient, planes, params, site), ghi, rows


def assert_same_bits(got, want):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    np.testing.assert_array_equal(got, want)
    known = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[known]), np.signbit(want[known]))


@settings(max_examples=300)
@given(chain_cases())
def test_proxy_matrix_equals_the_layer_by_layer_chain(case):
    chain, ghi, rows = case
    want = reference_proxy_matrix(ghi, chain)
    assert_same_bits(proxy_matrix(ghi, chain).values, want)
    assert_same_bits(proxy_matrix(ghi[rows], chain.rows(rows)).values, want[rows])


@settings(max_examples=200)
@given(st.data())
def test_zero_ghi_gives_positive_zero_on_every_row(data):
    """GHI 0 gives exactly +0.0, sign bit clear, on every row and plane: by
    day, past the DISC cutoff, in twilight and at night, on flat and
    vertical planes, at temperatures from -40 to 60 degC. The chain has no
    night rule; this is what makes it need none."""
    n = data.draw(st.integers(1, 24))

    def column(elements):
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))

    zenith_deg = column(st.one_of(
        st.floats(0.0, 180.0),
        st.floats(86.9, 87.1),  # around the DISC cutoff
        st.floats(90.0, 108.0),  # twilight
        st.sampled_from([0.0, 87.0, 89.99, 90.0, 96.0, 180.0]),
    ))
    sp = SolarPosition(azimuth=column(st.floats(0.0, 2 * np.pi)), zenith=np.deg2rad(zenith_deg))
    ts = np.datetime64("2015-01-01T12:00:00") + column(st.integers(0, 364)).astype("timedelta64[D]")
    planes = [*PLANES[-2:], *data.draw(st.lists(st.sampled_from(PLANES), max_size=4))]
    site = Site(0.0, 0.0, altitude=data.draw(st.floats(0.0, 3000.0)),
                albedo=data.draw(st.floats(0.0, 1.0)))
    chain = forward_chain(sp, ts, column(st.floats(-40.0, 60.0)), planes, ProxyParams(), site)
    values = proxy_matrix(np.zeros(n), chain).values
    assert (values == 0.0).all() and not np.signbit(values).any()


@pytest.mark.parametrize("n_rows", [PLANE_BLOCK_CELLS // 20 + 1, 1], ids=["blocks", "one-row"])
def test_plane_blocks_equal_the_layer_by_layer_chain(site, params, n_rows):
    """Every plane of the level-2 mesh, a vertical one among them, bit for bit.

    With PLANE_BLOCK_CELLS // 20 + 1 rows a block holds 19 planes, so the
    62 planes run in four blocks, the last one short; one row runs them
    in one block.
    """
    planes = generate_mesh(2).orientations
    assert len(planes) == 62 and max(o.tilt for o in planes) == np.pi / 2
    ts = np.datetime64("2021-03-01T10:00:00") + np.arange(n_rows) * np.timedelta64(300, "s")
    sp = sun_positions(ts, site)
    rng = np.random.default_rng(3)
    ghi = rng.uniform(0.0, 1200.0, n_rows)
    ghi[rng.random(n_rows) < 0.05] = 0.0
    ghi[rng.random(n_rows) < 0.05] = np.nan
    chain = forward_chain(sp, ts, rng.uniform(-10.0, 40.0, n_rows), planes, params, site)
    got = proxy_matrix(ghi, chain).values
    assert got.flags.c_contiguous and got.shape == (n_rows, 62)
    assert_same_bits(got, reference_proxy_matrix(ghi, chain))
    assert (got > 0).any()
