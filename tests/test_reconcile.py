"""Shadow maps, trust weights and interquartile outlier gating."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter

from pvghi import (
    build_shadow_map,
    smooth_threshold_map,
    sun_positions,
    trust_weights,
    tukey_gate_matrix,
)
from pvghi.data import PlantSeries
from pvghi.reconcile import (
    SHADOW_MIN_SAMPLES,
    SHADOW_POWER_FLOOR_FRAC,
    SHADOW_QUANTILE,
    _gaussian_smooth,
    binned_quantile,
    sun_bin_keys,
)
from pvghi.proxy import forward_chain, proxy_matrix
from pvghi.solar import SolarPosition
from pvghi.synth import PlantSpec, ShadowSector, SyntheticSpec, make_timestamps, synthesize
from conftest import clear_seed, mesh_vertex, true_omega


@pytest.fixture(scope="module")
def shadow_scene(site, mesh, params):
    """Two plants, one with a hard morning obstruction.

    One-minute sampling: the 2-degree sun-position bins only collect
    enough samples at high cadence, exactly as in field datasets.
    """
    south = mesh_vertex(mesh, 26.57, 180.0)
    ts = make_timestamps("2015-05-01T00:00:00", 30, 60)
    sector = ShadowSector(
        azimuth_min_deg=70, azimuth_max_deg=140, zenith_min_deg=40, attenuation=0.5
    )
    spec = SyntheticSpec(
        plants=(
            PlantSpec("shaded", ((south, 8000.0),), shadows=(sector,)),
            PlantSpec("open", ((south, 8000.0),)),
        )
    )
    synth = synthesize(spec, site, ts, seed=21)
    sp = sun_positions(ts, site)
    pr = proxy_matrix(
        synth.ghi_clear,
        forward_chain(sp, ts, synth.dataset.mean_temperature(), mesh.orientations, params, site),
    ).values
    omega = true_omega(mesh, ((south, 8000.0),), "x", params)
    pred_clear = np.column_stack([pr @ omega.omega] * 2)  # the plants share one orientation
    pnom = np.full(2, omega.estimated_pnom)
    return synth, sp, pred_clear, pnom, sector


def scene_maps(shadow_scene):
    """The shadow scene's raw (plant, zenith, azimuth) maps at 2-degree bins."""
    synth, sp, pred_clear, pnom, _ = shadow_scene
    day = sp.daytime
    return build_shadow_map(
        synth.dataset.power_matrix()[day], pred_clear[day], pnom, sun_bin_keys(sp, 2.0)[day]
    )


class TestShadowMap:
    def test_unshaded_plant_small_values(self, shadow_scene):
        shadow = scene_maps(shadow_scene)[1]
        vals = shadow[~np.isnan(shadow)]
        assert vals.size > 50
        # the low quantile of the clear-sky relative error stays near zero
        assert np.median(np.abs(vals)) < 0.05

    def test_morning_obstruction_elevated(self, shadow_scene):
        sector = shadow_scene[-1]
        shadow = scene_maps(shadow_scene)[0]
        n_zen, n_az = shadow.shape
        az_centers = (np.arange(n_az) + 0.5) * 2.0
        zen_centers = (np.arange(n_zen) + 0.5) * 2.0
        zz, aa = np.meshgrid(zen_centers, az_centers, indexing="ij")
        inside = (
            (aa >= sector.azimuth_min_deg + 2)
            & (aa <= sector.azimuth_max_deg - 2)
            & (zz >= sector.zenith_min_deg + 2)
        )
        outside_afternoon = (aa >= 200) & (aa <= 290)
        shaded_vals = shadow[inside & ~np.isnan(shadow)]
        open_vals = shadow[outside_afternoon & ~np.isnan(shadow)]
        assert shaded_vals.size > 10 and open_vals.size > 10
        # halved power means the clear prediction overshoots by ~100%
        assert np.median(shaded_vals) > 0.5
        assert np.median(open_vals) < 0.2

    def test_empty_bins_invalid(self, shadow_scene):
        shadow = scene_maps(shadow_scene)[1]
        # northern-sky bins are never visited at this latitude
        assert np.isnan(shadow[:, :10]).all()

    def test_permutation_invariant(self, shadow_scene):
        synth, sp, pred_clear, pnom, _ = shadow_scene
        day = sp.daytime
        power, pred_clear = synth.dataset.power_matrix()[day], pred_clear[day]
        sun = SolarPosition(azimuth=sp.azimuth[day], zenith=sp.zenith[day])
        base = build_shadow_map(power, pred_clear, pnom, sun_bin_keys(sun, 2.0))
        perm = np.random.default_rng(0).permutation(len(power))
        shuffled_sp = SolarPosition(azimuth=sun.azimuth[perm], zenith=sun.zenith[perm])
        other = build_shadow_map(
            power[perm], pred_clear[perm], pnom, sun_bin_keys(shuffled_sp, 2.0)
        )
        np.testing.assert_allclose(base, other, rtol=0, atol=1e-12)  # NaN where NaN


class TestSmoothing:
    def test_constant_map_unchanged(self):
        values = np.full((1, 45, 180), 0.07)
        out = smooth_threshold_map(values, 2.0, bandwidth_deg=6.0, floor=0.02)
        np.testing.assert_allclose(out, 0.07, atol=1e-9)

    def test_single_spike_spreads(self):
        values = np.full((45, 180), 0.02)
        values[20, 90] = 1.0
        out = smooth_threshold_map(values[None], 2.0, bandwidth_deg=6.0, floor=0.0)[0]

        # oracle: direct truncated-Gaussian convolution at the peak
        sigma = 6.0 / 2.0
        radius = int(4 * sigma + 0.5)
        offs = np.arange(-radius, radius + 1)
        kern = np.exp(-0.5 * (offs / sigma) ** 2)
        kern /= kern.sum()
        k2d = np.outer(kern, kern)
        patch = values[20 - radius : 20 + radius + 1, 90 - radius : 90 + radius + 1]
        expected_peak = float((patch * k2d).sum())
        np.testing.assert_allclose(out[20, 90], expected_peak, rtol=1e-6)
        assert out[20, 90] < 1.0
        assert out[20, 92] > 0.02

    def test_floor_applies(self):
        values = np.full((1, 45, 180), 0.001)
        out = smooth_threshold_map(values, 2.0, bandwidth_deg=6.0, floor=0.02)
        np.testing.assert_allclose(out, 0.02)

    def test_azimuth_wraps(self):
        values = np.full((1, 45, 180), 0.02)
        values[0, 10, 0] = 1.0
        out = smooth_threshold_map(values, 2.0, bandwidth_deg=6.0, floor=0.0)
        assert out[0, 10, 179] > 0.025  # mass crossed the wrap seam

    @settings(max_examples=300)
    @example(seed=0, n_zenith=3, n_azimuth=3, sigma=7.3)
    @example(seed=1, n_zenith=4, n_azimuth=200, sigma=1e-16)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_zenith=st.integers(3, 60),
        n_azimuth=st.integers(3, 200),
        sigma=st.sampled_from([0.5, 1.0, 2.5, 3.0, 7.3]),
    )
    def test_smoothing_is_scipys_gaussian_filter(self, seed, n_zenith, n_azimuth, sigma):
        """Bit for bit, also where the kernel reaches past the map's width."""
        rng = np.random.default_rng(seed)
        valid = rng.random((n_zenith, n_azimuth)) < 0.6
        filled = np.where(valid, rng.uniform(-0.2, 1.0, valid.shape), 0.0)
        got = _gaussian_smooth(np.stack([filled, valid.astype(float)]), sigma)
        for smoothed, plain in zip(got, (filled, valid.astype(float))):
            np.testing.assert_array_equal(
                smoothed, gaussian_filter(plain, sigma, mode=("constant", "wrap"), cval=0.0)
            )

    def test_smoothed_output_at_least_floor(self, shadow_scene):
        out = smooth_threshold_map(scene_maps(shadow_scene), 2.0, floor=0.02)
        assert np.all(out[~np.isnan(out)] >= 0.02 - 1e-12)


class TestTrust:
    def test_identical_maps_equal_weights(self, shadow_scene):
        _, sp, _, _, _ = shadow_scene
        f = trust_weights(np.full((3, 45, 180), 0.05), sun_bin_keys(sp, 2.0))
        np.testing.assert_allclose(f, 1.0 / 3.0, atol=1e-12)

    def test_double_error_gets_third_weight(self, shadow_scene):
        _, sp, _, _, _ = shadow_scene
        f = trust_weights(
            np.stack([np.full((45, 180), 0.10), np.full((45, 180), 0.05)]), sun_bin_keys(sp, 2.0)
        )
        day = sp.daytime
        np.testing.assert_allclose(f[day, 0], 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(f[day, 1], 2.0 / 3.0, atol=1e-12)

    def test_single_plant_full_trust(self, shadow_scene):
        _, sp, _, _, _ = shadow_scene
        f = trust_weights(np.full((1, 45, 180), 0.05), sun_bin_keys(sp, 2.0))
        np.testing.assert_allclose(f, 1.0)

    def test_rows_sum_to_one(self, shadow_scene):
        sp = shadow_scene[1]
        f = trust_weights(
            smooth_threshold_map(scene_maps(shadow_scene), 2.0), sun_bin_keys(sp, 2.0)
        )
        np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((f >= 0) & (f <= 1))

    def test_invalid_bins_fall_back_to_floor(self):
        maps = np.stack([np.full((45, 180), np.nan), np.full((45, 180), 0.05)])
        sp = SolarPosition(azimuth=np.array([np.pi]), zenith=np.array([0.5]))
        # inverse errors 1 / 0.02 and 1 / 0.05
        np.testing.assert_allclose(
            trust_weights(maps, sun_bin_keys(sp, 2.0), floor=0.02)[0], [50 / 70, 20 / 70]
        )


class TestTukey:
    def test_single_extreme_gated(self):
        keep = tukey_gate_matrix(np.array([1.0, 1.0, 1.0, 1.0, 100.0])[None, :])[0]
        np.testing.assert_array_equal(keep, [True, True, True, True, False])

    def test_all_equal_none_gated(self):
        keep = tukey_gate_matrix(np.full(6, 2.5)[None, :])
        assert keep.all()

    def test_hand_quartiles(self):
        # {1..5}: Q25=2, Q75=4, IQ=2, fences [-1, 7]: nothing gated
        assert tukey_gate_matrix(np.array([1.0, 2, 3, 4, 5])[None, :]).all()
        # widen one point beyond the upper fence
        keep = tukey_gate_matrix(np.array([1.0, 2, 3, 4, 8])[None, :])[0]
        # {1,2,3,4,8}: Q25=2, Q75=4, fences [-1, 7]: 8 is out
        np.testing.assert_array_equal(keep, [True, True, True, True, False])

    def test_two_or_fewer_kept(self):
        assert tukey_gate_matrix(np.array([0.0, 1e9])[None, :]).all()
        assert tukey_gate_matrix(np.array([5.0])[None, :]).all()

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            e = rng.standard_normal(rng.integers(3, 12))
            base = tukey_gate_matrix(e[None, :])
            np.testing.assert_array_equal(base, tukey_gate_matrix(37.5 * e[None, :]))

    def test_median_never_gated(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            e = rng.standard_normal(5) * rng.uniform(0.1, 10)
            keep = tukey_gate_matrix(e[None, :])[0]
            assert keep.sum() >= 1
            assert keep[np.argsort(e)[len(e) // 2]]

    def test_large_sample_calibration(self):
        # k=1.5 fences flag ~0.7% of a normal population
        rng = np.random.default_rng(16)
        frac = (~tukey_gate_matrix(rng.standard_normal(1_000_000)[None, :])).mean()
        assert 0.005 <= frac <= 0.02

    def test_matrix_matches_rowwise(self):
        rng = np.random.default_rng(17)
        e = rng.standard_normal((500, 5))
        e[rng.random((500, 5)) < 0.1] = np.nan
        got = tukey_gate_matrix(e)
        for t in range(500):
            finite = np.isfinite(e[t])
            want = np.ones(5, dtype=bool)
            if finite.sum() > 2:
                q25, q75 = np.percentile(e[t][finite], [25.0, 75.0], method="linear")
                lo, hi = q25 - 1.5 * (q75 - q25), q75 + 1.5 * (q75 - q25)
                want[finite] = (e[t][finite] >= lo) & (e[t][finite] <= hi)
            np.testing.assert_array_equal(got[t], want)

    def test_missing_entries_kept(self):
        keep = tukey_gate_matrix(np.array([np.nan, 1.0, 1.0, 1.0, 50.0])[None, :])[0]
        assert keep[0]
        assert not keep[4]



def test_shadow_map_bins_match_numpy_percentile():
    rng = np.random.default_rng(18)
    n = 4000
    sp = SolarPosition(
        azimuth=rng.uniform(0.0, 2 * np.pi, n),
        zenith=np.deg2rad(rng.choice(
            [10.0, 10.5, 33.0, 45.0, 61.0, 89.9, 120.0], n,
            p=[0.2, 0.2, 0.2, 0.02, 0.2, 0.08, 0.1],
        )),
    )
    power = rng.uniform(0.0, 1000.0, n)
    power[rng.random(n) < 0.05] = np.nan
    clear = np.round(power * rng.uniform(0.8, 1.5, n), 1)  # rounding makes ties
    stamps = np.datetime64("2015-05-01", "s") + np.arange(n) * np.timedelta64(60, "s")
    plant = PlantSeries("p", stamps, power, np.full(n, 15.0))
    up = sp.daytime
    shadow = build_shadow_map(
        power[up, None], clear[up, None], np.array([1000.0]), sun_bin_keys(sp, 20.0)[up], 20.0
    )[0]

    ok = sp.daytime & np.isfinite(power) & (power >= 0.02 * 1000.0)
    rel = (clear[ok] - power[ok]) / power[ok]
    n_zen, n_az = shadow.shape
    zen = np.minimum(np.rad2deg(sp.zenith[ok]) // 20.0, n_zen - 1)
    az = np.minimum(np.rad2deg(sp.azimuth[ok]) // 20.0, n_az - 1)
    sizes = set()
    for i in range(n_zen):
        for j in range(n_az):
            cell = rel[(zen == i) & (az == j)]
            assert np.isnan(shadow[i, j]) == (cell.size < 10)
            if cell.size >= 10:
                assert shadow[i, j] == np.percentile(cell, 1.0)
                sizes.add(cell.size)
    # bins on both sides of the interpolation's g = 0.5 switch, and a thin one
    assert min(sizes) < 50 < max(sizes)
    assert np.isnan(shadow).any()

    # the clear-sky envelope bins every daytime sample with power the
    # same way and selects at 0.9 x each bin's 95th percentile
    day = sp.daytime & np.isfinite(power)
    x = power[day]
    keys = (
        (np.rad2deg(sp.zenith[day]) // 20.0).astype(int) * 18
        + (np.rad2deg(sp.azimuth[day]) // 20.0).astype(int)
    )
    cells, level = binned_quantile(keys, x, 0.95, 5)
    selected = clear_seed(plant, sp, bin_deg=20.0)[day]
    thin = 0
    for key in np.unique(keys):
        cell = x[keys == key]
        if cell.size < 5:
            thin += 1
            assert key not in cells and not selected[keys == key].any()
            continue
        p95 = np.percentile(cell, 95.0)
        assert level[cells == key] == p95
        np.testing.assert_array_equal(selected[keys == key], cell >= 0.9 * p95)
    assert thin > 0 and len(cells) > 0


def reference_gate(e: np.ndarray, k_q: float = 1.5) -> np.ndarray:
    """The Tukey gate with quartiles from numpy's own nanpercentile."""
    keep = np.ones(e.shape, dtype=bool)
    rows = np.isfinite(e).sum(axis=1) > 2
    if rows.any():
        sub = e[rows]
        with np.errstate(invalid="ignore"):
            q25 = np.nanpercentile(sub, 25.0, axis=1)
            q75 = np.nanpercentile(sub, 75.0, axis=1)
            lo = (q25 - k_q * (q75 - q25))[:, None]
            hi = (q75 + k_q * (q75 - q25))[:, None]
        keep[rows] = np.where(np.isfinite(sub), (sub >= lo) & (sub <= hi), True)
    return keep


@st.composite
def error_matrices(draw):
    """NaN-laced (T, n) matrices with ties, constant rows and sparse rows."""
    n = draw(st.integers(3, 16))
    t = draw(st.integers(1, 12))
    entries = st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from([-0.5, 0.0, 1.0, 2.5]),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    e = draw(arrays(np.float64, (t, n), elements=entries))
    for row in draw(st.lists(st.integers(0, t - 1), max_size=3)):
        e[row] = e[row, 0]
    for row in draw(st.lists(st.integers(0, t - 1), max_size=3)):
        e[row, draw(st.integers(0, 2)):] = np.nan
    return e


@settings(max_examples=300)
@given(error_matrices(), st.sampled_from([0.0, 0.5, 1.5, 3.0]))
def test_gate_matches_reference_percentile(e, k_q):
    np.testing.assert_array_equal(tukey_gate_matrix(e, k_q), reference_gate(e, k_q))


@given(st.data())
def test_trust_rows_sum_to_one(data):
    """Any maps, NaN or not, finite or not, give positive weights summing to 1."""
    bin_deg = data.draw(st.sampled_from([15.0, 30.0, 45.0]))
    shape = (int(np.ceil(90.0 / bin_deg)), int(np.ceil(360.0 / bin_deg)))
    value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from([np.nan, np.inf, 0.0]))
    n_plants = data.draw(st.integers(1, 5))
    maps = data.draw(arrays(np.float64, (n_plants, *shape), elements=value))
    t = data.draw(st.integers(1, 20))
    sp = SolarPosition(
        azimuth=data.draw(arrays(np.float64, t, elements=st.floats(-7.0, 7.0))),
        zenith=data.draw(arrays(np.float64, t, elements=st.floats(0.0, np.pi))),
    )
    w = trust_weights(maps, sun_bin_keys(sp, bin_deg), floor=data.draw(st.floats(1e-3, 1.0)))
    assert w.shape == (t, n_plants)
    assert (w > 0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)


def per_map_trust(maps, keys, floor):
    """Trust weights with each map read at ``keys`` on its own."""
    def lookup(shadow):
        vals = shadow.flat[keys]
        return np.where(np.isfinite(vals), vals, floor)

    dists = np.column_stack([1.0 / np.maximum(lookup(m), floor) for m in maps])
    return dists / dists.sum(axis=1, keepdims=True)


@given(st.data())
def test_trust_weights_equal_the_per_map_lookup(data):
    """Reading every map with one set of keys changes no bit of the weights."""
    value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from([np.nan, np.inf, 0.0]))
    bin_deg = data.draw(st.sampled_from([15.0, 30.0, 45.0]))
    shape = (int(np.ceil(90.0 / bin_deg)), int(np.ceil(360.0 / bin_deg)))
    maps = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), *shape), elements=value))
    t = data.draw(st.integers(1, 20))
    sp = SolarPosition(
        azimuth=data.draw(arrays(np.float64, t, elements=st.floats(-7.0, 7.0))),
        zenith=data.draw(arrays(np.float64, t, elements=st.floats(0.0, np.pi))),
    )
    floor = data.draw(st.floats(1e-3, 1.0))
    keys = sun_bin_keys(sp, bin_deg)
    np.testing.assert_array_equal(
        trust_weights(maps, keys, floor=floor), per_map_trust(maps, keys, floor)
    )


# The per-plant pipeline the (plant, zenith, azimuth) arrays replaced, kept
# as it was, with a ``reference_`` prefix on its functions: the array
# pipeline must reproduce it bit for bit.


@dataclass(frozen=True)
class ShadowMap:
    """Clear-sky relative error over (zenith, azimuth) bins.

    ``values[i, j]`` covers zenith bin i and azimuth bin j; bins without
    enough samples are invalid and excluded from queries.
    """

    values: np.ndarray
    valid: np.ndarray
    bin_deg: float


def reference_build_shadow_map(
    plant: PlantSeries,
    estimated_clear_power: np.ndarray,
    pnom: float,
    sp: SolarPosition,
    bin_deg: float = 2.0,
) -> ShadowMap:
    """Per-bin low quantile of (predicted clear power - measured) / measured.

    Samples below SHADOW_POWER_FLOOR_FRAC of the plant rating are dropped to
    guard the division. Shaded sun positions show up as elevated values
    because even the best observed samples fall short of the clear-sky
    prediction there.
    """
    shape = (int(np.ceil(90.0 / bin_deg)), int(np.ceil(360.0 / bin_deg)))
    values = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)

    power = plant.power
    ok = (
        sp.daytime
        & np.isfinite(power)
        & (power >= SHADOW_POWER_FLOOR_FRAC * pnom)
        & np.isfinite(estimated_clear_power)
    )
    if not ok.any():
        return ShadowMap(values=values, valid=valid, bin_deg=bin_deg)
    rel = (estimated_clear_power[ok] - power[ok]) / power[ok]
    cells, quantiles = binned_quantile(
        sun_bin_keys(sp, bin_deg)[ok], rel, SHADOW_QUANTILE, SHADOW_MIN_SAMPLES
    )
    values.flat[cells] = quantiles
    valid.flat[cells] = True
    return ShadowMap(values=values, valid=valid, bin_deg=bin_deg)


def reference_smooth_threshold_map(
    shadow: ShadowMap, bandwidth_deg: float = 6.0, floor: float = 0.02
) -> ShadowMap:
    """Gaussian smoothing over valid bins, then a lower threshold.

    The kernel is normalized by its mass over valid bins so constants
    pass through unchanged; azimuth wraps around. The floor bounds the
    inverse map used for trust weights.
    """
    num, den = _gaussian_smooth(
        np.stack([np.where(shadow.valid, shadow.values, 0.0), shadow.valid.astype(float)]),
        bandwidth_deg / shadow.bin_deg,
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        smoothed = num / den
    reachable = den > 1e-12
    out = np.where(reachable, np.maximum(smoothed, floor), np.nan)
    return ShadowMap(values=out, valid=reachable, bin_deg=shadow.bin_deg)


def reference_trust_weights(
    maps: list[ShadowMap], sp: SolarPosition, floor: float = 0.02
) -> np.ndarray:
    """(T, n_plants) weights, each row summing to one.

    A plant's weight is proportional to the inverse of its smoothed
    clear-sky error at the current sun position, so plants shaded at
    this sun position count less. An invalid bin, a non-finite value or
    a night position reads as the floor. The sun positions are binned
    once for each bin size, and every map of that size is read with the
    same keys.
    """
    keys = {b: sun_bin_keys(sp, b) for b in {m.bin_deg for m in maps}}
    day = np.rad2deg(np.atleast_1d(sp.zenith)) < 90.0
    dists = np.empty((len(day), len(maps)))
    for i, m in enumerate(maps):
        key = keys[m.bin_deg]
        vals = m.values.flat[key]
        ok = m.valid.flat[key] & day & np.isfinite(vals)
        dists[:, i] = 1.0 / np.maximum(np.where(ok, vals, floor), floor)
    total = dists.sum(axis=1, keepdims=True)
    return dists / total


@st.composite
def shadow_scenes(draw):
    """Plants seen at a few sun positions, so that bins fill.

    Power samples go missing, fall under or exactly on the power floor or
    lack a clear-sky prediction; one plant may have no usable sample at all.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_plants = draw(st.integers(1, 10))
    n = draw(st.sampled_from([1, 300, 3000]))
    positions = rng.integers(0, draw(st.integers(2, 12)), n)
    zenith = rng.uniform(0.0, 1.8, positions.max() + 1)[positions]  # a fifth past sunset
    azimuth = rng.uniform(-7.0, 7.0, positions.max() + 1)[positions]
    pnom = rng.uniform(100.0, 10_000.0, n_plants)
    power = rng.uniform(0.0, 1.0, (n, n_plants)) * pnom
    power = np.where(rng.random(power.shape) < 0.05, SHADOW_POWER_FLOOR_FRAC * pnom, power)
    power[rng.random(power.shape) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = np.nan
    clear = np.round(power * rng.uniform(0.8, 1.5, power.shape), 1)  # rounding makes ties
    clear[rng.random(clear.shape) < 0.05] = np.nan
    empty = draw(st.one_of(st.none(), st.integers(0, n_plants - 1)))
    if empty is not None:
        power[:, empty] = np.nan
    sp = SolarPosition(azimuth=azimuth, zenith=zenith)
    return power, clear, pnom, sp, empty


@settings(max_examples=200, deadline=None)
@given(
    shadow_scenes(),
    st.sampled_from([2.0, 10.0, 20.0]),
    st.sampled_from([0.0, 3.0, 6.0, 15.0]),
    st.floats(1e-3, 1.0),
)
def test_array_pipeline_equals_the_per_plant_reference(scene, bin_deg, bandwidth, floor):
    """Maps NaN exactly where the reference is invalid, equal values, equal trust."""
    power, clear, pnom, sp, empty = scene
    stamps = np.datetime64("2015-05-01", "s") + np.arange(len(power)) * np.timedelta64(60, "s")
    ref_raw = [
        reference_build_shadow_map(
            PlantSeries(f"p{i}", stamps, power[:, i], np.full(len(power), 15.0)),
            clear[:, i], pnom[i], sp, bin_deg,
        )
        for i in range(len(pnom))
    ]
    ref_smooth = [reference_smooth_threshold_map(m, bandwidth, floor) for m in ref_raw]

    day = sp.daytime
    keys = sun_bin_keys(sp, bin_deg)[day]
    raw = build_shadow_map(power[day], clear[day], pnom, keys, bin_deg)
    smooth = smooth_threshold_map(raw, bin_deg, bandwidth, floor)
    for got, want in ((raw, ref_raw), (smooth, ref_smooth)):
        assert got.shape == (len(pnom), *want[0].values.shape)
        for plant_map, ref in zip(got, want):
            np.testing.assert_array_equal(np.isnan(plant_map), ~ref.valid)
            np.testing.assert_array_equal(plant_map[ref.valid], ref.values[ref.valid])

    trust = trust_weights(smooth, keys, floor)
    np.testing.assert_array_equal(trust, reference_trust_weights(ref_smooth, sp, floor)[day])
    if empty is not None:
        assert np.isnan(raw[empty]).all() and np.isnan(smooth[empty]).all()
        # every weight's inverse error is at least the floor, the empty plant's exactly
        np.testing.assert_array_equal(trust[:, empty], trust.max(axis=1))
