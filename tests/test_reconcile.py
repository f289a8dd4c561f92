"""Shadow maps, trust weights and interquartile outlier gating."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter

from pvghi import (
    build_shadow_map,
    select_clear,
    smooth_threshold_map,
    sun_positions,
    trust_weights,
    tukey_gate_matrix,
)
from pvghi.data import PlantSeries
from pvghi.reconcile import (
    ShadowMap,
    _gaussian_smooth,
    binned_quantile,
    sun_bin_keys,
)
from pvghi.proxy import forward_chain, proxy_matrix
from pvghi.solar import SolarPosition
from pvghi.synth import PlantSpec, ShadowSector, SyntheticSpec, make_timestamps, synthesize
from conftest import mesh_vertex, true_omega


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
    pred_clear = pr @ omega.omega
    return synth, sp, pred_clear, omega.estimated_pnom, sector


class TestShadowMap:
    def test_unshaded_plant_small_values(self, shadow_scene):
        synth, sp, pred_clear, pnom, _ = shadow_scene
        shadow = build_shadow_map(synth.dataset.plants[1], pred_clear, pnom, sp)
        vals = shadow.values[shadow.valid]
        assert vals.size > 50
        # the low quantile of the clear-sky relative error stays near zero
        assert np.median(np.abs(vals)) < 0.05

    def test_morning_obstruction_elevated(self, shadow_scene):
        synth, sp, pred_clear, pnom, sector = shadow_scene
        shadow = build_shadow_map(synth.dataset.plants[0], pred_clear, pnom, sp)
        n_zen, n_az = shadow.values.shape
        az_centers = (np.arange(n_az) + 0.5) * shadow.bin_deg
        zen_centers = (np.arange(n_zen) + 0.5) * shadow.bin_deg
        zz, aa = np.meshgrid(zen_centers, az_centers, indexing="ij")
        inside = (
            (aa >= sector.azimuth_min_deg + 2)
            & (aa <= sector.azimuth_max_deg - 2)
            & (zz >= sector.zenith_min_deg + 2)
        )
        outside_afternoon = (aa >= 200) & (aa <= 290)
        shaded_vals = shadow.values[inside & shadow.valid]
        open_vals = shadow.values[outside_afternoon & shadow.valid]
        assert shaded_vals.size > 10 and open_vals.size > 10
        # halved power means the clear prediction overshoots by ~100%
        assert np.median(shaded_vals) > 0.5
        assert np.median(open_vals) < 0.2

    def test_empty_bins_invalid(self, shadow_scene):
        synth, sp, pred_clear, pnom, _ = shadow_scene
        shadow = build_shadow_map(synth.dataset.plants[1], pred_clear, pnom, sp)
        # northern-sky bins are never visited at this latitude
        north = shadow.values[:, :10]
        assert not shadow.valid[:, :10].any()
        assert np.isnan(north).all()

    def test_permutation_invariant(self, shadow_scene):
        synth, sp, pred_clear, pnom, _ = shadow_scene
        plant = synth.dataset.plants[0]
        base = build_shadow_map(plant, pred_clear, pnom, sp)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(plant.power))
        from pvghi.solar import SolarPosition

        shuffled_plant = PlantSeries(
            plant.plant_id, plant.timestamps, plant.power[perm], plant.temperature[perm]
        )
        shuffled_sp = SolarPosition(azimuth=sp.azimuth[perm], zenith=sp.zenith[perm])
        other = build_shadow_map(shuffled_plant, pred_clear[perm], pnom, shuffled_sp)
        assert np.array_equal(base.valid, other.valid)
        np.testing.assert_allclose(
            base.values[base.valid], other.values[other.valid], rtol=0, atol=1e-12
        )


class TestSmoothing:
    def test_constant_map_unchanged(self):
        values = np.full((45, 180), 0.07)
        shadow = ShadowMap(values=values, valid=np.ones_like(values, bool), bin_deg=2.0)
        out = smooth_threshold_map(shadow, bandwidth_deg=6.0, floor=0.02)
        np.testing.assert_allclose(out.values, 0.07, atol=1e-9)

    def test_single_spike_spreads(self):
        values = np.full((45, 180), 0.02)
        values[20, 90] = 1.0
        shadow = ShadowMap(values=values, valid=np.ones_like(values, bool), bin_deg=2.0)
        out = smooth_threshold_map(shadow, bandwidth_deg=6.0, floor=0.0)

        # oracle: direct truncated-Gaussian convolution at the peak
        sigma = 6.0 / 2.0
        radius = int(4 * sigma + 0.5)
        offs = np.arange(-radius, radius + 1)
        kern = np.exp(-0.5 * (offs / sigma) ** 2)
        kern /= kern.sum()
        k2d = np.outer(kern, kern)
        patch = values[20 - radius : 20 + radius + 1, 90 - radius : 90 + radius + 1]
        expected_peak = float((patch * k2d).sum())
        np.testing.assert_allclose(out.values[20, 90], expected_peak, rtol=1e-6)
        assert out.values[20, 90] < 1.0
        assert out.values[20, 92] > 0.02

    def test_floor_applies(self):
        values = np.full((45, 180), 0.001)
        shadow = ShadowMap(values=values, valid=np.ones_like(values, bool), bin_deg=2.0)
        out = smooth_threshold_map(shadow, bandwidth_deg=6.0, floor=0.02)
        np.testing.assert_allclose(out.values, 0.02)

    def test_azimuth_wraps(self):
        values = np.full((45, 180), 0.02)
        values[10, 0] = 1.0
        shadow = ShadowMap(values=values, valid=np.ones_like(values, bool), bin_deg=2.0)
        out = smooth_threshold_map(shadow, bandwidth_deg=6.0, floor=0.0)
        assert out.values[10, 179] > 0.025  # mass crossed the wrap seam

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
        synth, sp, pred_clear, pnom, _ = shadow_scene
        raw = build_shadow_map(synth.dataset.plants[0], pred_clear, pnom, sp)
        out = smooth_threshold_map(raw, floor=0.02)
        assert np.all(out.values[out.valid] >= 0.02 - 1e-12)


class TestTrust:
    def test_identical_maps_equal_weights(self, shadow_scene):
        _, sp, _, _, _ = shadow_scene
        values = np.full((45, 180), 0.05)
        m = ShadowMap(values=values, valid=np.ones_like(values, bool), bin_deg=2.0)
        f = trust_weights([m, m, m], sp)
        np.testing.assert_allclose(f, 1.0 / 3.0, atol=1e-12)

    def test_double_error_gets_third_weight(self, shadow_scene):
        _, sp, _, _, _ = shadow_scene
        a = ShadowMap(np.full((45, 180), 0.10), np.ones((45, 180), bool), 2.0)
        b = ShadowMap(np.full((45, 180), 0.05), np.ones((45, 180), bool), 2.0)
        f = trust_weights([a, b], sp)
        day = sp.daytime
        np.testing.assert_allclose(f[day, 0], 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(f[day, 1], 2.0 / 3.0, atol=1e-12)

    def test_single_plant_full_trust(self, shadow_scene):
        _, sp, _, _, _ = shadow_scene
        m = ShadowMap(np.full((45, 180), 0.05), np.ones((45, 180), bool), 2.0)
        f = trust_weights([m], sp)
        np.testing.assert_allclose(f, 1.0)

    def test_rows_sum_to_one(self, shadow_scene):
        synth, sp, pred_clear, pnom, _ = shadow_scene
        maps = [
            smooth_threshold_map(build_shadow_map(p, pred_clear, pnom, sp))
            for p in synth.dataset.plants
        ]
        f = trust_weights(maps, sp)
        np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((f >= 0) & (f <= 1))

    def test_invalid_bins_fall_back_to_floor(self):
        invalid = ShadowMap(np.full((45, 180), np.nan), np.zeros((45, 180), bool), 2.0)
        valid = ShadowMap(np.full((45, 180), 0.05), np.ones((45, 180), bool), 2.0)
        sp = SolarPosition(azimuth=np.array([np.pi]), zenith=np.array([0.5]))
        # inverse errors 1 / 0.02 and 1 / 0.05
        np.testing.assert_allclose(
            trust_weights([invalid, valid], sp, floor=0.02)[0], [50 / 70, 20 / 70]
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
    shadow = build_shadow_map(plant, clear, 1000.0, sp, bin_deg=20.0)

    ok = sp.daytime & np.isfinite(power) & (power >= 0.02 * 1000.0)
    rel = (clear[ok] - power[ok]) / power[ok]
    n_zen, n_az = shadow.values.shape
    zen = np.minimum(np.rad2deg(sp.zenith[ok]) // 20.0, n_zen - 1)
    az = np.minimum(np.rad2deg(sp.azimuth[ok]) // 20.0, n_az - 1)
    sizes = set()
    for i in range(n_zen):
        for j in range(n_az):
            cell = rel[(zen == i) & (az == j)]
            assert shadow.valid[i, j] == (cell.size >= 10)
            if cell.size >= 10:
                assert shadow.values[i, j] == np.percentile(cell, 1.0)
                sizes.add(cell.size)
    # bins on both sides of the interpolation's g = 0.5 switch, and a thin one
    assert min(sizes) < 50 < max(sizes)
    assert not shadow.valid.all()

    # the clear-sky envelope bins every daytime sample with power the
    # same way and selects at 0.9 x each bin's 95th percentile
    day = sp.daytime & np.isfinite(power)
    x = power[day]
    keys = (
        (np.rad2deg(sp.zenith[day]) // 20.0).astype(int) * 18
        + (np.rad2deg(sp.azimuth[day]) // 20.0).astype(int)
    )
    cells, level = binned_quantile(keys, x, 0.95, 5)
    selected = select_clear(plant, sp, bin_deg=20.0)[day]
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
    """Any maps, valid or not, finite or not, give positive weights summing to 1."""
    bin_deg = data.draw(st.sampled_from([15.0, 30.0, 45.0]))
    shape = (int(np.ceil(90.0 / bin_deg)), int(np.ceil(360.0 / bin_deg)))
    value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from([np.nan, np.inf, 0.0]))
    maps = [
        ShadowMap(
            values=data.draw(arrays(np.float64, shape, elements=value)),
            valid=data.draw(arrays(np.bool_, shape)),
            bin_deg=bin_deg,
        )
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    t = data.draw(st.integers(1, 20))
    sp = SolarPosition(
        azimuth=data.draw(arrays(np.float64, t, elements=st.floats(-7.0, 7.0))),
        zenith=data.draw(arrays(np.float64, t, elements=st.floats(0.0, np.pi))),
    )
    w = trust_weights(maps, sp, floor=data.draw(st.floats(1e-3, 1.0)))
    assert w.shape == (t, len(maps))
    assert (w > 0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)


def reference_trust(maps, sp, floor):
    """Trust weights with each map's sun-position keys computed for that map alone."""
    def lookup(shadow):
        keys = sun_bin_keys(sp, slice(None), shadow.bin_deg)
        vals = shadow.values.flat[keys]
        day = np.rad2deg(np.atleast_1d(sp.zenith)) < 90.0
        ok = shadow.valid.flat[keys] & day & np.isfinite(vals)
        return np.where(ok, vals, floor)

    dists = np.column_stack([1.0 / np.maximum(lookup(m), floor) for m in maps])
    return dists / dists.sum(axis=1, keepdims=True)


@given(st.data())
def test_trust_weights_equal_the_per_map_lookup(data):
    """Binning the sun positions once per bin size changes no bit of the weights."""
    value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from([np.nan, np.inf, 0.0]))
    maps = []
    for _ in range(data.draw(st.integers(1, 5))):
        bin_deg = data.draw(st.sampled_from([15.0, 30.0, 45.0]))
        shape = (int(np.ceil(90.0 / bin_deg)), int(np.ceil(360.0 / bin_deg)))
        maps.append(ShadowMap(
            values=data.draw(arrays(np.float64, shape, elements=value)),
            valid=data.draw(arrays(np.bool_, shape)),
            bin_deg=bin_deg,
        ))
    t = data.draw(st.integers(1, 20))
    sp = SolarPosition(
        azimuth=data.draw(arrays(np.float64, t, elements=st.floats(-7.0, 7.0))),
        zenith=data.draw(arrays(np.float64, t, elements=st.floats(0.0, np.pi))),
    )
    floor = data.draw(st.floats(1e-3, 1.0))
    np.testing.assert_array_equal(
        trust_weights(maps, sp, floor=floor), reference_trust(maps, sp, floor)
    )
