"""Error metrics, daily decomposition and block aggregation."""

import numpy as np
import pytest

from pvghi import InputError, bias_std_daily, block_average, normalized_rmse


def make_ts(n, step=600, start="2021-06-01T00:00:00"):
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(step, "s")


def test_perfect_estimate():
    ref = np.array([0.0, 400.0, 600.0])
    rep = normalized_rmse(ref.copy(), ref)
    assert rep.nrmse == 0.0
    assert rep.rmse == 0.0
    assert rep.bias == 0.0


def test_hand_case():
    ref = np.array([0.0, 400.0, 600.0])
    est = ref + np.array([0.0, 50.0, -50.0])
    rep = normalized_rmse(est, ref)
    assert rep.k_n == 500.0
    np.testing.assert_allclose(rep.rmse, np.sqrt(5000.0 / 3.0))
    np.testing.assert_allclose(rep.nrmse, np.sqrt(5000.0 / 3.0) / 500.0)
    np.testing.assert_allclose(rep.nrmse, 0.0816, atol=5e-4)


def test_constant_daytime_offset_bias():
    # 10-sample fixture: 6 daytime samples offset by +20, 4 night zeros
    ref = np.array([0, 0, 100, 200, 300, 300, 200, 100, 0, 0], dtype=float)
    est = ref + np.where(ref > 0, 20.0, 0.0)
    rep = normalized_rmse(est, ref)
    np.testing.assert_allclose(rep.bias, 20.0 * 6 / 10)
    np.testing.assert_allclose(rep.k_n, ref[ref > 0].mean())


def test_identity_holds():
    rng = np.random.default_rng(18)
    ref = rng.uniform(0, 800, 500)
    est = ref + rng.normal(3.0, 25.0, 500)
    rep = normalized_rmse(est, ref)
    assert rep.identity_residual < 1e-9


def test_sign_symmetry():
    rng = np.random.default_rng(19)
    ref = rng.uniform(10, 800, 300)
    err = rng.normal(0, 30, 300)
    a = normalized_rmse(ref + err, ref)
    b = normalized_rmse(ref - err, ref)
    np.testing.assert_allclose(a.nrmse, b.nrmse)


def test_all_zero_reference_rejected():
    with pytest.raises(InputError):
        normalized_rmse(np.zeros(5), np.zeros(5))


def test_daily_constant_offset():
    ts = make_ts(288)  # two days at 10 min
    ref = np.full(288, 100.0)
    est = ref + 10.0
    daily = bias_std_daily(est, ref, ts)
    assert len(daily.dates) == 2
    np.testing.assert_allclose(daily.bias, 10.0)
    np.testing.assert_allclose(daily.std, 0.0)


def test_daily_identity_per_day():
    rng = np.random.default_rng(20)
    ts = make_ts(288)
    ref = rng.uniform(0, 600, 288)
    est = ref + rng.normal(5, 20, 288)
    daily = bias_std_daily(est, ref, ts)
    np.testing.assert_allclose(
        daily.bias**2 + daily.std**2, daily.rmse**2, rtol=1e-9
    )


def test_daily_alternating_errors():
    ts = make_ts(144)
    ref = np.full(144, 200.0)
    est = ref + np.where(np.arange(144) % 2 == 0, 10.0, -10.0)
    daily = bias_std_daily(est, ref, ts)
    np.testing.assert_allclose(daily.bias, 0.0, atol=1e-12)
    np.testing.assert_allclose(daily.std, 10.0)


def bias_std_daily_loop(est, ref, timestamps):
    """Reference: one pass over the whole series per day."""
    days = np.asarray(timestamps, dtype="datetime64[s]").astype("datetime64[D]")
    err = est - ref
    uniq = np.unique(days)
    rows = [(e.mean(), e.std(), np.sqrt(np.mean(e**2))) for e in (err[days == d] for d in uniq)]
    return uniq, np.array(rows).reshape(-1, 3).T


def test_daily_decomposition_matches_the_per_day_loop():
    """Gapped and shuffled stamps, an empty series among them, bit for bit."""
    rng = np.random.default_rng(34)
    for trial in range(60):
        n = 0 if trial == 0 else int(rng.integers(1, 3000))
        ts = make_ts(n, step=int(rng.choice([60, 300, 600])), start="2021-06-01T00:07:00")
        ts = ts[rng.random(n) >= rng.uniform(0.0, 0.5)]
        if trial % 2:
            ts = rng.permutation(ts)
        ref = rng.uniform(0.0, 900.0, len(ts))
        est = ref + rng.normal(0.0, 30.0, len(ts))
        daily = bias_std_daily(est, ref, ts)
        dates, (bias, std, rmse) = bias_std_daily_loop(est, ref, ts)
        np.testing.assert_array_equal(np.array(daily.dates, dtype="datetime64[D]"), dates)
        for got, want in ((daily.bias, bias), (daily.std, std), (daily.rmse, rmse)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bend", ["repeat", "out-of-order"])
def test_block_average_refuses_non_monotonic_stamps(bend):
    """A repeated stamp divided by a zero step; one out of order came back unaveraged."""
    ts = make_ts(12, step=600)
    if bend == "repeat":
        ts[5] = ts[4]
    else:
        ts[[4, 5]] = ts[[5, 4]]
    with pytest.raises(InputError, match="non-monotonic timestamps: stamp 5 is not after stamp 4"):
        block_average(np.arange(12, dtype=float), ts, 1800)


def test_block_average_basic():
    ts = make_ts(12, step=600)
    vals = np.arange(12, dtype=float)
    avg, ts_b = block_average(vals, ts, 1800)
    np.testing.assert_allclose(avg, [1.0, 4.0, 7.0, 10.0])
    assert len(ts_b) == 4


def test_block_average_partial_block_dropped():
    ts = make_ts(10, step=600)
    vals = np.arange(10, dtype=float)
    avg, _ = block_average(vals, ts, 1800)
    assert len(avg) == 3  # the trailing 1-sample block is dropped


def block_average_loop(values, timestamps, period_seconds):
    """Reference: one pass over the whole series per block."""
    ts = np.asarray(timestamps, dtype="datetime64[s]").astype("int64")
    step = int(np.diff(ts).min())
    if period_seconds % step:
        return np.array([]), np.array([], dtype="datetime64[s]")
    per_block = period_seconds // step
    anchor = (ts - ts[0]) // period_seconds
    out_vals, out_ts = [], []
    for b in range(int(anchor[-1]) + 1):
        sel = anchor == b
        if sel.sum() == per_block:
            out_vals.append(values[sel].mean())
            out_ts.append(ts[sel][0])
    return np.array(out_vals), np.array(out_ts, dtype="int64").astype("datetime64[s]")


def assert_same_blocks(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_block_average_matches_block_loop():
    rng = np.random.default_rng(33)
    for _ in range(300):
        step = int(rng.choice([60, 300, 600, 900]))
        n = int(rng.integers(3, 400))
        kept = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        ts = make_ts(n, step=step, start="2021-06-01T00:07:00")[kept]
        vals = rng.normal(500.0, 200.0, len(ts))
        spacing = int(np.diff(ts).min().astype(int))
        for period in (2 * step, 1800, 3600, 10800, 86400):
            if period // spacing > 1:
                assert_same_blocks(
                    block_average(vals, ts, period), block_average_loop(vals, ts, period)
                )


@pytest.mark.parametrize("step, period, means", [
    (240, 600, []),  # 4-min data: no count of samples covers 10 or 30 min
    (240, 1800, []),
    (240, 3600, [7.0, 22.0, 37.0]),  # 15 samples an hour
    (420, 600, []),  # 7-min data: none covers 10 or 30 min
    (420, 1800, []),
])
def test_blocks_only_where_the_step_divides_the_period(step, period, means):
    ts = make_ts(45, step=step)
    avg, ts_b = block_average(np.arange(45, dtype=float), ts, period)
    np.testing.assert_array_equal(avg, means)
    assert ts_b.dtype == np.dtype("datetime64[s]")
    np.testing.assert_array_equal(ts_b, ts[:: period // step][: len(means)])


def test_block_average_without_a_full_block():
    ts = make_ts(5, step=600)
    vals = np.arange(5, dtype=float)
    got = block_average(vals, ts, 3600)
    assert len(got[0]) == 0
    assert_same_blocks(got, block_average_loop(vals, ts, 3600))


def test_aggregation_never_increases_nrmse_on_ar1_errors():
    rng = np.random.default_rng(21)
    n = 4320  # 30 days at 10 min
    ts = make_ts(n)
    ref = np.full(n, 500.0)
    err = np.empty(n)
    err[0] = rng.normal()
    for t in range(1, n):
        err[t] = 0.9 * err[t - 1] + rng.normal() * 10.0
    est = ref + err
    base = normalized_rmse(est, ref).nrmse
    last = base
    for minutes in (10, 30, 60):
        est_b, ts_b = block_average(est, ts, minutes * 60)
        ref_b, _ = block_average(ref, ts, minutes * 60)
        agg = normalized_rmse(est_b, ref_b).nrmse
        assert agg <= last + 1e-12
        last = agg
