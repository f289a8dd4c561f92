"""Multi-plant signal fusion: shadow-aware trust and outlier gating.

Each plant gets a map over sun positions of its relative power
prediction error under clear-sky input; positions where the model
systematically over-predicts (shading, horizon) earn the plant less
trust there. Independently, per-timestep errors far outside the
interquartile fences across plants are gated out of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PlantSeries
from .solar import SolarPosition

SHADOW_QUANTILE = 0.01        # low quantile of the relative error per bin
SHADOW_MIN_SAMPLES = 10       # fewer samples leave a bin invalid
SHADOW_POWER_FLOOR_FRAC = 0.02  # share of the rating below which samples are dropped


@dataclass(frozen=True)
class ShadowMap:
    """Clear-sky relative error over (zenith, azimuth) bins.

    ``values[i, j]`` covers zenith bin i and azimuth bin j; bins without
    enough samples are invalid and excluded from queries.
    """

    values: np.ndarray
    valid: np.ndarray
    bin_deg: float


def build_shadow_map(
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
        sun_bin_keys(sp, ok, bin_deg), rel, SHADOW_QUANTILE, SHADOW_MIN_SAMPLES
    )
    values.flat[cells] = quantiles
    valid.flat[cells] = True
    return ShadowMap(values=values, valid=valid, bin_deg=bin_deg)


def sun_bin_keys(sp: SolarPosition, rows, bin_deg: float) -> np.ndarray:
    """Flat index ``zen * n_az + az`` of each sun position's ``bin_deg`` bin.

    It indexes a ShadowMap's ``values``; zenith past 90 degrees falls in
    the last zenith bin.
    """
    n_zen = int(np.ceil(90.0 / bin_deg))
    n_az = int(np.ceil(360.0 / bin_deg))
    zenith = np.atleast_1d(sp.zenith)[rows]
    azimuth = np.atleast_1d(sp.azimuth)[rows]
    zen = np.minimum((np.rad2deg(zenith) // bin_deg).astype(int), n_zen - 1)
    az = np.minimum((np.rad2deg(np.mod(azimuth, 2 * np.pi)) // bin_deg).astype(int), n_az - 1)
    return zen * n_az + az


def binned_quantile(
    keys: np.ndarray, values: np.ndarray, q: float, min_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Linear q-quantile of ``values`` per non-negative integer key.

    Returns the keys holding at least ``min_count`` (>= 2) samples, in
    ascending order, and their quantiles. One ``lexsort`` groups and
    ranks every bin at once; each quantile equals numpy's linear
    ``percentile(values[keys == key], 100 * q)`` bit for bit.
    """
    order = np.lexsort((values, keys))
    ranked_keys = keys[order]
    starts = np.flatnonzero(np.diff(ranked_keys, prepend=-1))
    counts = np.diff(np.append(starts, len(ranked_keys)))
    full = counts >= min_count
    return ranked_keys[starts[full]], _sorted_quantile(
        values[order], starts[full], counts[full], q
    )


def smooth_threshold_map(
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


def _gaussian_smooth(maps: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter of width ``sigma`` bins over the last two axes of ``maps``.

    Past the zenith edges (axis -2) the maps are zero; in azimuth (axis
    -1) they are periodic. The steps are those of SciPy's
    ``gaussian_filter(m, sigma, mode=("constant", "wrap"), cval=0)``,
    so each map equals its result bit for bit: the kernel reaches
    int(4 sigma + 0.5) bins with weights exp(-k^2 / (2 sigma^2)) over
    their sum, zenith is filtered first, and each output starts from the
    centre tap and adds the symmetric pairs of taps, outermost first. A
    sigma of at most 1e-15 leaves the maps as they are.
    """
    out = np.array(maps, dtype=float)
    if sigma <= 1e-15:
        return out
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * taps**2)
    kernel = kernel / kernel.sum()
    for axis, mode in ((-2, "constant"), (-1, "wrap")):
        n = out.shape[axis]
        widths = [(0, 0)] * out.ndim
        widths[axis] = (radius, radius)
        padded = np.pad(out, widths, mode=mode)
        # shifted[radius + k] holds each bin's neighbour k bins along the axis
        shifted = [
            padded[(Ellipsis, slice(start, start + n)) + (slice(None),) * (-1 - axis)]
            for start in range(2 * radius + 1)
        ]
        out = shifted[radius] * kernel[radius]
        pair = np.empty_like(out)
        for k in range(radius, 0, -1):
            np.add(shifted[radius - k], shifted[radius + k], out=pair)
            pair *= kernel[radius - k]
            out += pair
    return out


def trust_weights(
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
    keys = {b: sun_bin_keys(sp, slice(None), b) for b in {m.bin_deg for m in maps}}
    day = np.rad2deg(np.atleast_1d(sp.zenith)) < 90.0
    dists = np.empty((len(day), len(maps)))
    for i, m in enumerate(maps):
        key = keys[m.bin_deg]
        vals = m.values.flat[key]
        ok = m.valid.flat[key] & day & np.isfinite(vals)
        dists[:, i] = 1.0 / np.maximum(np.where(ok, vals, floor), floor)
    total = dists.sum(axis=1, keepdims=True)
    return dists / total


def tukey_gate_matrix(error_matrix: np.ndarray, k_q: float = 1.5) -> np.ndarray:
    """Row-wise Tukey keep-mask over a (T, n_plants) error matrix.

    Per row, entries strictly outside [Q25 - k_q*IQ, Q75 + k_q*IQ] of
    the row's finite entries (linear-interpolated quartiles) are
    dropped. A row with two or fewer finite entries has meaningless
    quartiles and keeps everything. NaN entries (missing plants) are
    kept as True and must be masked by the caller. Both quartiles come
    from one sort of the rows and equal numpy's linear ``nanpercentile``
    of each row bit for bit.
    """
    e = np.asarray(error_matrix, dtype=float)
    keep = np.ones(e.shape, dtype=bool)
    rows = np.flatnonzero(np.isfinite(e).sum(axis=1) > 2)
    if rows.size == 0:
        return keep
    sub = e[rows]
    ranked = np.sort(sub, axis=1).ravel()  # NaN sorts last in each row
    starts = np.arange(rows.size) * e.shape[1]
    counts = (~np.isnan(sub)).sum(axis=1)
    with np.errstate(invalid="ignore"):
        q25 = _sorted_quantile(ranked, starts, counts, 0.25)
        q75 = _sorted_quantile(ranked, starts, counts, 0.75)
        iq = q75 - q25
        lo = (q25 - k_q * iq)[:, None]
        hi = (q75 + k_q * iq)[:, None]
    keep[rows] = np.where(np.isfinite(sub), (sub >= lo) & (sub <= hi), True)
    return keep


def _sorted_quantile(
    ranked: np.ndarray, starts: np.ndarray, counts: np.ndarray, q: float
) -> np.ndarray:
    """Linear-interpolated q-quantile of sorted runs of a 1-D array.

    Run i is ``ranked[starts[i] : starts[i] + counts[i]]``, sorted
    ascending, with counts >= 2 and 0 <= q < 1. The steps are numpy's
    for ``method="linear"``: virtual index (n - 1) * q, its floor and
    fraction g, then a + (b - a) * g, or b - (b - a) * (1 - g) when
    g >= 0.5. Each result therefore equals numpy's linear
    ``percentile(run, 100 * q)`` bit for bit.
    """
    virtual = (counts - 1) * q
    below = np.floor(virtual)
    g = virtual - below
    first = starts + below.astype(np.intp)
    a = ranked[first]
    b = ranked[first + 1]
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)
