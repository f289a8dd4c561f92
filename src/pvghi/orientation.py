"""Unsupervised recovery of module orientations and nominal powers.

A plant's power signal is explained as a non-negative combination of
simulated unit-panel signals ("proxies") on a fixed mesh of candidate
orientations. Fitting only clear-sky samples removes the unknown cloud
attenuation: a power envelope per sun-position bin seeds them, and
refits of the forward model keep the samples it explains at one clear
level. A robust loss absorbs the residual clear-sky model error and
shading.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import (
    AlignedDataset, InputError, check_settings, expect, read_json, write_json,
)
from .proxy import ProxyParams, forward_chain, proxy_matrix
from .reconcile import binned_quantile, sun_bin_keys
from .solar import Orientation, SolarPosition, site_sky

ENVELOPE_MIN_SAMPLES = 5   # a sun-position bin with fewer samples selects none
ENVELOPE_QUANTILE = 0.95   # a bin's clear power level
ENVELOPE_FRAC = 0.9        # share of that level a clear sample reaches
REFINE_ROUNDS = 4          # fit-and-reselect passes of the refinement
REFINE_MIN_FRAC = 0.05     # predicted power below this share of the rating is not compared
REFINE_BAND = 0.04         # relative distance from the plant's clear ratio that is kept
REFINE_DAY_FRAC = 0.5      # kept share of a daylight period's seed that makes its sky clear
MIN_FIT_SAMPLES = 30       # a fit needs this many samples, and at least one per mesh plane
HUBER_C = 1.345            # Huber threshold in robust-scale units
IRLS_MAX_OUTER = 50        # reweighting passes
IRLS_RTOL = 1e-6           # relative coefficient step that ends reweighting
GRAM_COND_MAX = 1e12       # (max/min diagonal of a sub-Gram's Cholesky factor)^2 above
                           # which a passive solve runs on the weighted rows
NNLS_MAX_ADDS = 3          # an NNLS search ends after this many additions per column
SPARSITY_FRAC = 0.01       # coefficients below this share of the largest are zeroed
NORTH_TILT_CUTOFF_DEG = 15.0   # the mesh drops orientations tilted more than this
NORTH_HALFWIDTH_DEG = 60.0     # and facing within this angle of north
PROXY_BLOCKS = 8           # the clear-sky proxy is built in at most this many blocks of planes


class InsufficientDataError(InputError):
    """Not enough samples to fit."""


@dataclass(frozen=True)
class OrientationConfig:
    """Identification settings; a value out of range is a SettingError."""

    subdivision: int = 2
    split_candidates: tuple[int, ...] = (365, 182, 121, 91, 73)
    clear_bin_deg: float = 5.0

    def __post_init__(self):
        splits = self.split_candidates
        check_settings(self, (
            ("subdivision", 1 <= self.subdivision <= 4, "in [1, 4]"),
            ("split_candidates", len(set(splits)) == len(splits) > 0 and min(splits) >= 1,
             "one or more distinct positive day counts"),
            ("clear_bin_deg", 0.5 <= self.clear_bin_deg <= 90.0, "in [0.5, 90]"),
        ))


@dataclass(frozen=True)
class OrientationMesh:
    orientations: tuple[Orientation, ...]
    subdivision_level: int

    def __len__(self) -> int:
        return len(self.orientations)


@dataclass(frozen=True)
class OmegaCoefficients:
    """Non-negative per-orientation coefficients for one plant, m^2."""

    plant_id: str
    omega: np.ndarray
    estimated_pnom: float


def _icosahedron():
    # polar orientation: vertices at both poles so the zenith direction
    # is an exact mesh point
    verts = [np.array([0.0, 0.0, 1.0])]
    up = np.arctan(0.5)
    for k in range(5):
        lon = 2 * np.pi * k / 5
        verts.append(np.array([np.cos(up) * np.cos(lon), np.cos(up) * np.sin(lon), np.sin(up)]))
    for k in range(5):
        lon = 2 * np.pi * (k + 0.5) / 5
        verts.append(np.array([np.cos(up) * np.cos(lon), np.cos(up) * np.sin(lon), -np.sin(up)]))
    verts.append(np.array([0.0, 0.0, -1.0]))
    faces = []
    for k in range(5):
        kn = (k + 1) % 5
        faces.append((0, 1 + k, 1 + kn))
        faces.append((1 + k, 6 + k, 1 + kn))
        faces.append((1 + kn, 6 + k, 6 + kn))
        faces.append((6 + k, 11, 6 + kn))
    return verts, faces


def _subdivide(verts, faces):
    cache = {}
    verts = list(verts)

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in cache:
            m = verts[a] + verts[b]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return verts, new_faces


def generate_mesh(subdivision: int = 2) -> OrientationMesh:
    """Candidate orientations from a subdivided icosphere.

    Upper hemisphere only; orientations tilted more than
    NORTH_TILT_CUTOFF_DEG and facing within NORTH_HALFWIDTH_DEG of north
    are discarded since panels are not installed there. The zenith
    direction appears exactly once with azimuth 0: it is the only vertex
    within 0.5 degrees of the pole, and the subdivision makes every
    vertex once.
    """
    if not 1 <= subdivision <= 4:
        raise InputError("subdivision must be in [1, 4]")
    verts, faces = _icosahedron()
    for _ in range(subdivision):
        verts, faces = _subdivide(verts, faces)

    selected = []
    for v in verts:
        x, y, z = v
        if z < -1e-12:
            continue
        tilt = float(np.arccos(np.clip(z, -1.0, 1.0)))
        azimuth = float(np.mod(np.arctan2(y, x), 2 * np.pi))
        if tilt < np.deg2rad(0.5):
            tilt, azimuth = 0.0, 0.0
        from_north = np.rad2deg(min(azimuth, 2 * np.pi - azimuth))
        if np.rad2deg(tilt) > NORTH_TILT_CUTOFF_DEG and from_north <= NORTH_HALFWIDTH_DEG:
            continue
        selected.append(Orientation(tilt=min(tilt, np.pi / 2), azimuth=azimuth))

    selected.sort(key=lambda o: (o.tilt, o.azimuth))
    return OrientationMesh(orientations=tuple(selected), subdivision_level=subdivision)


def select_clear(power: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean clear-sky seed mask of a plant's modelled-row ``power``, from its envelope.

    Samples with power are grouped by their modelled row's sun-bin key in
    ``keys``. In a bin with at least ENVELOPE_MIN_SAMPLES of them, a
    sample is clear when its power reaches ENVELOPE_FRAC of the bin's
    ENVELOPE_QUANTILE quantile. Smaller bins and missing samples are
    never clear. ``identify`` narrows the seed with the forward model.
    """
    rows = np.isfinite(power)
    x, keys = power[rows], keys[rows]
    cells, level = binned_quantile(keys, x, ENVELOPE_QUANTILE, ENVELOPE_MIN_SAMPLES)
    level_of = np.full(keys.max(initial=0) + 1, np.inf)
    level_of[cells] = level
    mask = np.zeros(len(power), dtype=bool)
    mask[rows] = x >= ENVELOPE_FRAC * level_of[keys]
    return mask


def _clear_proxy(dataset, sun, ghi_clear, mesh, params, rows) -> np.ndarray:
    """The mesh's proxy matrix at clear-sky GHI on the timesteps ``rows``.

    ``sun`` holds the sun positions of those timesteps. The (rows,
    planes) result is filled in at most PROXY_BLOCKS blocks of
    ceil(K / PROXY_BLOCKS) planes, each with its own forward chain, so
    the per-plane geometry alive at any time (one block's incidence
    cosines and IAM factors) is about a quarter of the result's size,
    not twice it. The proxy is elementwise per plane, so the result
    equals one chain over the whole mesh bit for bit.
    """
    ghi = np.asarray(ghi_clear, dtype=float)[rows]
    stamps, temp = dataset.timestamps[rows], dataset.mean_temperature()[rows]
    planes = mesh.orientations
    block = -(-len(planes) // PROXY_BLOCKS)
    pr = np.empty((len(ghi), len(planes)))
    for j0 in range(0, len(planes), block):
        chain = forward_chain(sun, stamps, temp, planes[j0:j0 + block], params, dataset.site)
        pr[:, j0:j0 + block] = proxy_matrix(ghi, chain).values
    return pr


class _ClearFits:
    """One plant during identification: its data, fits and errors.

    ``power`` (``finite`` where it is) and the shared clear-sky proxy
    ``pr`` hold the modelled rows, which every row mask indexes. A
    fit needs ``n_min`` rows. A row set fitted before returns that fit
    again. ``error`` makes each InsufficientDataError, naming the plant.
    """

    def __init__(self, plant_id: str, power: np.ndarray, pr: np.ndarray, n_min: int):
        self.plant_id, self.power, self.pr, self.n_min = plant_id, power, pr, n_min
        self.finite = np.isfinite(power)
        self.by_rows: dict[bytes, np.ndarray] = {}

    def __call__(self, rows: np.ndarray, start: np.ndarray | None) -> np.ndarray:
        """The fit on the boolean mask ``rows``, a new one warm-started from ``start``."""
        key = np.packbits(rows).tobytes()
        if key not in self.by_rows:
            self.by_rows[key] = identify_omega(self.power[rows], self.pr[rows], start)
        return self.by_rows[key]

    def error(self, rule: str) -> InsufficientDataError:
        return InsufficientDataError(f"{self.plant_id}: {rule}")

    def enough(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` if it holds at least ``n_min`` rows; else raises."""
        if rows.sum() < self.n_min:
            raise self.error(f"{int(rows.sum())} clear samples, need >= {self.n_min}")
        return rows


def _refine_clear(
    fit: _ClearFits,
    seed: np.ndarray,
    period: np.ndarray,
    keys: np.ndarray,
    params: ProxyParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The clear-sky mask the forward model explains at one clear level.

    ``seed`` and the mask returned index the modelled rows, as
    ``fit`` does; ``period`` is each modelled row's daylight period and
    ``keys`` its sun-bin key. Up to REFINE_ROUNDS times and until the
    mask stops changing: fit the whole period on the mask (``fit``, each
    round warm-started from the last round's coefficients), predict
    clear power P^ from the clear-sky proxy, and keep the samples with
    P^ above REFINE_MIN_FRAC of the fitted rating whose ratio P / P^
    lies within REFINE_BAND of the plant's 90th-percentile ratio r90;
    haze that an envelope takes for clear falls below it. Haze belongs
    to the hour, a shade to the sun position: a daylight period with at
    least REFINE_DAY_FRAC of its seed kept is clear, and where such
    clear seed samples in a sun bin have a 90th-percentile ratio below
    the band, those within REFINE_BAND of it are kept too, so a
    seasonal shade stays visible to the split search. The mask holds
    finite power only. A mask below ``fit.n_min`` samples or an all-zero
    fit raises the plant's InsufficientDataError. Returned with the mask
    is the last fit.
    """
    n_periods = int(period.max(initial=0)) + 1
    n_keys = int(keys.max(initial=0)) + 1
    power, finite = fit.power, fit.finite
    seeded = keep = seed & finite
    omega = None
    for _ in range(REFINE_ROUNDS):
        omega = fit(fit.enough(keep), omega)
        used = np.flatnonzero(omega)
        if not used.size:
            raise fit.error("the clear-sky fit left every orientation at zero")
        predicted = fit.pr[:, used] @ omega[used]
        band = finite & (predicted > REFINE_MIN_FRAC * estimate_nominal_power(omega, params))
        ratio = np.divide(power, predicted, out=np.zeros_like(power), where=band)
        r90 = np.percentile(ratio[band], 90.0) if band.any() else 0.0
        band &= np.abs(ratio - r90) <= REFINE_BAND * r90
        clear_sky = seeded & (
            np.bincount(period[seeded & band], minlength=n_periods)
            >= REFINE_DAY_FRAC * np.bincount(period[seeded], minlength=n_periods)
        )[period]
        cells, level = binned_quantile(
            keys[clear_sky], ratio[clear_sky], 0.9, ENVELOPE_MIN_SAMPLES
        )
        short = level < (1.0 - REFINE_BAND) * r90
        shade_of = np.zeros(n_keys)
        shade_of[cells[short]] = level[short]
        shade = shade_of[keys]
        refit = band | (
            clear_sky & (shade > 0) & (np.abs(ratio - shade) <= REFINE_BAND * shade)
        )
        if np.array_equal(refit, keep):
            break
        keep = refit
    return fit.enough(keep), omega


def _huber_weights(residuals: np.ndarray, scale: float, c: float) -> np.ndarray:
    u = np.abs(residuals) / max(scale, 1e-300)
    with np.errstate(divide="ignore"):
        w = np.where(u <= c, 1.0, c / np.maximum(u, 1e-300))
    return w


def nnls(gram, rhs: np.ndarray, passive: np.ndarray, solve) -> np.ndarray:
    """argmin over x >= 0 of x.T @ G @ x - 2 rhs.T @ x, by Lawson-Hanson.

    G is positive semi-definite; ``gram(cols)`` returns its columns
    ``cols``, and ``solve(cols, sub)`` the unconstrained minimiser on
    the columns ``cols``, whose sub-Gram is ``sub``. The search keeps
    G[:, P] for its passive set P and asks ``gram`` only for a column
    that enters it. The passive set starts as the columns ``passive``,
    less those whose solution is not positive, until the solution is
    positive on the rest. Each step then adds the column of largest
    positive dual ``rhs - G[:, P] @ x[P]``. When the new solution is not
    positive on every passive column, x moves towards it as far as it
    stays non-negative, and the columns that reach zero leave the set.
    A column whose own solution is not positive, as when its dual is
    rounding error, is skipped until x moves. The search ends after
    NNLS_MAX_ADDS additions per column.
    """
    x = np.zeros(len(rhs))
    cols = np.flatnonzero(passive)
    g = gram(cols)  # G[:, cols]
    while cols.size:
        s = solve(cols, g[cols])
        if np.all(s > 0.0):
            x[cols] = s
            break
        cols, g = cols[s > 0.0], g[:, s > 0.0]
    skipped = []
    for _ in range(NNLS_MAX_ADDS * len(rhs)):
        dual = rhs - g @ x[cols]
        dual[cols] = -np.inf
        dual[skipped] = -np.inf
        j = int(np.argmax(dual))
        if not dual[j] > 0.0:
            break
        cols = np.append(cols, j)
        g = np.column_stack((g, gram(cols[-1:])))
        s = solve(cols, g[cols])
        if s[-1] <= 0.0:
            cols, g = cols[:-1], g[:, :-1]
            skipped.append(j)
            continue
        while not np.all(s > 0.0):
            xs = x[cols]
            hit = np.flatnonzero(s <= 0.0)
            ratio = xs[hit] / (xs[hit] - s[hit])
            xs += ratio.min() * (s - xs)
            xs[hit[np.argmin(ratio)]] = 0.0
            x[cols] = 0.0
            cols, g = cols[xs > 0.0], g[:, xs > 0.0]
            x[cols] = xs[xs > 0.0]
            s = solve(cols, g[cols]) if cols.size else s[:0]
        x[:] = 0.0
        x[cols] = s
        skipped = []
    return x


def _columns_on_demand(k: int, form):
    """``cols -> M[:, cols]`` for a k x k matrix M whose columns ``form(new)`` makes.

    Each column is formed the first time it is read and kept.
    """
    m = np.empty((k, k))
    formed = np.zeros(k, dtype=bool)

    def columns(cols):
        new = cols[~formed[cols]]
        if new.size:
            m[:, new] = form(new)
            formed[new] = True
        return m[:, cols]

    return columns


def _weighted_nnls(
    a: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    gram,
    rhs: np.ndarray,
    passive: np.ndarray,
) -> np.ndarray:
    """argmin over omega >= 0 of sum(w * (y - a @ omega)**2), weights in (0, 1].

    ``gram(cols)`` returns the columns ``cols`` of G = a.T @ a, and
    ``rhs`` is a.T @ y. The rows with w < 1 are taken out in proportion
    1 - w, giving b = a.T W y and, for each column j the search reads and
    only for those, G_w[:, j] = G[:, j] - a_out.T @ ((1 - w_out) * a_out[:, j]),
    the columns of a.T W a; their ``nnls`` has the same minimiser as the
    weighted rows. The search starts from the columns ``passive``. A
    passive solve uses the sub-Gram of its columns when the diagonal of
    that sub-Gram's Cholesky factor spreads within GRAM_COND_MAX
    (squared), and least squares on the weighted rows of the columns
    otherwise.
    """
    out = np.flatnonzero(w < 1.0)
    a_out, loss = a[out], 1.0 - w[out]
    rhs = rhs - a_out.T @ (loss * y[out])

    def gram_w(new):
        g = gram(new)
        return g - a_out.T @ (loss[:, None] * a_out[:, new]) if out.size else g

    def solve(cols, sub):
        try:
            diag = np.linalg.cholesky(sub).diagonal()
            if diag.max() ** 2 <= GRAM_COND_MAX * diag.min() ** 2:
                return np.linalg.solve(sub, rhs[cols])
        except np.linalg.LinAlgError:
            pass
        sw = np.sqrt(w)
        return np.linalg.lstsq(a[:, cols] * sw[:, None], y * sw, rcond=None)[0]

    return nnls(gram_w, rhs, passive, solve)


def identify_omega(
    power: np.ndarray, pr_clear: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Non-negative proxy coefficients by IRLS with a Huber loss.

    ``power`` holds the clear-masked samples and ``pr_clear`` the proxy
    matrix rows for the same samples, built from clear-sky GHI. The
    robustness scale is fixed from the initial non-negative fit so the
    reweighted objective decreases monotonically. Every pass is solved
    on the K x K Gram (``_weighted_nnls``), whose columns are formed,
    once per call, only where a search reads them. The first pass starts
    from the orientations where ``start`` (a fit of nearby samples) is
    positive, or from none, and each later pass from those the previous
    pass kept. Entries below SPARSITY_FRAC of the largest coefficient
    are zeroed.
    """
    y = np.asarray(power, dtype=float)
    a = np.asarray(pr_clear, dtype=float)
    if a.ndim != 2 or len(y) != a.shape[0]:
        raise InputError("power and proxy rows do not match")
    if len(y) < a.shape[1]:
        raise InsufficientDataError(
            f"need >= {a.shape[1]} clear samples, got {len(y)}"
        )
    gram, rhs = _columns_on_demand(a.shape[1], lambda new: a.T @ a[:, new]), a.T @ y
    passive = np.zeros(a.shape[1], bool) if start is None else start > 0
    omega = _weighted_nnls(a, y, np.ones(len(y)), gram, rhs, passive)
    support = np.flatnonzero(omega)
    resid = y - a[:, support] @ omega[support]
    scale = np.median(np.abs(resid - np.median(resid))) / 0.6745  # MAD in sigma units
    if scale > max(1e-9, 1e-9 * max(y.max(initial=0.0), 1.0)):
        for _ in range(IRLS_MAX_OUTER):
            w = _huber_weights(resid, scale, HUBER_C)
            new_omega = _weighted_nnls(a, y, w, gram, rhs, omega > 0)
            denom = max(np.linalg.norm(omega), 1e-12)
            step = np.linalg.norm(new_omega - omega) / denom
            omega = new_omega
            if step < IRLS_RTOL:
                break
            support = np.flatnonzero(omega)
            resid = y - a[:, support] @ omega[support]
    if omega.max(initial=0.0) > 0:
        omega[omega < SPARSITY_FRAC * omega.max()] = 0.0
    return omega


def estimate_nominal_power(omega: np.ndarray, params: ProxyParams) -> float:
    """Plant rating implied by the coefficients at reference conditions."""
    return float(np.sum(omega) * params.k2 * params.i_stc)


@dataclass(frozen=True)
class SplitReport:
    split_days: tuple[int, ...]
    pv_rmse: tuple[float, ...]
    chosen_split: int


@dataclass(frozen=True)
class IdentificationResult:
    omegas: tuple[OmegaCoefficients, ...]
    mesh: OrientationMesh
    report: SplitReport


def _folds(days: np.ndarray, lengths, rows: np.ndarray) -> dict[int, list[np.ndarray]]:
    """Per fold length, the fold memberships of the timesteps ``rows``; ``days``
    counts each timestep's days since the first, where the folds start. The
    folds cover every timestep, so the last may hold none of ``rows``."""
    folds = {}
    for length in lengths:
        fold = days[rows] // length
        folds[length] = [fold == k for k in range(int(days[-1]) // length + 1)]
    return folds


def _split_search(
    fits: Sequence[_ClearFits],
    masks: Sequence[np.ndarray],
    starts: Sequence[np.ndarray | None],
    folds: dict[int, list[np.ndarray]],
    params: ProxyParams,
) -> tuple[tuple[OmegaCoefficients, ...], SplitReport]:
    """Coefficients per plant from the best temporal split, and its report.

    ``folds`` holds, per candidate fold length in order, the folds'
    memberships of the modelled rows, which the plants' clear ``masks``
    (finite power only) and ``fits`` index. For every length the
    coefficients are fit per fold; a fold below ``fit.n_min`` clear
    samples borrows the previous fold's fit, or the plant's first. A
    split scores the clear-sample reconstruction RMSE over the whole
    dataset, each plant's residuals normalized by the rating of its
    first fold fit; the lowest wins, longest split on ties. A plant
    exports the chosen split's fold fit with the lowest RMSE on its
    fold, normalized by that fit's own rating. A plant with no fold to
    fit, or whose exported coefficients are all zero, raises its
    InsufficientDataError.

    Each plant's ``fits`` fit a row set once, so a fold equal to a mask
    the refinement fitted, or to a fold of another length, is not
    fitted again. Each fold's fit starts from the previous fold's, and a
    split's first fold from the plant's ``starts`` entry.
    """

    def rating(omega):
        return max(estimate_nominal_power(omega, params), 1e-9)

    rmse_per_split = []
    fold_scores = {}  # per split and plant: (own-rating RMSE, fit) of each scored fold
    for length, length_folds in folds.items():
        sq_sum, n_sq = 0.0, 0
        fold_scores[length] = []
        for mask, fit, start in zip(masks, fits, starts):
            fold_rows = [mask & fold_sel for fold_sel in length_folds]
            fold_fits, carried = [], None
            for rows in fold_rows:
                if rows.sum() >= fit.n_min:
                    carried = start = fit(rows, start)
                fold_fits.append(carried)
            if carried is None:
                raise fit.error("no fold has enough clear samples")
            first = next(f for f in fold_fits if f is not None)
            pnom, scores = rating(first), []
            for rows, omega in zip(fold_rows, fold_fits):
                if rows.any():
                    omega = first if omega is None else omega
                    resid = fit.power[rows] - fit.pr[rows] @ omega
                    sq_sum += float(((resid / pnom) ** 2).sum())
                    n_sq += int(rows.sum())
                    scores.append((float(np.sqrt(np.mean((resid / rating(omega)) ** 2))), omega))
            fold_scores[length].append(scores)
        rmse_per_split.append(float(np.sqrt(sq_sum / max(n_sq, 1))))

    # fold-local fits hold a small in-sample advantage for short splits,
    # so splits within the tie tolerance of the best count as equal and
    # the longest of them wins
    tie_tol = 0.05
    best_len = max(
        d for d, r in zip(folds, rmse_per_split)
        if r <= (1.0 + tie_tol) * min(rmse_per_split)
    )
    omegas = []
    for fit, scores in zip(fits, fold_scores[best_len]):
        omega = min(scores, key=lambda score: score[0])[1]
        if not omega.any():
            raise fit.error("identification left every orientation at zero")
        omegas.append(
            OmegaCoefficients(fit.plant_id, omega, estimate_nominal_power(omega, params))
        )
    return tuple(omegas), SplitReport(tuple(folds), tuple(rmse_per_split), best_len)


def identify(
    dataset: AlignedDataset,
    ghi_clear: np.ndarray | None,
    params: ProxyParams,
    cfg: OrientationConfig,
) -> IdentificationResult:
    """Each plant's coefficients, identified from its clear-sky samples.

    The mesh is ``generate_mesh(cfg.subdivision)``, which the result
    returns as ``mesh``. The sun positions of the modelled rows of
    ``site_sky`` (sun up, clear-sky > 0), the rows ``estimate`` solves,
    are taken once, and so are their clear-sky proxy, each modelled
    row's daylight period and ``cfg.clear_bin_deg`` sun-bin key, the
    day index that gives the span and its fold of each length in
    ``cfg.split_candidates`` that the data span, and the fit minimum
    max(mesh size, MIN_FIT_SAMPLES).
    ``_clear_proxy`` builds the proxy a block of planes at a time, so
    identification holds the proxy and one block's incidence geometry,
    never the whole mesh's. Each plant is one ``_ClearFits`` record:
    ``select_clear`` seeds its clear samples in the shared sun bins,
    ``_refine_clear`` narrows them with the forward model, and
    ``_split_search`` fits them per fold; both fit through the record,
    so no row set is fitted twice. A dataset shorter than every
    candidate, or a clear-sky GHI that ``site_sky`` rejects, is an
    InputError; a plant left with too few clear samples or with
    all-zero coefficients is an InsufficientDataError naming it.
    """
    seconds = dataset.timestamps.astype("int64")
    days = (seconds - seconds[0]) // 86400
    span_days = int(days[-1]) + 1
    usable = [d for d in cfg.split_candidates if d <= span_days]
    if not usable:
        raise InputError(
            f"dataset spans {span_days} d, shorter than every candidate split "
            f"{sorted(cfg.split_candidates)}"
        )
    mesh = generate_mesh(cfg.subdivision)
    sp, ghi_clear, modelled = site_sky(ghi_clear, dataset.timestamps, dataset.site)
    rows = np.flatnonzero(modelled)
    sun = SolarPosition(azimuth=sp.azimuth[rows], zenith=sp.zenith[rows])
    pr = _clear_proxy(dataset, sun, ghi_clear, mesh, params, rows)
    # the daylight period of each modelled row counts the sunrises so far
    period = np.cumsum(np.diff(sp.daytime.astype(int), prepend=0) == 1)[rows]
    keys = sun_bin_keys(sun, cfg.clear_bin_deg)
    n_min = max(len(mesh), MIN_FIT_SAMPLES)
    fits = [_ClearFits(p.plant_id, p.power[rows], pr, n_min) for p in dataset.plants]
    masks, starts = zip(*(
        _refine_clear(fit, select_clear(fit.power, keys), period, keys, params) for fit in fits
    ))
    omegas, report = _split_search(fits, masks, starts, _folds(days, usable, rows), params)
    return IdentificationResult(omegas=omegas, mesh=mesh, report=report)


def save_omegas(result: IdentificationResult, path) -> None:
    """Write identified coefficients as a stable-field-order JSON file."""
    payload = {
        "mesh_subdivision": result.mesh.subdivision_level,
        "chosen_split_days": result.report.chosen_split,
        "split_table": [
            {"split_days": d, "pv_rmse": r}
            for d, r in zip(result.report.split_days, result.report.pv_rmse)
        ],
        "plants": [
            {
                "plant_id": oc.plant_id,
                "coefficients": [
                    {
                        "tilt_deg": round(float(np.rad2deg(o.tilt)), 6),
                        "azimuth_deg": round(float(np.rad2deg(o.azimuth)), 6),
                        "omega_m2": float(w),
                    }
                    for o, w in zip(result.mesh.orientations, oc.omega)
                    if w > 0
                ],
                "estimated_pnom_w": oc.estimated_pnom,
                "chosen_split_days": result.report.chosen_split,
            }
            for oc in result.omegas
        ],
    }
    write_json(path, payload)


def load_omegas(path, mesh: OrientationMesh) -> tuple[OmegaCoefficients, ...]:
    """Read coefficients written by save_omegas back onto a mesh.

    A file that does not parse, a field read here that is missing or of
    the wrong type, or a plant or a plant's orientation listed twice is
    an InputError naming the file.
    """
    payload = expect(read_json(path), str(path), dict)
    subdivision = expect(payload.get("mesh_subdivision"), f"{path}: mesh_subdivision")
    if subdivision != mesh.subdivision_level:
        raise InputError(
            f"{path}: built on mesh subdivision {subdivision}, not {mesh.subdivision_level}"
        )
    lookup = {
        (round(float(np.rad2deg(o.tilt)), 6), round(float(np.rad2deg(o.azimuth)), 6)): j
        for j, o in enumerate(mesh.orientations)
    }
    out = []
    for i, rec in enumerate(expect(payload.get("plants"), f"{path}: plants", list)):
        where = f"{path}: plants[{i}]"
        omega = np.zeros(len(mesh))
        placed = set()
        expect(rec, where, dict)
        for k, entry in enumerate(
            expect(rec.get("coefficients"), f"{where}.coefficients", list)
        ):
            at = f"{where}.coefficients[{k}]"
            tilt, azimuth, value = (
                expect(expect(entry, at, dict).get(name), f"{at}.{name}")
                for name in ("tilt_deg", "azimuth_deg", "omega_m2")
            )
            if (tilt, azimuth) not in lookup:
                raise InputError(f"{at}: orientation {(tilt, azimuth)} not on mesh")
            if (tilt, azimuth) in placed:
                raise InputError(f"{at}: orientation {(tilt, azimuth)} listed twice")
            placed.add((tilt, azimuth))
            omega[lookup[tilt, azimuth]] = value
        plant_id = expect(rec.get("plant_id"), f"{where}.plant_id", str)
        if any(oc.plant_id == plant_id for oc in out):
            raise InputError(f"{where}: plant {plant_id!r} listed twice")
        pnom = expect(rec.get("estimated_pnom_w"), f"{where}.estimated_pnom_w")
        out.append(OmegaCoefficients(plant_id, omega, float(pnom)))
    return tuple(out)
