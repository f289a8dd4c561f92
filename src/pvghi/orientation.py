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

from dataclasses import dataclass

import numpy as np

from .data import AlignedDataset, InputError, PlantSeries, expect, read_json, write_json
from .proxy import ProxyParams, forward_chain, proxy_matrix
from .reconcile import binned_quantile, sun_bin_keys
from .solar import Orientation, SolarPosition, sun_positions

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


class InsufficientDataError(InputError):
    """Not enough samples to fit."""


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


def select_clear(
    plant: PlantSeries, sp: SolarPosition, bin_deg: float = 5.0
) -> np.ndarray:
    """Boolean clear-sky seed mask for one plant, from its power envelope.

    Daytime samples with power are grouped by (zenith, azimuth) bin of
    ``bin_deg`` degrees. In a bin with at least ENVELOPE_MIN_SAMPLES of
    them, a sample is clear when its power reaches ENVELOPE_FRAC of the
    bin's ENVELOPE_QUANTILE quantile. Smaller bins, night and missing
    samples are never clear. ``identify`` narrows the seed with the
    forward model.
    """
    power = plant.power
    rows = np.flatnonzero(sp.daytime & np.isfinite(power))
    keys = sun_bin_keys(sp, rows, bin_deg)
    x = power[rows]
    cells, level = binned_quantile(keys, x, ENVELOPE_QUANTILE, ENVELOPE_MIN_SAMPLES)
    level_of = np.full(keys.max(initial=0) + 1, np.inf)
    level_of[cells] = level
    mask = np.zeros(len(power), dtype=bool)
    mask[rows] = x >= ENVELOPE_FRAC * level_of[keys]
    return mask


def _clear_proxy(dataset, sp, ghi_clear, mesh, params, rows) -> np.ndarray:
    """The mesh's proxy matrix at clear-sky GHI on the timesteps ``rows``."""
    return proxy_matrix(
        np.asarray(ghi_clear, dtype=float)[rows],
        forward_chain(
            SolarPosition(azimuth=sp.azimuth[rows], zenith=sp.zenith[rows]),
            dataset.timestamps[rows], dataset.mean_temperature()[rows],
            mesh.orientations, params, dataset.site,
        ),
    ).values


def _refine_clear(
    dataset: AlignedDataset,
    sp: SolarPosition,
    pr: np.ndarray,
    mesh: OrientationMesh,
    params: ProxyParams,
    seeds: list[np.ndarray],
    bin_deg: float,
) -> list[np.ndarray]:
    """Clear-sky masks the forward model explains at one clear level.

    ``pr`` is the clear-sky proxy on the daytime timesteps, and the
    seeds and the masks returned index those timesteps. Per plant, up
    to REFINE_ROUNDS times and until the mask stops changing: fit the
    whole period on the mask (``identify_omega``), predict clear power
    P^ from the proxy, and keep the samples with P^ above
    REFINE_MIN_FRAC of the fitted rating whose ratio P / P^ lies within
    REFINE_BAND of the plant's 90th-percentile ratio r90; haze that an
    envelope takes for clear falls below it. Haze belongs to the hour, a
    shade to the sun position: a daylight period with at least
    REFINE_DAY_FRAC of its seed kept is clear, and where such clear seed
    samples in a ``bin_deg`` sun bin have a 90th-percentile ratio below
    the band, those within REFINE_BAND of it are kept too, so a seasonal
    shade stays visible to the split search. A mask below max(mesh size,
    MIN_FIT_SAMPLES) samples or an all-zero fit raises
    InsufficientDataError naming the plant.
    """
    day = np.flatnonzero(sp.daytime)
    # the daylight period of each daytime row counts the sunrises so far
    period = np.cumsum(np.diff(sp.daytime.astype(int), prepend=0) == 1)[day]
    n_periods = int(period.max(initial=0)) + 1
    keys = sun_bin_keys(sp, day, bin_deg)
    n_keys = int(keys.max(initial=0)) + 1
    n_min = max(len(mesh), MIN_FIT_SAMPLES)

    def enough(plant_id, keep):
        if keep.sum() < n_min:
            raise InsufficientDataError(
                f"{plant_id}: {int(keep.sum())} clear samples, need >= {n_min}"
            )
        return keep

    refined = []
    for plant, seed in zip(dataset.plants, seeds):
        power = plant.power[day]
        finite = np.isfinite(power)
        seeded = keep = seed & finite
        for _ in range(REFINE_ROUNDS):
            enough(plant.plant_id, keep)
            omega = identify_omega(power[keep], pr[keep])
            used = np.flatnonzero(omega)
            if not used.size:
                raise InsufficientDataError(
                    f"{plant.plant_id}: the clear-sky fit left every orientation at zero"
                )
            predicted = pr[:, used] @ omega[used]
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
        refined.append(enough(plant.plant_id, keep))
    return refined


def _huber_weights(residuals: np.ndarray, scale: float, c: float) -> np.ndarray:
    u = np.abs(residuals) / max(scale, 1e-300)
    with np.errstate(divide="ignore"):
        w = np.where(u <= c, 1.0, c / np.maximum(u, 1e-300))
    return w


def nnls(gram: np.ndarray, rhs: np.ndarray, passive: np.ndarray, solve) -> np.ndarray:
    """argmin over x >= 0 of x.T @ gram @ x - 2 rhs.T @ x, by Lawson-Hanson.

    ``gram`` is positive semi-definite and ``solve(cols)`` returns the
    unconstrained minimiser on the columns ``cols``. The passive set
    starts as the columns ``passive``, less those whose solution is not
    positive, until the solution is positive on the rest. Each step then
    adds the column of largest positive dual ``rhs - gram @ x``. When
    the new solution is not positive on every passive column, x moves
    towards it as far as it stays non-negative, and the columns that
    reach zero leave the set. A column whose own solution is not
    positive, as when its dual is rounding error, is skipped until x
    moves. The search ends after NNLS_MAX_ADDS additions per column.
    """
    x = np.zeros(len(rhs))
    cols = np.flatnonzero(passive)
    while cols.size:
        s = solve(cols)
        if np.all(s > 0.0):
            x[cols] = s
            break
        cols = cols[s > 0.0]
    skipped = []
    for _ in range(NNLS_MAX_ADDS * len(rhs)):
        dual = rhs - gram @ x
        dual[cols] = -np.inf
        dual[skipped] = -np.inf
        j = int(np.argmax(dual))
        if not dual[j] > 0.0:
            break
        cols = np.append(cols, j)
        s = solve(cols)
        if s[-1] <= 0.0:
            cols = cols[:-1]
            skipped.append(j)
            continue
        while not np.all(s > 0.0):
            xs = x[cols]
            hit = np.flatnonzero(s <= 0.0)
            ratio = xs[hit] / (xs[hit] - s[hit])
            xs += ratio.min() * (s - xs)
            xs[hit[np.argmin(ratio)]] = 0.0
            x[cols] = 0.0
            cols = cols[xs > 0.0]
            x[cols] = xs[xs > 0.0]
            s = solve(cols) if cols.size else s[:0]
        x[:] = 0.0
        x[cols] = s
        skipped = []
    return x


def _weighted_nnls(
    a: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    gram: np.ndarray,
    rhs: np.ndarray,
    passive: np.ndarray,
) -> np.ndarray:
    """argmin over omega >= 0 of sum(w * (y - a @ omega)**2), weights in (0, 1].

    ``gram`` and ``rhs`` are a.T @ a and a.T @ y; the rows with w < 1 are
    taken out of them in proportion 1 - w, giving G = a.T W a and
    b = a.T W y, whose ``nnls`` has the same minimiser as the weighted
    rows. The search starts from the columns ``passive``. A passive
    solve uses the sub-Gram of its columns when the diagonal of that
    sub-Gram's Cholesky factor spreads within GRAM_COND_MAX (squared),
    and least squares on the weighted rows of the columns otherwise.
    """
    out = np.flatnonzero(w < 1.0)
    if out.size:
        shrink = np.sqrt(1.0 - w[out])
        a_out = a[out] * shrink[:, None]
        gram = gram - a_out.T @ a_out
        rhs = rhs - a_out.T @ (shrink * y[out])

    def solve(cols):
        sub = gram[cols[:, None], cols]
        try:
            diag = np.linalg.cholesky(sub).diagonal()
            if diag.max() ** 2 <= GRAM_COND_MAX * diag.min() ** 2:
                return np.linalg.solve(sub, rhs[cols])
        except np.linalg.LinAlgError:
            pass
        sw = np.sqrt(w)
        return np.linalg.lstsq(a[:, cols] * sw[:, None], y * sw, rcond=None)[0]

    return nnls(gram, rhs, passive, solve)


def identify_omega(power: np.ndarray, pr_clear: np.ndarray) -> np.ndarray:
    """Non-negative proxy coefficients by IRLS with a Huber loss.

    ``power`` holds the clear-masked samples and ``pr_clear`` the proxy
    matrix rows for the same samples, built from clear-sky GHI. The
    robustness scale is fixed from the initial non-negative fit so the
    reweighted objective decreases monotonically. Every pass is solved
    on the K x K Gram (``_weighted_nnls``), formed once per call, from
    the orientations the previous pass kept. Entries below SPARSITY_FRAC
    of the largest coefficient are zeroed.
    """
    y = np.asarray(power, dtype=float)
    a = np.asarray(pr_clear, dtype=float)
    if a.ndim != 2 or len(y) != a.shape[0]:
        raise InputError("power and proxy rows do not match")
    if len(y) < a.shape[1]:
        raise InsufficientDataError(
            f"need >= {a.shape[1]} clear samples, got {len(y)}"
        )
    gram, rhs = a.T @ a, a.T @ y
    omega = _weighted_nnls(a, y, np.ones(len(y)), gram, rhs, np.zeros(a.shape[1], bool))
    resid = y - a @ omega
    mad = np.median(np.abs(resid - np.median(resid)))
    scale = mad / 0.6745
    if scale > max(1e-9, 1e-9 * max(y.max(initial=0.0), 1.0)):
        for _ in range(IRLS_MAX_OUTER):
            w = _huber_weights(resid, scale, HUBER_C)
            new_omega = _weighted_nnls(a, y, w, gram, rhs, omega > 0)
            denom = max(np.linalg.norm(omega), 1e-12)
            step = np.linalg.norm(new_omega - omega) / denom
            omega = new_omega
            resid = y - a @ omega
            if step < IRLS_RTOL:
                break
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


def _fold_edges(timestamps: np.ndarray, length_days: int, rows: np.ndarray) -> list[np.ndarray]:
    """Fold membership of the timesteps ``rows``; folds start at the first timestamp."""
    start = timestamps[0].astype("int64")
    day = ((timestamps.astype("int64") - start) // 86400).astype(int)
    fold = day // length_days
    return [fold[rows] == k for k in range(int(fold.max()) + 1)]


def _split_search(
    dataset: AlignedDataset,
    day: np.ndarray,
    pr: np.ndarray,
    mesh: OrientationMesh,
    params: ProxyParams,
    clear_masks: list[np.ndarray],
    split_days: list[int],
) -> IdentificationResult:
    """Identify coefficients per plant, choosing the best temporal split.

    ``pr`` is the clear-sky proxy on the daytime timesteps ``day``, which
    the clear masks index. For every candidate fold length the
    coefficients are fit per fold and scored by the clear-sample
    reconstruction RMSE (normalized per plant) over the whole dataset;
    the split with the lowest RMSE wins, longest split on ties. The
    exported coefficients per plant come from that split's
    best-reconstructing fold. Only clear samples with finite power are
    fitted or scored. A plant whose exported coefficients would all be
    zero raises InsufficientDataError.
    """
    n_min = max(len(mesh), MIN_FIT_SAMPLES)
    powers = [p.power[day] for p in dataset.plants]
    masks = [m & np.isfinite(power) for m, power in zip(clear_masks, powers)]

    rmse_per_split: list[float] = []
    fold_fits: dict[int, list[list[np.ndarray | None]]] = {}
    for length in split_days:
        folds = _fold_edges(dataset.timestamps, length, day)
        per_plant: list[list[np.ndarray | None]] = []
        sq_sum, n_sq = 0.0, 0
        for plant, mask, power in zip(dataset.plants, masks, powers):
            fits: list[np.ndarray | None] = []
            carried: np.ndarray | None = None
            for fold_sel in folds:
                rows = mask & fold_sel
                if rows.sum() >= n_min:
                    carried = identify_omega(power[rows], pr[rows])
                fits.append(carried)
            # folds before the first fit reuse the earliest available one
            first = next((f for f in fits if f is not None), None)
            fits = [f if f is not None else first for f in fits]
            per_plant.append(fits)
            if first is None:
                raise InsufficientDataError(
                    f"{plant.plant_id}: no fold has enough clear samples"
                )
            pnom = max(estimate_nominal_power(first, params), 1e-9)
            for fold_sel, omega in zip(folds, fits):
                rows = mask & fold_sel
                if not rows.any():
                    continue
                err = (power[rows] - pr[rows] @ omega) / pnom
                sq_sum += float((err**2).sum())
                n_sq += int(rows.sum())
        rmse_per_split.append(np.sqrt(sq_sum / max(n_sq, 1)))
        fold_fits[length] = per_plant

    # fold-local fits hold a small in-sample advantage for short splits,
    # so splits within the tie tolerance of the best count as equal and
    # the longest of them wins
    tie_tol = 0.05
    floor_rmse = min(rmse_per_split)
    tied = [
        k for k in range(len(split_days))
        if rmse_per_split[k] <= (1.0 + tie_tol) * floor_rmse
    ]
    best_len = max(split_days[k] for k in tied)

    omegas = []
    folds = _fold_edges(dataset.timestamps, best_len, day)
    for i, (plant, mask, power) in enumerate(zip(dataset.plants, masks, powers)):
        best_omega, best_rmse = None, np.inf
        for fold_sel, omega in zip(folds, fold_fits[best_len][i]):
            if omega is None:
                continue
            rows = mask & fold_sel
            if not rows.any():
                continue
            pnom = max(estimate_nominal_power(omega, params), 1e-9)
            rmse = float(
                np.sqrt(np.mean(((power[rows] - pr[rows] @ omega) / pnom) ** 2))
            )
            if rmse < best_rmse:
                best_omega, best_rmse = omega, rmse
        if best_omega is None or not best_omega.any():
            raise InsufficientDataError(
                f"{plant.plant_id}: identification left every orientation at zero"
            )
        omegas.append(
            OmegaCoefficients(
                plant_id=plant.plant_id,
                omega=best_omega,
                estimated_pnom=estimate_nominal_power(best_omega, params),
            )
        )
    report = SplitReport(
        split_days=tuple(split_days),
        pv_rmse=tuple(float(r) for r in rmse_per_split),
        chosen_split=best_len,
    )
    return IdentificationResult(omegas=tuple(omegas), mesh=mesh, report=report)


def identify(
    dataset: AlignedDataset,
    ghi_clear: np.ndarray,
    mesh: OrientationMesh,
    params: ProxyParams,
    split_days: tuple[int, ...],
    bin_deg: float,
) -> IdentificationResult:
    """Each plant's coefficients, identified from its clear-sky samples.

    The clear-sky proxy is built once, on the daytime timesteps.
    ``select_clear`` seeds each plant's clear samples in ``bin_deg``
    sun bins, ``_refine_clear`` narrows them with the forward model, and
    ``_split_search`` fits them per fold of each length in
    ``split_days`` that the data span. A dataset shorter than every
    candidate is an InputError; a plant left with too few clear samples
    or with all-zero coefficients is an InsufficientDataError naming it.
    """
    span_days = int(
        (dataset.timestamps[-1].astype("int64") - dataset.timestamps[0].astype("int64"))
        // 86400
    ) + 1
    usable = [d for d in split_days if d <= span_days]
    if not usable:
        raise InputError(
            f"dataset spans {span_days} d, shorter than every candidate split "
            f"{sorted(split_days)}"
        )
    sp = sun_positions(dataset.timestamps, dataset.site)
    day = np.flatnonzero(sp.daytime)
    pr = _clear_proxy(dataset, sp, ghi_clear, mesh, params, day)
    seeds = [select_clear(p, sp, bin_deg)[day] for p in dataset.plants]
    masks = _refine_clear(dataset, sp, pr, mesh, params, seeds, bin_deg)
    return _split_search(dataset, day, pr, mesh, params, masks, usable)


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

    A file that does not parse, or a field read here that is missing or
    of the wrong type, is an InputError naming the file.
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
            omega[lookup[tilt, azimuth]] = value
        plant_id = expect(rec.get("plant_id"), f"{where}.plant_id", str)
        pnom = expect(rec.get("estimated_pnom_w"), f"{where}.estimated_pnom_w")
        out.append(OmegaCoefficients(plant_id, omega, float(pnom)))
    return tuple(out)
