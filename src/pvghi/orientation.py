"""Unsupervised recovery of module orientations and nominal powers.

A plant's power signal is explained as a non-negative combination of
simulated unit-panel signals ("proxies") on a fixed mesh of candidate
orientations. Fitting only clear-sky samples, selected per sun-position
bin from the bimodal power distribution, removes the unknown cloud
attenuation; a robust loss absorbs the residual clear-sky model error
and shading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .data import AlignedDataset, InputError, PlantSeries, expect, read_json, write_json
from .proxy import ProxyParams, proxy_matrix
from .solar import Orientation, SolarPosition

GMM_MIN_SAMPLES = 20
GMM_MAX_ITER = 500         # EM iteration cap
GMM_TOL = 1e-8             # EM stops once the log-likelihood gains less
HUBER_C = 1.345            # Huber threshold in robust-scale units
IRLS_MAX_OUTER = 50        # reweighting passes
IRLS_RTOL = 1e-6           # relative coefficient step that ends reweighting
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
class Gmm2:
    """Two-component 1-D Gaussian mixture, components ordered by mean."""

    mu1: float
    sigma1: float
    w1: float
    mu2: float
    sigma2: float
    w2: float
    degenerate: bool


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
    direction appears exactly once with azimuth 0.
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

    # drop duplicates closer than 1 degree great-circle (the zenith vertex
    # collapse above can only produce exact duplicates, but be safe)
    kept: list[Orientation] = []
    for o in selected:
        dup = False
        for p in kept:
            cosd = np.cos(o.tilt) * np.cos(p.tilt) + np.sin(o.tilt) * np.sin(
                p.tilt
            ) * np.cos(o.azimuth - p.azimuth)
            if np.arccos(np.clip(cosd, -1, 1)) < np.deg2rad(1.0):
                dup = True
                break
        if not dup:
            kept.append(o)
    kept.sort(key=lambda o: (o.tilt, o.azimuth))
    return OrientationMesh(orientations=tuple(kept), subdivision_level=subdivision)


def fit_gmm2(samples) -> Gmm2:
    """Fit a 2-component 1-D Gaussian mixture by EM.

    Deterministic start: means at the 25th/75th percentiles, shared
    sample standard deviation, equal weights. Zero-variance input yields
    a degenerate single-component result.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < GMM_MIN_SAMPLES:
        raise InsufficientDataError(f"need >= {GMM_MIN_SAMPLES} samples, got {x.size}")
    s0 = float(x.std())
    if s0 <= 1e-12 * max(float(np.abs(x).max()), 1.0) or not np.isfinite(s0):
        m = float(x[0])
        return Gmm2(m, 0.0, 1.0, m, 0.0, 0.0, degenerate=True)

    mu = np.percentile(x, [25.0, 75.0]).astype(float)
    sigma = np.array([s0, s0])
    w = np.array([0.5, 0.5])
    var_floor = (1e-6 * s0) ** 2
    ll_prev = -np.inf
    for _ in range(GMM_MAX_ITER):
        var = np.maximum(sigma**2, var_floor)
        logp = (
            -0.5 * np.log(2 * np.pi * var)[:, None]
            - 0.5 * (x[None, :] - mu[:, None]) ** 2 / var[:, None]
            + np.log(np.maximum(w, 1e-300))[:, None]
        )
        top = logp.max(axis=0)
        lse = top + np.log(np.exp(logp - top).sum(axis=0))
        ll = float(lse.sum())
        resp = np.exp(logp - lse)
        nk = resp.sum(axis=1)
        w = nk / x.size
        mu = (resp * x).sum(axis=1) / np.maximum(nk, 1e-300)
        sigma = np.sqrt(
            (resp * (x[None, :] - mu[:, None]) ** 2).sum(axis=1) / np.maximum(nk, 1e-300)
        )
        if abs(ll - ll_prev) < GMM_TOL:
            break
        ll_prev = ll

    order = np.argsort(mu)
    mu, sigma, w = mu[order], sigma[order], w[order]
    # weight collapse: report the surviving component in both slots so the
    # "largest mean" selection degrades gracefully
    if w[0] < 1e-3 or w[1] < 1e-3:
        hi = int(np.argmax(w))
        return Gmm2(
            float(mu[hi]), float(sigma[hi]), 1.0,
            float(mu[hi]), float(sigma[hi]), 0.0,
            degenerate=False,
        )
    return Gmm2(
        float(mu[0]), float(sigma[0]), float(w[0]),
        float(mu[1]), float(sigma[1]), float(w[1]),
        degenerate=False,
    )


def _bin_indices(sp: SolarPosition, bin_deg: float):
    az = np.rad2deg(np.mod(sp.azimuth, 2 * np.pi))
    zen = np.rad2deg(sp.zenith)
    return (az // bin_deg).astype(int), (zen // bin_deg).astype(int)


UNIMODAL_REL_GAP = 0.12


def _looks_unimodal(fit: Gmm2) -> bool:
    """Whether the fitted components describe one cluster, not two modes.

    Separation between the component means below ~12% of the clear
    level means the "cloudy" mode is only haze depth; splitting a bin
    there throws away good samples while the robust regression absorbs
    haze anyway.
    """
    if fit.w2 == 0.0:
        return True
    if fit.mu2 <= 0:
        return True
    return (fit.mu2 - fit.mu1) <= UNIMODAL_REL_GAP * fit.mu2


def select_clear(
    plant: PlantSeries, sp: SolarPosition, bin_deg: float = 5.0
) -> np.ndarray:
    """Boolean clear-sky mask for one plant.

    Power samples are grouped by sun-position bin; within each bin the
    samples inside one standard deviation of the larger-mean mixture
    component are marked clear. A bin whose distribution has no cloudy
    mode (all-clear weather) falls back to one standard deviation
    around the pooled mean. Bins with too few samples or a degenerate
    fit contribute nothing. Night and missing samples are never clear.
    """
    power = plant.power
    valid = sp.daytime & np.isfinite(power)
    mask = np.zeros(len(power), dtype=bool)
    if not valid.any():
        return mask
    az_bin, zen_bin = _bin_indices(sp, bin_deg)
    keys = az_bin * 1000 + zen_bin
    for key in np.unique(keys[valid]):
        sel = valid & (keys == key)
        if sel.sum() < GMM_MIN_SAMPLES:
            continue
        x = power[sel]
        fit = fit_gmm2(x)
        if fit.degenerate:
            continue
        if _looks_unimodal(fit):
            mu, sigma = float(x.mean()), float(x.std())
        else:
            mu, sigma = fit.mu2, fit.sigma2
        mask[sel] = (x >= mu - sigma) & (x <= mu + sigma)
    return mask


def _huber_weights(residuals: np.ndarray, scale: float, c: float) -> np.ndarray:
    u = np.abs(residuals) / max(scale, 1e-300)
    with np.errstate(divide="ignore"):
        w = np.where(u <= c, 1.0, c / np.maximum(u, 1e-300))
    return w


def huber_loss(residuals: np.ndarray, scale: float, c: float) -> float:
    u = np.abs(residuals) / max(scale, 1e-300)
    quad = 0.5 * u**2
    lin = c * u - 0.5 * c**2
    return float(np.where(u <= c, quad, lin).sum())


def identify_omega(
    power: np.ndarray,
    pr_clear: np.ndarray,
    loss_history: list | None = None,
) -> np.ndarray:
    """Non-negative proxy coefficients by IRLS with a Huber loss.

    ``power`` holds the clear-masked samples and ``pr_clear`` the proxy
    matrix rows for the same samples, built from clear-sky GHI. The
    robustness scale is fixed from the initial non-negative fit so the
    reweighted objective decreases monotonically; ``loss_history``, when
    given, collects the loss per outer iteration. Entries below
    SPARSITY_FRAC of the largest coefficient are zeroed.
    """
    y = np.asarray(power, dtype=float)
    a = np.asarray(pr_clear, dtype=float)
    if a.ndim != 2 or len(y) != a.shape[0]:
        raise InputError("power and proxy rows do not match")
    if len(y) < a.shape[1]:
        raise InsufficientDataError(
            f"need >= {a.shape[1]} clear samples, got {len(y)}"
        )
    omega, _ = nnls(a, y)
    resid = y - a @ omega
    mad = np.median(np.abs(resid - np.median(resid)))
    scale = mad / 0.6745
    if scale <= max(1e-9, 1e-9 * max(y.max(initial=0.0), 1.0)):
        cleaned = omega.copy()
    else:
        if loss_history is not None:
            loss_history.append(huber_loss(y - a @ omega, scale, HUBER_C))
        for _ in range(IRLS_MAX_OUTER):
            w = _huber_weights(y - a @ omega, scale, HUBER_C)
            sw = np.sqrt(w)
            new_omega, _ = nnls(a * sw[:, None], y * sw)
            denom = max(np.linalg.norm(omega), 1e-12)
            step = np.linalg.norm(new_omega - omega) / denom
            omega = new_omega
            if loss_history is not None:
                loss_history.append(huber_loss(y - a @ omega, scale, HUBER_C))
            if step < IRLS_RTOL:
                break
        cleaned = omega.copy()
    if cleaned.max(initial=0.0) > 0:
        cleaned[cleaned < SPARSITY_FRAC * cleaned.max()] = 0.0
    return cleaned


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


def _fold_edges(timestamps: np.ndarray, length_days: int) -> list[np.ndarray]:
    start = timestamps[0].astype("int64")
    day = ((timestamps.astype("int64") - start) // 86400).astype(int)
    fold = day // length_days
    return [fold == k for k in range(int(fold.max()) + 1)]


def identify_with_splits(
    dataset: AlignedDataset,
    sp: SolarPosition,
    ghi_clear: np.ndarray,
    mesh: OrientationMesh,
    params: ProxyParams,
    clear_masks: list[np.ndarray],
    split_days: tuple[int, ...] = (365, 182, 121, 91, 73),
) -> IdentificationResult:
    """Identify coefficients per plant, choosing the best temporal split.

    For every candidate fold length the coefficients are fit per fold
    and scored by the clear-sample reconstruction RMSE (normalized per
    plant) over the whole dataset; the split with the lowest RMSE wins,
    longest split on ties. The exported coefficients per plant come from
    that split's best-reconstructing fold. A plant whose exported
    coefficients would all be zero raises InsufficientDataError.
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

    pr = proxy_matrix(
        ghi_clear, sp, dataset.timestamps, dataset.mean_temperature(),
        mesh.orientations, params, dataset.site,
    ).values
    n_p = pr.shape[1]

    rmse_per_split: list[float] = []
    fold_fits: dict[int, list[list[np.ndarray | None]]] = {}
    for length in usable:
        folds = _fold_edges(dataset.timestamps, length)
        per_plant: list[list[np.ndarray | None]] = []
        sq_sum, n_sq = 0.0, 0
        for i, plant in enumerate(dataset.plants):
            mask = clear_masks[i] & np.isfinite(plant.power)
            fits: list[np.ndarray | None] = []
            carried: np.ndarray | None = None
            for fold_sel in folds:
                rows = mask & fold_sel
                if rows.sum() >= max(n_p, 30):
                    carried = identify_omega(plant.power[rows], pr[rows])
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
                err = (plant.power[rows] - pr[rows] @ omega) / pnom
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
        k for k in range(len(usable))
        if rmse_per_split[k] <= (1.0 + tie_tol) * floor_rmse
    ]
    best_len = max(usable[k] for k in tied)

    omegas = []
    folds = _fold_edges(dataset.timestamps, best_len)
    for i, plant in enumerate(dataset.plants):
        mask = clear_masks[i] & np.isfinite(plant.power)
        best_omega, best_rmse = None, np.inf
        for fold_sel, omega in zip(folds, fold_fits[best_len][i]):
            if omega is None:
                continue
            rows = mask & fold_sel
            if not rows.any():
                continue
            pnom = max(estimate_nominal_power(omega, params), 1e-9)
            rmse = float(
                np.sqrt(np.mean(((plant.power[rows] - pr[rows] @ omega) / pnom) ** 2))
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
        split_days=tuple(usable),
        pv_rmse=tuple(float(r) for r in rmse_per_split),
        chosen_split=best_len,
    )
    return IdentificationResult(omegas=tuple(omegas), mesh=mesh, report=report)


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
