"""GHI inverse solver.

The objective separates over timesteps: at each instant the scalar
unknown GHI_t is chosen so the simulated plant powers match the
measured ones. A coarse grid over [0, k_safety * clear-sky] seeds the
solution; per-timestep descent with an exponentially decaying step then
refines it. Timesteps are fully independent: solving any subset gives
bit-identical values for those timesteps.

Per timestep the scalar objective is the absolute trust-weighted,
outlier-gated mean of the normalized plant errors. Its gradient is the
forward difference of those errors over a fixed GHI step. Descent
steps move GHI by the step size along the gradient sign; a step that
does not decrease the objective is reverted and the step size decays by
a constant factor, so after m rejections the step is lambda0 * k^m.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .data import AlignedDataset, InputError, check_settings
from .orientation import OmegaCoefficients
from .proxy import ProxyParams, forward_chain, proxy_matrix
from .reconcile import (
    build_shadow_map,
    smooth_threshold_map,
    sun_bin_keys,
    trust_weights,
    tukey_gate_matrix,
)
from .solar import SolarPosition, site_sky


ZERO_MEAN_TOL = 1e-12  # normalized mean errors below this are float noise
LAMBDA_MIN = 0.05      # W/m^2, a timestep freezes once its step is below this
GRAD_FLOOR = 1e-9      # gradients at or below this count as flat
GATE_ROUNDS = 2        # outlier-gate refresh passes


@dataclass(frozen=True)
class SolverConfig:
    """Solver and reconciliation settings; a value out of range is a SettingError."""

    n_grid: int = 30                 # grid-search resolution
    k_safety: float = 1.3            # clear-sky multiplier bounding GHI
    delta_ghi: float = 1.0           # W/m^2, forward-difference step
    lambda0: float = 20.0            # W/m^2, initial descent step
    k_decay: float = 0.5             # step decay per rejected update
    max_iterations: int = 100
    use_trust: bool = True
    use_gate: bool = True
    trust_floor: float = 0.02        # shadow-map threshold
    trust_bandwidth_deg: float = 6.0
    trust_bin_deg: float = 2.0
    k_q: float = 1.5                 # Tukey fence multiplier

    def __post_init__(self):
        inf = np.inf
        check_settings(self, (
            ("n_grid", 2 <= self.n_grid, ">= 2"),
            ("k_safety", 1.0 <= self.k_safety < inf, "finite and >= 1"),
            ("delta_ghi", 0.0 < self.delta_ghi < inf, "finite and positive"),
            ("lambda0", LAMBDA_MIN <= self.lambda0 < inf, f"finite and >= {LAMBDA_MIN}"),
            ("k_decay", 0.0 < self.k_decay < 1.0, "in (0, 1)"),
            ("max_iterations", 1 <= self.max_iterations, ">= 1"),
            ("trust_floor", 0.0 < self.trust_floor < inf, "finite and positive"),
            ("trust_bandwidth_deg", 0.0 <= self.trust_bandwidth_deg <= 90.0, "in [0, 90]"),
            ("trust_bin_deg", 0.5 <= self.trust_bin_deg <= 90.0, "in [0.5, 90]"),
            ("k_q", 0.0 <= self.k_q < inf, "finite and >= 0"),
        ))


@dataclass
class EstimationState:
    ghi: np.ndarray
    errors: np.ndarray            # (T, n_plants) normalized PV errors
    lambdas: np.ndarray
    ghi_max: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    err_history: list = field(default_factory=list)       # Frobenius of errors
    objective_history: list = field(default_factory=list)  # accepted objective per round
    bound_violation: float = 0.0


class ForwardModel:
    """Plant power predictions restricted to the used orientations.

    Only mesh columns carrying weight for at least one plant are
    evaluated; dropped columns multiply zero coefficients, so the
    restriction is exact. Each dataset plant takes the coefficient set
    of its id, whatever the order of ``omegas``; sets of other plants
    are ignored. A dataset plant without a set, an id given twice, or a
    plant whose coefficients are all zero, negative or not finite, or
    whose rating is not a positive finite number, is an InputError: a
    wrong GHI would otherwise look converged.

    The GHI-independent part of the chain is built once, as ``chain``,
    on the dataset's timesteps ``rows`` (integer indices, all when None),
    whose sun positions ``sp`` holds, and nowhere else. The method
    ``rows`` restricts the model further, so the solver evaluates the
    chain only where the result still depends on it.
    """

    def __init__(
        self,
        dataset: AlignedDataset,
        omegas: tuple[OmegaCoefficients, ...],
        mesh_orientations,
        params: ProxyParams,
        sp: SolarPosition,
        rows: np.ndarray | None = None,
    ):
        ids = [oc.plant_id for oc in omegas]
        twice = sorted({i for i in ids if ids.count(i) > 1})
        if twice:
            raise InputError(f"coefficients of plant(s) {', '.join(twice)} given twice")
        missing = [p.plant_id for p in dataset.plants if p.plant_id not in ids]
        if missing:
            raise InputError(f"no coefficients for plant(s) {', '.join(missing)}")
        omegas = [omegas[ids.index(p.plant_id)] for p in dataset.plants]
        weights = np.column_stack([oc.omega for oc in omegas])
        if weights.shape[0] != len(mesh_orientations):
            raise InputError("coefficient length does not match the mesh")
        pnom = np.array([oc.estimated_pnom for oc in omegas], dtype=float)
        unusable = [
            oc.plant_id
            for oc, rating in zip(omegas, pnom)
            if not (oc.omega.any() and np.all((oc.omega >= 0) & (oc.omega < np.inf))
                    and 0 < rating < np.inf)
        ]
        if unusable:
            raise InputError(
                f"plant(s) {', '.join(unusable)}: coefficients all zero, negative or not "
                "finite, or rating not a positive finite number"
            )
        support = np.flatnonzero(weights.any(axis=1))
        self.weights = weights[support]
        self.pnom = pnom
        at = slice(None) if rows is None else rows
        # the mean temperature fills gaps from neighbouring steps, so it is taken on every step
        self.chain = forward_chain(
            sp, dataset.timestamps[at], dataset.mean_temperature()[at],
            [mesh_orientations[j] for j in support], params, dataset.site,
        )
        self.power = dataset.power_matrix()[at]

    def rows(self, idx: np.ndarray) -> ForwardModel:
        """The model restricted to the timesteps ``idx`` of this model.

        Every step of the chain and of ``plant_power`` is elementwise in
        time, so the restricted model's values equal the matching rows of
        the full model's bit for bit. All of its own rows, in order, are
        the model itself, not a copy.
        """
        if len(idx) == len(self.power) and np.array_equal(idx, np.arange(len(idx))):
            return self
        sub = copy.copy(self)
        sub.chain = self.chain.rows(idx)
        sub.power = self.power[idx]
        return sub

    def proxies(self, ghi: np.ndarray) -> np.ndarray:
        return proxy_matrix(ghi, self.chain).values

    def plant_power(self, ghi: np.ndarray) -> np.ndarray:
        """Plant powers ``proxies(ghi) @ weights`` for this model's rows.

        Each plant sums its weighted proxy columns in one fixed order, so
        a row's power reads that row alone and is the same in every
        restriction of the model.
        """
        pr = self.proxies(ghi)
        out = np.zeros((len(pr), self.weights.shape[1]))
        for j, i in zip(*np.nonzero(self.weights)):
            out[:, i] += pr[:, j] * self.weights[j, i]
        return out

    def normalized_errors(self, ghi: np.ndarray) -> np.ndarray:
        """Rating-normalized plant errors (measured − predicted) / rating at ``ghi``."""
        return (self.power - self.plant_power(ghi)) / self.pnom[None, :]


def _objective_weights(
    errors: np.ndarray, trust: np.ndarray, gate: np.ndarray
) -> np.ndarray:
    """Per-entry weights, renormalized over available (kept) plants.

    Only where ``errors`` is finite matters. The proxies are finite, so
    errors are finite exactly where power is, whatever the GHI: the
    weights are fixed for a given trust and gate.
    """
    avail = np.isfinite(errors) & gate
    w = np.where(avail, trust, 0.0)
    total = w.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(total > 0, w / total, 0.0)
    return w


def _weighted_sum(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-timestep sum of ``w * values`` over the entries with weight.

    Entries without weight, missing ones among them, contribute nothing,
    so no NaN reaches the sum. The plant columns are added left to right,
    the order in which numpy's row sum adds fewer than 8 columns.
    """
    return functools.reduce(np.add, np.where(w > 0, w * values, 0.0).T)


def _gradient(
    model: ForwardModel,
    ghi: np.ndarray,
    w: np.ndarray,
    cfg: SolverConfig,
    errors: np.ndarray,
) -> np.ndarray:
    """Forward-difference gradient of |weighted mean error| at fixed weights.

    ``errors`` are the model's normalized errors at ``ghi``.
    """
    plus = model.normalized_errors(np.asarray(ghi, float) + cfg.delta_ghi)
    derr = (plus - errors) / cfg.delta_ghi
    mean = _weighted_sum(w, errors)
    sign = np.where(np.abs(mean) > ZERO_MEAN_TOL, np.sign(mean), 0.0)
    return sign * _weighted_sum(w, derr)


def _squared(errors: np.ndarray) -> np.ndarray:
    """``errors**2`` with missing entries zero, as ``np.nansum`` sums it."""
    sq = errors**2
    sq[np.isnan(sq)] = 0.0
    return sq


def _bound_violation(ghi: np.ndarray, ghi_max: np.ndarray) -> float:
    """How far ``ghi`` leaves [0, ghi_max], zero when it stays inside."""
    return max(
        float(np.max(ghi - ghi_max, initial=0.0)), float(np.max(-ghi, initial=0.0))
    )


def init_ghi(
    model: ForwardModel,
    ghi_clear: np.ndarray,
    trust: np.ndarray,
    cfg: SolverConfig,
) -> EstimationState:
    """Grid search over [0, k_safety * clear-sky] per timestep.

    Every row of ``model`` is taken as solved, sun up and clear-sky > 0,
    as ``estimate`` builds it; ``ghi_clear`` and ``trust`` hold the same
    rows. Each candidate is a scaled clear-sky profile; per timestep the
    candidate with the lowest weighted mean absolute error wins. The
    grid covers only the steps it decides: some plant reporting and not
    every reporting plant at exactly 0 W. The other steps are seeded
    without it: steps with no usable plant at the clear-sky value, and
    dark steps, where every reporting plant reads 0 W (deep overcast or
    an outage), at zero rather than the smallest candidate.
    """
    ghi_clear = np.asarray(ghi_clear, float)
    ghi_max = cfg.k_safety * ghi_clear
    t_count = len(ghi_max)
    power = model.power
    # errors are finite where power is, so power fixes every candidate's weights
    w = _objective_weights(power, trust, np.ones_like(trust, dtype=bool))
    has_data = w.sum(axis=1) > 0
    with np.errstate(invalid="ignore"):
        all_zero = np.where(np.isfinite(power), power == 0.0, True).all(axis=1)
    ghi = np.where(has_data, 0.0, ghi_clear)

    rows = np.flatnonzero(has_data & ~all_zero)
    grid_model = model.rows(rows)
    grid_w = w[rows]
    top = ghi_max[rows]
    best_score = np.full(rows.size, np.inf)
    best = np.zeros(rows.size)
    for g in range(1, cfg.n_grid + 1):
        cand = (g / cfg.n_grid) * top
        score = _weighted_sum(grid_w, np.abs(grid_model.normalized_errors(cand)))
        better = score < best_score
        best_score = np.where(better, score, best_score)
        best = np.where(better, cand, best)
    ghi[rows] = best

    return EstimationState(
        ghi=ghi,
        errors=model.normalized_errors(ghi),
        lambdas=np.full(t_count, cfg.lambda0),
        ghi_max=ghi_max,
        iterations=np.zeros(t_count, dtype=int),
        converged=np.zeros(t_count, dtype=bool),
    )


def refine_ghi(
    model: ForwardModel,
    state: EstimationState,
    trust: np.ndarray,
    gate: np.ndarray,
    cfg: SolverConfig,
) -> EstimationState:
    """Per-timestep descent from the grid initialization.

    Steps move GHI by the current per-timestep step size along the
    gradient sign, clamped to [0, k_safety * clear-sky]. A step that
    does not strictly decrease the timestep objective is reverted and
    the step decays; a timestep freezes once its step falls below
    LAMBDA_MIN or its gradient vanishes. Iteration stops when every
    timestep is frozen or at the iteration cap. ``state.converged``
    becomes this round's verdict alone: the rows with data that froze,
    whatever an earlier round said. Every row of ``model``
    is taken as solved, sun up and clear-sky > 0, as ``estimate`` builds
    it: each row with data is descended and enters
    ``state.bound_violation``.

    Each iteration pays only for what changed. The objective weights
    depend on trust, the gate and which power samples exist, never on
    GHI, so they are fixed for the round. A rejected step leaves a
    timestep's GHI and errors as they were, and so its gradient: the
    gradient is taken for every active timestep at the start of the
    round and retaken only where the last step was kept. The model is
    restricted to the active timesteps at the start of the round and
    again, from that restriction, each time some of them freeze; the
    candidate steps run on it as it is, the gradients on its moved rows.

    ``state.errors`` must be this model's normalized errors at
    ``state.ghi``, as every state from ``init_ghi`` and ``refine_ghi``
    holds; the round starts from them rather than evaluating the chain,
    and updates them in place.
    """
    ghi = state.ghi.copy()
    lam = np.full_like(ghi, cfg.lambda0)

    errors = state.errors
    w = _objective_weights(errors, trust, gate)
    h = np.abs(_weighted_sum(w, errors))
    has_data = w.sum(axis=1) > 0
    active = has_data.copy()
    scored = np.flatnonzero(active)  # the rows the round's objective sums
    direction = np.zeros_like(ghi)

    round_history = [float(h[scored].sum())]
    # np.nansum's own operand, kept up to date row by row
    squared = _squared(errors)
    state.err_history.append(float(np.sqrt(squared.sum())))

    iterations = state.iterations
    bound_violation = max(state.bound_violation, _bound_violation(ghi, state.ghi_max))
    live = scored  # the timesteps of ``sub``: the active ones, as of the last restriction
    sub = model.rows(live)
    moved = np.arange(live.size)  # positions in ``live`` whose gradient is to be (re)taken
    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        if moved.size:
            rows = live[moved]
            grad = _gradient(sub.rows(moved), ghi[rows], w[rows], cfg, errors[rows])
            flat = np.abs(grad) <= GRAD_FLOOR
            direction[rows] = np.where(flat, 0.0, np.sign(grad))
            active[rows[flat]] = False  # a flat gradient freezes the step
        still = active[live]
        if not still.all():
            live = live[still]
            sub = sub.rows(np.flatnonzero(still))

        rows = live
        cand = np.clip(ghi[rows] - lam[rows] * direction[rows], 0.0, state.ghi_max[rows])
        err_cand = sub.normalized_errors(cand)
        h_cand = np.abs(_weighted_sum(w[rows], err_cand))

        improved = h_cand < h[rows]
        moved = np.flatnonzero(improved)  # kept steps keep their step size, so stay active
        kept = rows[moved]
        kept_ghi, kept_errors = cand[moved], err_cand[moved]
        ghi[kept] = kept_ghi
        errors[kept] = kept_errors
        h[kept] = h_cand[moved]
        step = lam[rows]
        step = np.where(improved, step, step * cfg.k_decay)
        lam[rows] = step
        iterations[rows] += 1
        active[rows[step < LAMBDA_MIN]] = False

        # only the kept rows changed their GHI and errors
        bound_violation = max(
            bound_violation, _bound_violation(kept_ghi, state.ghi_max[kept])
        )
        squared[kept] = _squared(kept_errors)
        state.err_history.append(float(np.sqrt(squared.sum())))
        round_history.append(float(h[scored].sum()))

    state.objective_history.append(round_history)
    state.ghi = ghi
    state.lambdas = lam
    state.iterations = iterations
    state.converged = has_data & ~active
    state.bound_violation = bound_violation
    return state


@dataclass
class SolveResult:
    timestamps: np.ndarray
    ghi: np.ndarray
    state: EstimationState
    trust: np.ndarray
    gate: np.ndarray
    n_plants_used: np.ndarray
    ghi_clear: np.ndarray
    solved: np.ndarray  # the timesteps the solver solves: sun up and clear-sky > 0
    seconds_per_sample: float

    @property
    def converged(self) -> np.ndarray:
        return self.state.converged


def _every_step(values: np.ndarray, rows: np.ndarray, fill, t_count: int) -> np.ndarray:
    """``values`` of the timesteps ``rows`` among ``t_count``, ``fill`` on the others."""
    out = np.full((t_count, *values.shape[1:]), fill, dtype=values.dtype)
    out[rows] = values
    return out


def _shadow_trust(
    model: ForwardModel, ghi_clear: np.ndarray, sp: SolarPosition, cfg: SolverConfig
) -> np.ndarray:
    """Per-timestep, per-plant trust weights from the plants' shadow maps.

    ``ghi_clear`` and ``sp`` hold the clear sky and sun positions of the
    model's rows, which are binned once: the maps read those rows alone,
    their power and their clear-sky power, and the weights are read at
    them. The clear-sky power and the maps are released on return.
    """
    keys = sun_bin_keys(sp, cfg.trust_bin_deg)
    maps = smooth_threshold_map(
        build_shadow_map(
            model.power, model.plant_power(ghi_clear), model.pnom, keys, cfg.trust_bin_deg
        ),
        cfg.trust_bin_deg, bandwidth_deg=cfg.trust_bandwidth_deg, floor=cfg.trust_floor,
    )
    return trust_weights(maps, keys, floor=cfg.trust_floor)


def estimate(
    dataset: AlignedDataset,
    omegas: tuple[OmegaCoefficients, ...],
    mesh_orientations,
    params: ProxyParams = ProxyParams(),
    cfg: SolverConfig = SolverConfig(),
    ghi_clear: np.ndarray | None = None,
    threads: int = 1,
) -> SolveResult:
    """Full estimation pipeline for one aligned dataset.

    Builds shadow maps and trust weights (for two or more plants), runs
    the grid initialization, then alternates outlier gating with descent
    refinement a fixed number of rounds. A single plant reduces to the
    ungated, unweighted objective. ``ghi_clear`` is read by
    ``site_sky``: None is the site's clear-sky model. ``threads`` is
    accepted and ignored: the solve is single-threaded.

    Every stage, the model, the trust, the gate, the grid and the
    descent, holds the solved timesteps only: the modelled rows of
    ``site_sky``, sun up and clear-sky > 0. Every other timestep gets
    its values in closed form: GHI 0, converged after 0 iterations at
    step ``lambda0``, each plant's error its power over its rating,
    trust 1/n and no plant gated.
    """
    t0 = time.perf_counter()
    sp, ghi_clear, solved = site_sky(ghi_clear, dataset.timestamps, dataset.site)
    rows = np.flatnonzero(solved)
    sun = SolarPosition(sp.azimuth[rows], sp.zenith[rows])
    model = ForwardModel(dataset, omegas, mesh_orientations, params, sun, rows)
    clear = ghi_clear[rows]

    n_pv = dataset.n_plants
    if n_pv > 1 and cfg.use_trust:
        trust = _shadow_trust(model, clear, sun, cfg)
    else:
        trust = np.full(model.power.shape, 1.0 / n_pv)
    state = init_ghi(model, clear, trust, cfg)

    gating = cfg.use_gate and n_pv >= 3
    gate = np.ones(trust.shape, dtype=bool)
    for _ in range(GATE_ROUNDS if gating else 1):
        if gating:
            gate = tukey_gate_matrix(state.errors, k_q=cfg.k_q)
        state = refine_ghi(model, state, trust, gate, cfg)

    t_count = dataset.n_steps
    # GHI 0 leaves each plant's error at its power over its rating
    errors = dataset.power_matrix()
    errors /= model.pnom
    errors[rows] = state.errors
    state.errors = errors
    state.ghi = _every_step(state.ghi, rows, 0.0, t_count)
    state.lambdas = _every_step(state.lambdas, rows, cfg.lambda0, t_count)
    state.iterations = _every_step(state.iterations, rows, 0, t_count)
    state.converged = _every_step(state.converged, rows, True, t_count)
    state.ghi_max = cfg.k_safety * ghi_clear
    gate = _every_step(gate, rows, True, t_count)
    elapsed = time.perf_counter() - t0
    return SolveResult(
        timestamps=dataset.timestamps,
        ghi=state.ghi,
        state=state,
        trust=_every_step(trust, rows, 1.0 / n_pv, t_count),
        gate=gate,
        n_plants_used=(np.isfinite(errors) & gate).sum(axis=1),
        ghi_clear=ghi_clear,
        solved=solved,
        seconds_per_sample=elapsed / max(dataset.n_steps, 1),
    )
