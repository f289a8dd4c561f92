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
import time
from dataclasses import dataclass, field

import numpy as np

from .data import AlignedDataset, InputError, check_settings
from .orientation import OmegaCoefficients
from .proxy import ProxyParams, forward_chain, proxy_matrix
from .reconcile import (
    build_shadow_map,
    smooth_threshold_map,
    trust_weights,
    tukey_gate_matrix,
)
from .solar import SolarPosition, sun_positions, clearsky_ghi


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
    linke_turbidity: float = 3.0

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
            ("trust_bandwidth_deg", 0.0 <= self.trust_bandwidth_deg < inf, "finite and >= 0"),
            ("trust_bin_deg", 0.0 < self.trust_bin_deg < inf, "finite and positive"),
            ("k_q", 0.0 <= self.k_q < inf, "finite and >= 0"),
            ("linke_turbidity", 1.0 <= self.linke_turbidity < inf, "finite and >= 1"),
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
    restriction is exact. A plant whose coefficients are all zero,
    negative or not finite, or whose rating is not a positive finite
    number, is an InputError: its predictions or its rating-normalized
    errors would otherwise make a wrong GHI look converged.

    The GHI-independent part of the chain is built once, as ``chain``.
    ``rows`` restricts the model to a subset of timesteps, so the solver
    evaluates the chain only where the result still depends on it.
    """

    def __init__(
        self,
        dataset: AlignedDataset,
        omegas: tuple[OmegaCoefficients, ...],
        mesh_orientations,
        params: ProxyParams,
        sp: SolarPosition,
    ):
        if len(omegas) != dataset.n_plants:
            raise InputError("one coefficient set per plant is required")
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
        self.chain = forward_chain(
            sp, dataset.timestamps, dataset.mean_temperature(),
            [mesh_orientations[j] for j in support], params, dataset.site,
        )
        self.power = dataset.power_matrix()

    def rows(self, idx: np.ndarray) -> ForwardModel:
        """The model restricted to the timesteps ``idx`` of this model.

        Every step of the chain and of ``plant_power`` is elementwise in
        time, so the restricted model's values equal the matching rows of
        the full model's bit for bit.
        """
        sub = copy.copy(self)
        sub.chain = self.chain.rows(idx)
        sub.power = self.power[idx]
        return sub

    def proxies(self, ghi: np.ndarray) -> np.ndarray:
        return proxy_matrix(ghi, self.chain).values

    def plant_power(self, pr: np.ndarray) -> np.ndarray:
        """Plant powers ``pr @ weights`` for this model's rows.

        Each plant sums its weighted proxy columns in one fixed order, so
        a row's power reads that row alone and is the same in every
        restriction of the model.
        """
        out = np.zeros((len(pr), self.weights.shape[1]))
        for j, i in zip(*np.nonzero(self.weights)):
            out[:, i] += pr[:, j] * self.weights[j, i]
        return out

    def normalized_errors(self, ghi: np.ndarray) -> np.ndarray:
        """Rating-normalized plant errors (measured − predicted) / rating at ``ghi``."""
        return (self.power - self.plant_power(self.proxies(ghi))) / self.pnom[None, :]


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
    so no NaN reaches the sum.
    """
    return np.where(w > 0, w * values, 0.0).sum(axis=1)


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

    Each candidate is a scaled clear-sky profile; per timestep the
    candidate with the lowest weighted mean absolute error wins. Night
    steps are zero; daytime steps with no usable plant fall back to the
    clear-sky value. The grid is evaluated on the daytime steps only.
    """
    ghi_max = cfg.k_safety * np.asarray(ghi_clear, float)
    day = model.chain.daytime & (ghi_max > 0)
    t_count = len(ghi_max)
    rows = np.flatnonzero(day)
    day_model = model.rows(rows)
    day_trust = trust[rows]
    day_max = ghi_max[rows]

    best_score = np.full(rows.size, np.inf)
    best_day = np.zeros(rows.size)
    # errors are finite where power is, so power fixes every candidate's weights
    w = _objective_weights(day_model.power, day_trust, np.ones_like(day_trust, dtype=bool))
    day_data = w.sum(axis=1) > 0
    for g in range(1, cfg.n_grid + 1):
        cand = (g / cfg.n_grid) * day_max
        score = _weighted_sum(w, np.abs(day_model.normalized_errors(cand)))
        better = day_data & (score < best_score)
        best_score[better] = score[better]
        best_day[better] = cand[better]
    best_ghi = np.zeros(t_count)
    best_ghi[rows] = best_day
    any_data = np.zeros(t_count, dtype=bool)
    any_data[rows] = day_data

    no_info = day & ~any_data
    best_ghi[no_info] = np.asarray(ghi_clear, float)[no_info]

    # every reporting plant at exactly zero power means deep overcast (or
    # an outage): seed at zero rather than the smallest grid candidate
    power = model.power
    with np.errstate(invalid="ignore"):
        all_zero = np.where(np.isfinite(power), power == 0.0, True).all(axis=1)
    dark = day & any_data & all_zero
    best_ghi[dark] = 0.0

    state = EstimationState(
        ghi=best_ghi,
        errors=model.normalized_errors(best_ghi),
        lambdas=np.full(t_count, cfg.lambda0),
        ghi_max=ghi_max,
        iterations=np.zeros(t_count, dtype=int),
        converged=np.zeros(t_count, dtype=bool),
    )
    state.converged[~day] = True
    return state


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
    timestep is frozen or at the iteration cap.

    Each iteration pays only for what changed. The objective weights
    depend on trust, the gate and which power samples exist, never on
    GHI, so they are fixed for the round. A rejected step leaves a
    timestep's GHI and errors as they were, and so its gradient: the
    gradient is taken for every active timestep at the start of the
    round and retaken only where the last step was kept.

    ``state.errors`` must be this model's normalized errors at
    ``state.ghi``, as every state from ``init_ghi`` and ``refine_ghi``
    holds; the round starts from them rather than evaluating the chain.
    """
    ghi = state.ghi.copy()
    lam = np.full_like(ghi, cfg.lambda0)
    day = model.chain.daytime & (state.ghi_max > 0)

    errors = state.errors.copy()
    w = _objective_weights(errors, trust, gate)
    h = np.abs(_weighted_sum(w, errors))
    has_data = w.sum(axis=1) > 0
    active = day & has_data
    scored = np.flatnonzero(active)  # the rows the round's objective sums
    direction = np.zeros_like(ghi)
    moved = active.copy()  # timesteps whose gradient is to be (re)taken

    round_history = [float(h[scored].sum())]
    # np.nansum's own operand, kept up to date row by row
    squared = _squared(errors)
    state.err_history.append(float(np.sqrt(squared.sum())))

    iterations = state.iterations
    bound_violation = max(state.bound_violation, _bound_violation(ghi, state.ghi_max))
    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        rows = np.flatnonzero(moved)
        if rows.size:
            grad = _gradient(model.rows(rows), ghi[rows], w[rows], cfg, errors[rows])
            flat = np.abs(grad) <= GRAD_FLOOR
            direction[rows] = np.where(flat, 0.0, np.sign(grad))
            active[rows[flat]] = False  # a flat gradient freezes the step

        rows = np.flatnonzero(active)
        cand = np.clip(ghi[rows] - lam[rows] * direction[rows], 0.0, state.ghi_max[rows])
        err_cand = model.rows(rows).normalized_errors(cand)
        h_cand = np.abs(_weighted_sum(w[rows], err_cand))

        improved = h_cand < h[rows]
        kept = rows[improved]
        ghi[kept] = cand[improved]
        errors[kept] = err_cand[improved]
        h[kept] = h_cand[improved]
        rejected = rows[~improved]
        lam[rejected] = lam[rejected] * cfg.k_decay
        iterations[rows] += 1
        active[rows[lam[rows] < LAMBDA_MIN]] = False
        moved[:] = False
        moved[kept] = True

        # only the kept rows changed their GHI and errors
        bound_violation = max(
            bound_violation, _bound_violation(ghi[kept], state.ghi_max[kept])
        )
        squared[kept] = _squared(errors[kept])
        state.err_history.append(float(np.sqrt(squared.sum())))
        round_history.append(float(h[scored].sum()))

    state.objective_history.append(round_history)
    state.ghi = ghi
    state.errors = errors
    state.lambdas = lam
    state.iterations = iterations
    state.converged = state.converged | (day & has_data & ~active)
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
    seconds_per_sample: float

    @property
    def converged(self) -> np.ndarray:
        return self.state.converged


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
    ungated, unweighted objective. ``threads`` is accepted and ignored:
    the solve is single-threaded.
    """
    t0 = time.perf_counter()
    sp = sun_positions(dataset.timestamps, dataset.site)
    if ghi_clear is None:
        ghi_clear = clearsky_ghi(
            dataset.timestamps, dataset.site, linke_turbidity=cfg.linke_turbidity
        )
    model = ForwardModel(dataset, omegas, mesh_orientations, params, sp)

    n_pv = dataset.n_plants
    if n_pv > 1 and cfg.use_trust:
        pred_clear = model.plant_power(model.proxies(np.asarray(ghi_clear, float)))
        maps = []
        for i, plant in enumerate(dataset.plants):
            raw = build_shadow_map(
                plant, pred_clear[:, i], model.pnom[i], sp,
                bin_deg=cfg.trust_bin_deg,
            )
            maps.append(
                smooth_threshold_map(
                    raw, bandwidth_deg=cfg.trust_bandwidth_deg, floor=cfg.trust_floor
                )
            )
        trust = trust_weights(maps, sp, floor=cfg.trust_floor)
    else:
        trust = np.full((dataset.n_steps, n_pv), 1.0 / n_pv)

    state = init_ghi(model, ghi_clear, trust, cfg)

    gating = cfg.use_gate and n_pv >= 3
    rounds = GATE_ROUNDS if gating else 1
    gate = np.ones((dataset.n_steps, n_pv), dtype=bool)
    for _ in range(rounds):
        if gating:
            gate = tukey_gate_matrix(state.errors, k_q=cfg.k_q)
        state = refine_ghi(model, state, trust, gate, cfg)

    used = (np.isfinite(state.errors) & gate).sum(axis=1)
    elapsed = time.perf_counter() - t0
    return SolveResult(
        timestamps=dataset.timestamps,
        ghi=state.ghi,
        state=state,
        trust=trust,
        gate=gate,
        n_plants_used=used,
        ghi_clear=np.asarray(ghi_clear, float),
        seconds_per_sample=elapsed / max(dataset.n_steps, 1),
    )
