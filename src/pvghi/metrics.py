"""Estimation-error metrics: normalized RMSE and bias/spread decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InputError


@dataclass(frozen=True)
class DailyDecomposition:
    dates: tuple  # numpy datetime64[D] values
    bias: np.ndarray
    std: np.ndarray
    rmse: np.ndarray


@dataclass(frozen=True)
class MetricReport:
    k_n: float
    rmse: float
    nrmse: float
    bias: float
    std: float
    n_samples: int
    abs_rel_error_quantiles: dict
    daily: DailyDecomposition | None = None

    @property
    def identity_residual(self) -> float:
        """|bias^2 + std^2 - rmse^2| relative to rmse^2; ~0 by construction."""
        if self.rmse == 0:
            return 0.0
        return abs(self.bias**2 + self.std**2 - self.rmse**2) / self.rmse**2


def normalized_rmse(
    est: np.ndarray, ref: np.ndarray, timestamps: np.ndarray | None = None
) -> MetricReport:
    """Error metrics of an estimate against a reference series.

    The normalizer k_n is the mean of the strictly positive reference
    samples; RMSE, bias and the (population) standard deviation are
    taken over all samples, so bias^2 + std^2 equals RMSE^2 exactly.
    """
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.shape != ref.shape:
        raise InputError("series lengths differ")
    positive = ref > 0
    if not positive.any():
        raise InputError("reference has no positive samples")
    k_n = float(ref[positive].mean())
    err = est - ref
    rmse = float(np.sqrt(np.mean(err**2)))
    bias = float(err.mean())
    std = float(err.std())
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(err[positive]) / ref[positive]
    quantiles = {
        f"q{int(q * 100):02d}": float(np.percentile(rel, q * 100))
        for q in (0.25, 0.50, 0.75, 0.90)
    }
    daily = None
    if timestamps is not None:
        daily = bias_std_daily(est, ref, timestamps)
    return MetricReport(
        k_n=k_n,
        rmse=rmse,
        nrmse=rmse / k_n,
        bias=bias,
        std=std,
        n_samples=int(est.size),
        abs_rel_error_quantiles=quantiles,
        daily=daily,
    )


def bias_std_daily(
    est: np.ndarray, ref: np.ndarray, timestamps: np.ndarray
) -> DailyDecomposition:
    """Per-calendar-day bias and spread of the estimation error."""
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    days = ts.astype("datetime64[D]")
    err = np.asarray(est, float) - np.asarray(ref, float)
    uniq = np.unique(days)
    bias = np.empty(len(uniq))
    std = np.empty(len(uniq))
    rmse = np.empty(len(uniq))
    for k, d in enumerate(uniq):
        e = err[days == d]
        bias[k] = e.mean()
        std[k] = e.std()
        rmse[k] = np.sqrt(np.mean(e**2))
    return DailyDecomposition(dates=tuple(uniq), bias=bias, std=std, rmse=rmse)


def block_average(
    values: np.ndarray, timestamps: np.ndarray, period_seconds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Average a series over aligned blocks of the given period.

    Only full blocks are kept; block timestamps are the block starts.
    The sampling step is the smallest spacing, so a series with missing
    samples removed keeps its step and loses only the blocks they fall in.
    """
    ts = np.asarray(timestamps, dtype="datetime64[s]").astype("int64")
    values = np.asarray(values, dtype=float)
    if len(ts) < 2:
        return values.copy(), np.asarray(timestamps)
    step = int(np.diff(ts).min())
    per_block = period_seconds // step
    if per_block <= 1:
        return values.copy(), np.asarray(timestamps)
    anchor = (ts - ts[0]) // period_seconds
    n_blocks = int(anchor[-1]) + 1
    out_vals, out_ts = [], []
    for b in range(n_blocks):
        sel = anchor == b
        if sel.sum() == per_block:
            out_vals.append(values[sel].mean())
            out_ts.append(ts[sel][0])
    return np.array(out_vals), np.array(out_ts, dtype="int64").astype("datetime64[s]")
