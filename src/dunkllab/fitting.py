"""Constant-fitting protocols shared by the verification checks.

Every existence statement "there exist C, c > 0 such that ..." becomes a
deterministic two-stage procedure: fit the constants on a calibration subset,
then require the inequality (with a fixed 1.05 slack) on a disjoint held-out
subset.  Splits are alternating-index on sorted data, never random.
Data too short for a fit raises FitConvergenceError, as a failed solver does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import AccuracyError, FitConvergenceError
from .report import MARGIN_CAP

SAMPLE_FLOOR = 1e-12
MIN_SAMPLES = 20
MIN_SPAN_RATIO = 4.0
HOLDOUT_SLACK = 1.05
GARDING_C_CAP = 100.0


@dataclass(frozen=True)
class DecayFitReport:
    """Outcome of the model |q|(r) ~ C exp(-c r^p) fitted in log space."""

    exponent_fitted: float
    c_fitted: float
    C_fitted: float
    r_squared: float
    sample_range: tuple[float, float]
    n_samples: int


def fit_decay_exponent(samples, p0: float = 1.5) -> DecayFitReport:
    """Nonlinear least squares of log|q| = log C - c r^p over (log C, c, p).

    ``samples`` is a sequence of (r, |q|) pairs.  Pairs with |q| <=
    SAMPLE_FLOOR are discarded before fitting; at least MIN_SAMPLES must
    remain, spanning an r-ratio of at least MIN_SPAN_RATIO (else
    FitConvergenceError).  Initialization
    is fixed (c0 = 1, C0 = max|q|, p0 as given), so the fit is deterministic.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (r, |q|) pairs")
    arr = arr[arr[:, 1] > SAMPLE_FLOOR]
    if len(arr) < MIN_SAMPLES:
        raise FitConvergenceError(
            f"need at least {MIN_SAMPLES} samples above the floor, "
            f"got {len(arr)}")
    r, q = arr[:, 0], arr[:, 1]
    if np.min(r) <= 0:
        raise ValueError("radii must be positive")
    if np.max(r) / np.min(r) < MIN_SPAN_RATIO:
        raise FitConvergenceError(
            f"samples must span a radius ratio of at least {MIN_SPAN_RATIO}")
    logq = np.log(q)

    def residual(theta):
        logC, c, p = theta
        return (logC - c * r**p) - logq

    x0 = np.array([np.log(np.max(q)), 1.0, p0])
    sol = least_squares(residual, x0, bounds=([-np.inf, 1e-10, 1e-10],
                                              [np.inf, np.inf, np.inf]),
                        max_nfev=500)
    if not sol.success:
        raise FitConvergenceError(f"decay fit did not converge: {sol.message}")
    logC, c, p = sol.x
    ss_res = float(np.sum(sol.fun**2))
    ss_tot = float(np.sum((logq - logq.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFitReport(exponent_fitted=float(p), c_fitted=float(c),
                          C_fitted=float(np.exp(logC)), r_squared=float(r2),
                          sample_range=(float(np.min(r)), float(np.max(r))),
                          n_samples=int(len(r)))


def alternating_split(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic calibration/held-out index split: even vs odd positions."""
    idx = np.arange(n)
    return idx[0::2], idx[1::2]


def envelope_fit(d: np.ndarray, vals: np.ndarray,
                 p: float) -> tuple[float, float]:
    """Fit (c, C) in vals <= C exp(-c d^p) with the exponent p imposed.

    The rate c is the least-squares slope of log(vals) against -d^p; the
    amplitude C is then the envelope max vals*exp(c d^p), so the bound holds
    with equality somewhere on the calibration data.
    """
    d = np.asarray(d, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = vals > SAMPLE_FLOOR
    d, vals = d[keep], vals[keep]
    if len(d) < 2:
        raise FitConvergenceError("need at least two samples above the floor")
    x = d**p
    logv = np.log(vals)
    slope, _ = np.polyfit(x, logv, 1)
    c = -float(slope)
    C = float(np.max(vals * np.exp(c * x)))
    return c, C


def _upper_hull(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper convex hull of (z, y), z strictly increasing.

    Monotone-chain with colinear interior points dropped, so colinear data
    reduce to its two endpoints.
    """
    stack: list[int] = []
    for i in range(len(z)):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            cross = ((z[b] - z[a]) * (y[i] - y[a])
                     - (y[b] - y[a]) * (z[i] - z[a]))
            if cross >= 0:
                stack.pop()
            else:
                break
        stack.append(i)
    idx = np.asarray(stack, dtype=int)
    return z[idx], y[idx]


def envelope_fit_upper(z: np.ndarray,
                       vals: np.ndarray) -> tuple[float, float]:
    """Fit (c, C) in vals <= C exp(-c z) through the upper envelope.

    The rate c is the least-squares slope through the vertices of the upper
    convex hull of (z, log vals).  Samples strictly below the envelope
    (e.g. heat values at pairs whose plain distance exceeds the orbit
    distance) cannot tilt the fit; when the true envelope is exactly
    exponential and attained, the hull degenerates to its two endpoints and
    c is recovered exactly.  C then makes the bound tight on the data.
    """
    z = np.asarray(z, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = vals > SAMPLE_FLOOR
    z, vals = z[keep], vals[keep]
    if len(z) < 2:
        raise FitConvergenceError("need at least two samples above the floor")
    order = np.lexsort((vals, z))
    z, vals = z[order], vals[order]
    logv = np.log(vals)
    distinct = np.flatnonzero(np.r_[True, np.diff(z) > 0])
    # per distinct z keep only the largest value (last index in each tie run)
    top = np.r_[distinct[1:] - 1, len(z) - 1]
    zu, yu = z[top], logv[top]
    if len(zu) < 2:
        raise FitConvergenceError("need at least two distinct z values")
    zh, yh = _upper_hull(zu, yu)
    if len(zh) >= 3:
        slope = float(np.polyfit(zh, yh, 1)[0])
    else:
        slope = float((yh[1] - yh[0]) / (zh[1] - zh[0]))
    c = -slope
    C = float(np.max(vals * np.exp(c * z)))
    return c, C


def holdout_ratio(vals: np.ndarray, bounds: np.ndarray, labels=None) -> float:
    """The held-out judgement: max vals / bounds, at most MARGIN_CAP; <= 1
    passes.  A bound <= 0 fails outright, at MARGIN_CAP.  A value that
    underflows to 0 together with its bound has no ratio (0/0):
    AccuracyError, naming those samples by their ``labels`` when given.  A
    NaN passes through to the report's non-finite guard."""
    vals, bounds = (np.asarray(x, dtype=float) for x in (vals, bounds))
    both = (vals == 0) & (bounds == 0)
    if np.any(both):
        where = ("" if labels is None else
                 " at " + ", ".join(sorted(set(np.asarray(labels)[both]))))
        raise AccuracyError(
            f"{int(np.sum(both))} held-out values and their bound both "
            f"underflow to 0{where}")
    if np.any(bounds <= 0):
        return MARGIN_CAP
    return float(np.minimum(np.max(vals / bounds), MARGIN_CAP))


def envelope_holdout_ratio(d: np.ndarray, vals: np.ndarray, p: float,
                           c: float, C: float, labels=None) -> float:
    """``holdout_ratio`` of vals against HOLDOUT_SLACK * C * exp(-c d^p)."""
    d = np.asarray(d, dtype=float)
    return holdout_ratio(vals, HOLDOUT_SLACK * C * np.exp(-c * d**p), labels)


def ratio_constant_fit(cal_vals: np.ndarray, cal_scales: np.ndarray) -> float:
    """Smallest C with vals <= C * scales on the calibration set."""
    cal_vals = np.asarray(cal_vals, dtype=float)
    cal_scales = np.asarray(cal_scales, dtype=float)
    if np.any(cal_scales <= 0):
        raise ValueError("scales must be positive")
    return float(np.max(cal_vals / cal_scales))


def ratio_holdout_ratio(held_vals: np.ndarray, held_scales: np.ndarray,
                        C: float) -> float:
    """``holdout_ratio`` of held_vals against HOLDOUT_SLACK C held_scales."""
    return holdout_ratio(held_vals, HOLDOUT_SLACK * C * np.asarray(
        held_scales, dtype=float))


def garding_lp(A: np.ndarray, S: np.ndarray,
               V: np.ndarray) -> tuple[float, float]:
    """Optimum of the linear program: maximize alpha subject to
    alpha*V_i <= A_i + C*S_i, 0 <= C <= GARDING_C_CAP, in closed form.

    A_i is the (negated) quadratic form value, S_i the s^{2l}-scaled weighted
    norm, V_i the squared Sobolev norm of the i-th calibration function.  With
    every S_i > 0 and V_i > 0, each row's bound (A_i + C*S_i)/V_i grows with
    C, so the optimum is C = GARDING_C_CAP and alpha = min_i (A_i + C*S_i)/V_i;
    alpha > 0 exactly when the coercivity inequality is satisfiable on the
    calibration family.  A row with S_i or V_i not positive (or NaN) raises
    FitConvergenceError.
    """
    A, S, V = (np.asarray(x, dtype=float) for x in (A, S, V))
    bad = int(np.sum(~((S > 0) & (V > 0))))
    if bad:
        raise FitConvergenceError(
            f"coercivity fit needs S_i > 0 and V_i > 0; {bad} rows are not")
    C = GARDING_C_CAP
    return float(np.min((A + C * S) / V)), C


def garding_holdout_ratio(A: np.ndarray, S: np.ndarray, V: np.ndarray,
                          alpha: float, C: float) -> float:
    """``holdout_ratio`` of (alpha/HOLDOUT_SLACK) V_i against A_i + C S_i."""
    A, S, V = (np.asarray(x, dtype=float) for x in (A, S, V))
    return holdout_ratio((alpha / HOLDOUT_SLACK) * V, A + C * S)
