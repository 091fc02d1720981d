"""Uniform pass/fail reporting for all verification checks.

Every check produces a VerificationReport carrying the worst observed defect,
the tolerance it was judged against, and the margin tolerance/defect (>= 1
means pass).  Fitted constants and grid geometry ride along so a report is
interpretable on its own.  Wall-clock time is kept only in memory: persisted
reports must be byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError

MARGIN_CAP = 1e12


def to_builtin(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_builtin(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        # before the int branch: Python bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _non_finite(value, path: str) -> str | None:
    """"<path> is <value>" of the first NaN or infinite number in ``value``
    (builtin JSON types), else None."""
    if isinstance(value, dict):
        value = {f"{path}.{k}": v for k, v in value.items()}
    elif isinstance(value, list):
        value = {f"{path}[{i}]": v for i, v in enumerate(value)}
    else:
        finite = not isinstance(value, float) or math.isfinite(value)
        return None if finite else f"{path} is {value}"
    return next(filter(None, map(_non_finite, value.values(), value)), None)


def margin_of(defect: float, tolerance: float) -> float:
    """tolerance / defect, capped so it stays JSON-representable."""
    defect = abs(float(defect))
    if defect == 0.0:
        return MARGIN_CAP
    return float(min(tolerance / defect, MARGIN_CAP))


def grid_metadata(ctx) -> dict:
    return {
        "dim": int(ctx.dim),
        "box": float(ctx.box),
        "n_half": int(ctx.grid.axes[0].n_half),
        "freq_box": float(ctx.freq_box),
        "freq_n_half": int(ctx.freq_grid.axes[0].n_half),
        "homogeneous_dim": float(ctx.homogeneous_dim),
    }


@dataclass
class VerificationReport:
    check: str
    params: dict
    passed: bool
    margin: float
    max_defect: float
    tolerance: float
    fitted: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    notes: str = ""

    @classmethod
    def from_defect(cls, check: str, params: dict, max_defect: float,
                    tolerance: float, *, fitted: dict | None = None,
                    grid: dict | None = None, notes: str = "") -> "VerificationReport":
        """AccuracyError if the defect, the tolerance or a number in
        ``fitted`` is NaN or infinite: no verdict (a designed FAIL is finite)."""
        max_defect = abs(float(max_defect))
        fitted = to_builtin(fitted or {})
        bad = (_non_finite(max_defect, "max_defect") or _non_finite(
            float(tolerance), "tolerance") or _non_finite(fitted, "fitted"))
        if bad:
            raise AccuracyError(f"{check}: {bad}; a report holds finite "
                                "numbers only")
        return cls(check=check, params=to_builtin(params),
                   passed=bool(max_defect <= tolerance),
                   margin=margin_of(max_defect, tolerance),
                   max_defect=max_defect, tolerance=float(tolerance),
                   fitted=fitted, grid=to_builtin(grid or {}), notes=notes)

    def to_json_dict(self) -> dict:
        return to_builtin({
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "margin": self.margin,
            "max_defect": self.max_defect,
            "tolerance": self.tolerance,
            "fitted": self.fitted,
            "grid": self.grid,
            "notes": self.notes,
        })

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{verdict}] {self.check}: defect {self.max_defect:.3e} "
                f"vs tol {self.tolerance:.1e} (margin {self.margin:.3g}x)")
