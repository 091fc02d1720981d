"""Correctness gate: a check's report against its stored reference.

References live in ``references/<workload>.json`` and map ``reference_key``
(kind plus the check's params in the config) to the report JSON that the
check wrote when the references were made.  A report passes when

* its verdict (``pass``) equals the reference verdict;
* booleans, integers (sample counts), strings and the ``grid`` metadata
  are equal;
* every other number is within ``REL_TOL`` of the reference, relative to
  the larger of the two magnitudes.

Keys absent from the reference are not compared, so a report that gains a
block (such as diagnostics) still passes.  ``REL_TOL`` leaves room for
last-digit changes of arithmetic order, not for coarser grids or fewer
samples, which move results by far more.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9


def reference_key(kind: str, params: dict) -> str:
    return f"{kind} {json.dumps(params, sort_keys=True)}"


def _close(ref: float, got: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(ref - got) <= REL_TOL * max(abs(ref), abs(got))


def mismatches(ref, got, path: str = "", exact: bool = False) -> list[str]:
    """Paths at which ``got`` differs from ``ref`` beyond the gate's rules."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += mismatches(value, got[key], f"{path}.{key}",
                                  exact or key == "grid")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += mismatches(r, g, f"{path}[{i}]", exact)
        return out
    if isinstance(ref, float) and not exact:
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: expected a number"]
        return [] if _close(ref, float(got)) else [f"{path}: {ref!r} -> {got!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {ref!r} -> {got!r}"]
    return []
