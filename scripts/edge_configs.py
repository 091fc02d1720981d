"""Every check parameter at the edges of its schema, in rank 1 (k = 0.5).

Each parameter of each kind in ``checks.CHECKS``, and each key of a
``spec``, is set on its own to the edges its schema admits: its minimum (or
the next float above an exclusive one) and its maximum (or 1e300); -1e300,
5e-324 and 1e300 where it has no bound; integers take their minimum only.
A case fails if ``runner.run`` raises or writes NaN or Infinity into a
report or table.  ``KNOWN`` lists the cases that still fail, with the
ROADMAP item that mends each.  Exit 1 if a case outside it fails or a case
in it passes.

    PYTHONPATH=src python scripts/edge_configs.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from dunkllab import runner
from dunkllab.checks import CHECKS, KERNEL_SCHEMA

TINY_BOX = "item 17: no frequency node lies on the boundary shell"
HEAT_AMP = "item 18: the heat kernel's amplitude (2t)^(-N_h/2) overflows"
#: (kind, parameter, value as JSON) -> the ROADMAP item that mends it
KNOWN = {
    **{(kind, "freq_box", "5e-324"): TINY_BOX for kind in (
        "exp-weighted-l1", "kernel-decomposition", "kernel-semigroup",
        "thm1-decay", "thm2-two-point", "translation-lipschitz")},
    **{(kind, "eps0", "5e-324"): "item 17: the heat time eps0 / 2 is 0"
       for kind in ("exp-weighted-l1", "kernel-decomposition")},
    **{("exp-weighted-l1", "directions", v): "item 17: the check's own "
       "kernel is not validated with the config"
       for v in ("[[-1e+300]]", "[[5e-324]]", "[[1e+300]]")},
    ("heat-gaussian-bound", "t_set", "[5e-324]"): HEAT_AMP,
    ("kernel-positivity", "t_set", "[5e-324]"): HEAT_AMP,
    ("kernel-mass", "t", "5e-324"): HEAT_AMP,
    ("kernel-scaling", "t_values", "[5e-324]"): "item 17: the homogeneity "
    "law's amplitude t^(-N_h/(2l)) overflows",
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def edges(schema: dict) -> list:
    """The values at the edges of a parameter's schema (rank 1)."""
    if "enum" in schema:
        return [min(schema["enum"]), max(schema["enum"])]
    if schema["type"] == "integer":
        return [schema["minimum"]]
    if schema["type"] == "number":
        if "minimum" in schema:
            low = [schema["minimum"]]
        elif "exclusiveMinimum" in schema:
            low = [float(np.nextafter(schema["exclusiveMinimum"], np.inf))]
        else:
            low = [-1e300, 5e-324]
        return low + [schema.get("maximum", 1e300)]
    if schema["type"] == "object":
        return [{key: v} for key, sub in schema["properties"].items()
                for v in edges(sub)]
    if schema.get("vector") or schema["items"]["type"] == "array":
        return [[v] for v in edges(schema["items"])]
    # a list of numbers, filled up to its least length with 1.0
    return [[v] + [1.0] * (schema.get("minItems", 1) - 1)
            for v in edges(schema["items"])]


def fault(kind: str, name: str, value, out: Path) -> str | None:
    """What goes wrong when ``kind`` runs with ``name`` = ``value``."""
    config = out / "edge.json"
    config.write_text(json.dumps({
        "system": {"type": "rank1", "k": 0.5}, "workers": 1,
        "checks": [{"kind": kind, "params": {name: value}}]}))
    os.environ[runner.OUTPUT_DIR_ENV] = str(out / "reports")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runner.run(str(config))
    except Exception as err:  # a traceback for a dunkllab run user
        return f"raised {type(err).__name__}: {err}"
    for path in (out / "reports").glob("*"):
        if not path.name.endswith("_error.json") \
                and NON_FINITE.search(path.read_text()):
            return f"non-finite number in {path.name}"
    return None


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    unexpected = 0
    for kind, check in sorted(CHECKS.items()):
        for param in check.params:
            schema = KERNEL_SCHEMA if param.name == "spec" else param.schema
            for value in edges(schema):
                with tempfile.TemporaryDirectory() as tmp:
                    found = fault(kind, param.name, value, Path(tmp))
                item = KNOWN.get((kind, param.name, json.dumps(value)))
                if (found is None) != (item is None):
                    unexpected += 1
                    print(f"{kind} {param.name}={json.dumps(value)}: "
                          f"{found or 'passes; drop it from KNOWN: ' + item}")
    print(f"{unexpected} unexpected outcome(s)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
