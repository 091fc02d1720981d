"""Every check parameter at the edges of its schema, in rank 1 (k = 0.5)
and in rank 2 (``product_z2``, ks = [0.5, 0.5]).

Each parameter of each kind in ``checks.CHECKS``, and each key of a
``spec``, is set on its own to the edges its schema admits: its minimum (or
the next float above an exclusive one) and its maximum (or 1e300); -1e300,
5e-324 and 1e300 where it has no bound; integers take their minimum only.
A vector takes the edge in its first component and 0 in the others; a list
of vectors is that vector followed by the other axes, so directions span.
A case fails if ``runner.run`` raises or writes NaN or Infinity into a
report or table.  ``KNOWN`` lists the cases that still fail, with the
ROADMAP item that mends each; it is empty.  Exit 1 if a case outside it
fails or a case in it passes.

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

#: the systems swept, by dimension
SYSTEMS = {1: {"type": "rank1", "k": 0.5},
           2: {"type": "product_z2", "ks": [0.5, 0.5]}}
#: (dimension, kind, parameter, value as JSON) -> the ROADMAP item that
#: mends it
KNOWN: dict = {}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def edges(schema: dict, dim: int) -> list:
    """The values at the edges of a parameter's schema in R^dim."""
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
                for v in edges(sub, dim)]
    if schema.get("vector"):
        return [[v] + [0.0] * (dim - 1) for v in edges(schema["items"], dim)]
    if schema["items"]["type"] == "array":
        others = np.eye(dim)[1:].tolist()
        return [[vec] + others for vec in edges(schema["items"], dim)]
    # a list of numbers, filled up to its least length with 1.0
    return [[v] + [1.0] * (schema.get("minItems", 1) - 1)
            for v in edges(schema["items"], dim)]


def fault(dim: int, kind: str, name: str, value, out: Path) -> str | None:
    """What goes wrong when ``kind`` runs in R^dim with ``name`` =
    ``value``."""
    config = out / "edge.json"
    config.write_text(json.dumps({
        "system": SYSTEMS[dim], "workers": 1,
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
    for dim in SYSTEMS:
        cases = 0
        for kind, check in sorted(CHECKS.items()):
            for param in check.params:
                schema = (KERNEL_SCHEMA if param.name == "spec"
                          else param.schema)
                for value in edges(schema, dim):
                    cases += 1
                    with tempfile.TemporaryDirectory() as tmp:
                        found = fault(dim, kind, param.name, value, Path(tmp))
                    item = KNOWN.get((dim, kind, param.name,
                                      json.dumps(value)))
                    if (found is None) != (item is None):
                        unexpected += 1
                        outcome = (found or
                                   f"passes; drop it from KNOWN: {item}")
                        print(f"rank {dim} {kind} {param.name}="
                              f"{json.dumps(value)}: {outcome}")
        print(f"rank {dim}: {cases} cases")
    print(f"{unexpected} unexpected outcome(s)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
