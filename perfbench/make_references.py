"""Write the reference reports the correctness gate compares against.

    python3 perfbench/make_references.py [WORKLOAD ...]

Runs each workload config once, in its listed order and with the thread
settings of the benchmark, and stores every check's report under
``references/<workload>.json``.  References record what the code computes,
not what is true: regenerate them only for a change that is meant to alter
reports, and say why in the change description.
"""

from __future__ import annotations

import json
import os
import sys
import time

import gate
from run import BENCH, OUT, WORKLOADS, Children


def make(workload: str) -> None:
    config_path = BENCH / "workloads" / f"{workload}.json"
    config = json.loads(config_path.read_text())
    blas = max(1, (os.cpu_count() or 1) // int(config.get("workers", 1)))
    out = OUT / "references" / workload
    res = Children(time.monotonic() + 600.0, blas).run(
        "timed", str(config_path), out)
    if "crash" in res or res.get("error"):
        sys.exit(f"{workload}: {res.get('crash') or res['error']}")
    refs = {}
    for kind, params, name in res["reports"]:
        refs[gate.reference_key(kind, params)] = json.loads(
            (out / name).read_text())
    path = BENCH / "references" / f"{workload}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(refs)} reference reports -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        make(name)
