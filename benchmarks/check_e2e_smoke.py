"""CI gate over the result file of ``benchmarks/e2e/run.py --smoke``.

The smoke suite itself exits non-zero when a run fails its correctness
gate (``run.py`` prints ``GATE FAILED`` and no metrics).  This script
adds the two checks the suite does not make on its own result file:

* every workload of ``BENCHMARK.json`` reports every metric the contract
  names, and every end-to-end one is a positive finite number (the
  contract defines each of them as never 0 on any workload);
* the house 3x floor: ``committed_tps`` of a workload may not fall below
  a third of its catalogued median (docs/PERFORMANCE.md §3).  Smoke
  epochs last one second on a shared runner, so this catches a layer
  collapsing — the whole-history gossip of e2e finding 1 took
  ``mix20_closed`` from 316 to 7 tps — not percent-level drift.

Usage::

    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/check_e2e_smoke.py [benchmarks/e2e/out/result.json]
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_RESULT = REPO / "benchmarks" / "e2e" / "out" / "result.json"

#: Median ``committed_tps`` (calibrated 1/s) of the full 15 s suite on the
#: commit that last moved it; see docs/PERFORMANCE.md §3.  The three
#: closed loops last moved with the Phase-2 wire path; ``local_open100``
#: is its offered rate and has not moved since the benchmark was defined.
REFERENCE_TPS = {
    "local_closed": 629.0,
    "mix20_closed": 412.0,
    "ro80_closed": 1203.0,
    "local_open100": 113.0,
}
FLOOR = 3.0


def check(result: dict, contract: dict) -> list[str]:
    problems = []
    for workload in contract["workloads"]:
        name = workload["name"]
        rows = result.get("workloads", {}).get(name)
        if not rows:
            problems.append(f"{name}: no metrics")
            continue
        for metric in contract["end_to_end"] + contract["per_layer"]:
            if metric["name"] not in rows:
                problems.append(f"{name}: {metric['name']} missing")
        for metric in contract["end_to_end"]:
            value = rows.get(metric["name"], {}).get("median")
            if value is not None and not (math.isfinite(value) and value > 0):
                problems.append(f"{name}: {metric['name']} = {value}")
        tps = rows.get("committed_tps", {}).get("median", 0.0)
        if tps * FLOOR < REFERENCE_TPS[name]:
            problems.append(
                f"{name}: committed_tps {tps:.1f} is below a third of "
                f"the catalogued {REFERENCE_TPS[name]:.0f}"
            )
    return problems


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_RESULT
    result = json.loads(path.read_text())
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    problems = check(result, contract)
    for problem in problems:
        print(f"E2E SMOKE FAILED: {problem}")
    if not problems:
        print(f"e2e smoke ok: {len(contract['workloads'])} workloads, all metrics present")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
