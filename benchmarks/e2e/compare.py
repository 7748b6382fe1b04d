"""Compare two result files of the suite, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per end-to-end metric x workload with both medians, the
delta in the metric's "worse" direction, the bound from BENCHMARK.json and
a verdict:

* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better than A by more than the bound;
* ``unchanged``  — within the bound either way;
* ``unresolved`` — the data cannot tell: either side has fewer than
  ``MIN_RUNS`` runs (a spread taken from less says nothing), or its
  run-to-run spread (quartile distance as a share of the median) is wider
  than the bound.

Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[2]
#: Fewest runs a side for a verdict; the suite's default is ten.
MIN_RUNS = 5


def verdict(a: dict[str, float], b: dict[str, float], better: str, bound: float) -> tuple[float, str]:
    """Relative change of B against A, positive = worse, and what it means."""
    if a["median"] == 0:
        return 0.0, "unresolved"
    enough = min(len(a["runs"]), len(b["runs"])) >= MIN_RUNS
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse = change if better == "lower" else -change
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0
        for side in (a, b)
    )
    if not enough or spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def compare(a: dict[str, Any], b: dict[str, Any], contract: dict[str, Any]) -> list[tuple]:
    rows = []
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for metric in contract["end_to_end"]:
            side_a = a["workloads"][name][metric["name"]]
            side_b = b["workloads"][name][metric["name"]]
            worse, word = verdict(side_a, side_b, metric["better"], metric["bound"])
            rows.append(
                (name, metric["name"], metric["unit"], side_a["median"], side_b["median"],
                 worse, metric["bound"], word)
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = compare(a, b, contract)
    print(f"{'workload':15s} {'metric':20s} {'A':>12s} {'B':>12s} {'unit':6s} {'worse by':>9s} {'bound':>6s}  verdict")
    for name, metric, unit, med_a, med_b, worse, bound, word in rows:
        print(
            f"{name:15s} {metric:20s} {med_a:12.4f} {med_b:12.4f} {unit:6s} "
            f"{worse:+9.1%} {bound:6.0%}  {word}"
        )
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
