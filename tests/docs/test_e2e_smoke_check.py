"""The CI ``e2e-smoke`` gate reads a result file; pin what it rejects."""

import json
from pathlib import Path

from benchmarks.check_e2e_smoke import REFERENCE_TPS, check

REPO = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def passing_result():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    workloads = {}
    for workload in CONTRACT["workloads"]:
        rows = {name: {"median": 1.0} for name in names}
        rows["committed_tps"] = {"median": REFERENCE_TPS[workload["name"]]}
        workloads[workload["name"]] = rows
    return {"workloads": workloads}


def test_reference_covers_every_contract_workload():
    assert set(REFERENCE_TPS) == {w["name"] for w in CONTRACT["workloads"]}


def test_complete_result_passes():
    assert check(passing_result(), CONTRACT) == []


def test_empty_and_missing_metrics_fail():
    result = passing_result()
    result["workloads"]["ro80_closed"] = {}
    del result["workloads"]["local_closed"]["commit_p50_ms"]
    result["workloads"]["local_open100"]["setup_s"] = {"median": 0.0}
    problems = check(result, CONTRACT)
    assert "ro80_closed: no metrics" in problems
    assert "local_closed: commit_p50_ms missing" in problems
    assert "local_open100: setup_s = 0.0" in problems


def test_only_a_threefold_collapse_trips_the_timing_floor():
    result = passing_result()
    slow = result["workloads"]["mix20_closed"]["committed_tps"]
    slow["median"] = REFERENCE_TPS["mix20_closed"] / 2.9
    assert check(result, CONTRACT) == []
    slow["median"] = 7.0  # e2e finding 1: whole-history gossip, collapsed
    assert any("below a third" in p for p in check(result, CONTRACT))
