"""BENCHMARK.json parses and stays inside the driver's limits."""

import json
import re

from conftest import REPO

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_keys_and_limits():
    c = contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert c["paths"] == ["benchmarks/e2e"]
    assert c["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60
    assert len(c["workloads"]) == 4
    assert 1 <= len(c["end_to_end"]) <= 16
    assert 1 <= len(c["per_layer"]) <= 128
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_directions_bounds():
    c = contract()
    names = [w["name"] for w in c["workloads"]]
    for workload in c["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in c["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in c["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in c["end_to_end"] + c["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in c["end_to_end"])


def test_workloads_match_the_generator():
    from loadgen import WORKLOADS

    c = contract()
    assert [w["name"] for w in c["workloads"]] == list(WORKLOADS)
    # Every run is within the driver's total: 4 + 22 x workloads runs in 3420 s.
    from run import EPOCH_S, LEAD_IN_S

    runs = 4 + 22 * len(c["workloads"])
    epochs = 1 + c["run_seconds"] / EPOCH_S  # the warm-up epoch and the measured ones
    per_run = epochs * (EPOCH_S + LEAD_IN_S + 0.6) + 5.0  # set-up, drain, gate; start, micro
    assert runs * per_run < 3420
