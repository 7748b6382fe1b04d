"""A ``--smoke`` run of the whole suite passes the gate and fills every metric."""

import json
import subprocess
import sys

from conftest import E2E, REPO


def test_smoke_suite(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=240, cwd=REPO,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "CancelledError" not in done.stderr  # quiet teardown
    result = json.loads(out.read_text())
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    for workload in contract["workloads"]:
        rows = result["workloads"][workload["name"]]
        for metric in contract["end_to_end"]:
            assert rows[metric["name"]]["median"] > 0, (workload["name"], metric["name"])
        for metric in contract["per_layer"]:
            assert metric["name"] in rows
    local, mix = result["workloads"]["local_closed"], result["workloads"]["mix20_closed"]
    assert local["termination.vote_records_per_global"]["median"] == 0
    assert mix["termination.vote_records_per_global"]["median"] > 0
    assert local["stage.residual_frac"]["median"] < 1e-9


def test_bare_directory_fails_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: exit non-zero, print no result."""
    import shutil

    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "local_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
