"""Certification microbenchmark: key-indexed vs window-scan (wall clock).

Measures the real-time cost of one *certification step* — the committed
window check, the pending-list dependency check, and (on commit) the
window append with index maintenance — across history-window sizes,
readset transports, and pending depths, for the production key index
and the reference scan it replaced (``tests/oracles/scan_certifier.py``).
The differential suites prove the two decide identically; this
benchmark prices them:

    PYTHONPATH=src python benchmarks/bench_certification.py

writes ``benchmarks/BENCH_cert.json`` (committed as the CI baseline) and
asserts the PR's acceptance floor: the index is ≥5× the scan's
throughput at history_window=10_000 with exact readsets, and not slower
at history_window=100.

    PYTHONPATH=src python benchmarks/bench_certification.py --check PATH

re-runs a reduced measurement and fails (exit 1) on a >3× slowdown
against any cell of the committed baseline — a smoke test against
accidental complexity regressions, loose enough for noisy CI runners.

Snapshots lag uniformly over the window's span, so the scan traverses
half the window on average — the regime the paper's "last K bloom
filters" (§V) operate in when transactions straddle WAN round trips.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]  # repro, tests.oracles

from repro.core.certifier import CertificationWindow, CommittedRecord  # noqa: E402
from repro.core.certindex import IndexedCertifier  # noqa: E402
from repro.core.pending import PendingList, PendingTxn  # noqa: E402
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection  # noqa: E402
from tests.oracles.scan_certifier import ScanCertifier  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_cert.json"

WINDOW_SIZES = (100, 1_000, 10_000)
READSET_MODES = ("exact", "bloom")
PENDING_DEPTHS = (0, 32)
#: Cell label -> certifier under test.
MODES = {"scan": ScanCertifier, "index": IndexedCertifier}

READS_PER_TXN = 3
WRITES_PER_TXN = 2
GLOBAL_FRACTION = 0.2


def _digest(keys, bloom: bool) -> ReadsetDigest:
    return ReadsetDigest.bloomed(keys) if bloom else ReadsetDigest.exact(keys)


def _build_state(window_size: int, bloom: bool, pending_depth: int):
    """A full window, a populated pending list, and the key universe."""
    keyspace = 4 * window_size
    rng = random.Random(0xC0FFEE)
    window = CertificationWindow(window_size)
    for version in range(1, window_size + 1):
        reads = [f"k{rng.randrange(keyspace)}" for _ in range(READS_PER_TXN)]
        writes = [f"k{rng.randrange(keyspace)}" for _ in range(WRITES_PER_TXN)]
        window.add(
            CommittedRecord(
                tid=TxnId("h", version),
                version=version,
                readset=_digest(reads, bloom),
                ws_keys=frozenset(writes),
                is_global=rng.random() < GLOBAL_FRACTION,
            )
        )
    pending = PendingList()
    for seq in range(pending_depth):
        reads = [f"k{rng.randrange(keyspace)}" for _ in range(READS_PER_TXN)]
        writes = {f"k{rng.randrange(keyspace)}": 1 for _ in range(WRITES_PER_TXN)}
        proj = TxnProjection(
            tid=TxnId("pend", seq),
            partition="p0",
            readset=_digest(reads, bloom),
            writeset=writes,
            snapshot=window_size,
            partitions=("p0", "p1"),
            coordinator="s",
            client="c",
        )
        pending.append(PendingTxn(proj=proj, rt=10**9, delivered_at=0.0))
    return window, pending, keyspace


def _measure(
    mode: str,
    window_size: int,
    bloom: bool,
    pending_depth: int,
    time_budget: float,
    min_ops: int,
) -> dict:
    window, pending, keyspace = _build_state(window_size, bloom, pending_depth)
    certifier = MODES[mode](window, pending)
    rng = random.Random(0xBEEF)
    version = window_size
    latencies: list[float] = []
    started = perf_counter()
    while len(latencies) < min_ops or perf_counter() - started < time_budget:
        reads = [f"k{rng.randrange(keyspace)}" for _ in range(READS_PER_TXN)]
        writes = {f"k{rng.randrange(keyspace)}": 1 for _ in range(WRITES_PER_TXN)}
        is_global = rng.random() < GLOBAL_FRACTION
        snapshot = max(window.floor, version - rng.randrange(window_size + 1))
        txn = TxnProjection(
            tid=TxnId("q", len(latencies)),
            partition="p0",
            readset=_digest(reads, bloom),
            writeset=writes,
            snapshot=snapshot,
            partitions=("p0", "p1") if is_global else ("p0",),
            coordinator="s",
            client="c",
        )
        t0 = perf_counter()
        verdict = certifier.certify(txn)
        if verdict:
            certifier.outcome_conflicts(txn)
            version += 1
            window.add(
                CommittedRecord(
                    tid=txn.tid,
                    version=version,
                    readset=txn.readset,
                    ws_keys=frozenset(writes),
                    is_global=is_global,
                )
            )
        latencies.append(perf_counter() - t0)
    elapsed = sum(latencies)
    latencies.sort()
    ops = len(latencies)
    return {
        "history_window": window_size,
        "readsets": "bloom" if bloom else "exact",
        "pending_depth": pending_depth,
        "mode": mode,
        "ops": ops,
        "ops_per_sec": round(ops / elapsed, 1) if elapsed else 0.0,
        "p50_us": round(latencies[ops // 2] * 1e6, 2),
        "p99_us": round(latencies[min(ops - 1, (ops * 99) // 100)] * 1e6, 2),
    }


def run_suite(time_budget: float, min_ops: int) -> list[dict]:
    results = []
    for window_size in WINDOW_SIZES:
        for readsets in READSET_MODES:
            for pending_depth in PENDING_DEPTHS:
                for mode in MODES:
                    cell = _measure(
                        mode,
                        window_size,
                        readsets == "bloom",
                        pending_depth,
                        time_budget,
                        min_ops,
                    )
                    results.append(cell)
                    print(
                        f"window={window_size:>6} {readsets:<5} "
                        f"pending={pending_depth:<3} {mode:<5} "
                        f"{cell['ops_per_sec']:>12.1f} ops/s  "
                        f"p50={cell['p50_us']:>9.2f}us  "
                        f"p99={cell['p99_us']:>9.2f}us"
                    )
    return results


def _cell_key(cell: dict) -> tuple:
    return (
        cell["history_window"],
        cell["readsets"],
        cell["pending_depth"],
        cell["mode"],
    )


def _speedup(results: list[dict], window_size: int, readsets: str, depth: int) -> float:
    by_key = {_cell_key(c): c for c in results}
    scan = by_key[(window_size, readsets, depth, "scan")]["ops_per_sec"]
    index = by_key[(window_size, readsets, depth, "index")]["ops_per_sec"]
    return index / scan if scan else float("inf")


def check_against(baseline_path: Path, results: list[dict]) -> int:
    baseline = json.loads(baseline_path.read_text())
    by_key = {_cell_key(c): c for c in results}
    failures = []
    for cell in baseline["results"]:
        measured = by_key.get(_cell_key(cell))
        if measured is None:
            failures.append(f"missing cell {_cell_key(cell)}")
            continue
        floor = cell["ops_per_sec"] / 3.0
        if measured["ops_per_sec"] < floor:
            failures.append(
                f"{_cell_key(cell)}: {measured['ops_per_sec']} ops/s is >3x "
                f"below the committed baseline {cell['ops_per_sec']}"
            )
    speedup = _speedup(results, 10_000, "exact", 0)
    if speedup < 5.0:
        failures.append(
            f"index/scan speedup at window=10000 exact is {speedup:.1f}x (< 5x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("perf smoke OK: no cell regressed >3x; 10k-exact speedup "
              f"{speedup:.1f}x")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="compare a reduced re-run against a committed baseline JSON",
    )
    parser.add_argument(
        "--out",
        default=str(BASELINE_PATH),
        help="baseline output path (default: benchmarks/BENCH_cert.json)",
    )
    args = parser.parse_args()
    if args.check:
        results = run_suite(time_budget=0.15, min_ops=10)
        return check_against(Path(args.check), results)
    results = run_suite(time_budget=0.5, min_ops=30)
    speedup_10k = _speedup(results, 10_000, "exact", 0)
    speedup_100 = _speedup(results, 100, "exact", 0)
    print(f"speedup at window=10000 exact: {speedup_10k:.1f}x")
    print(f"speedup at window=100   exact: {speedup_100:.1f}x")
    if speedup_10k < 5.0:
        print("FAIL: acceptance floor is 5x at window=10000 exact", file=sys.stderr)
        return 1
    if speedup_100 < 0.9:
        print("FAIL: index regressed at window=100 exact", file=sys.stderr)
        return 1
    payload = {
        "benchmark": "certification step: key-indexed vs window scan",
        "workload": {
            "reads_per_txn": READS_PER_TXN,
            "writes_per_txn": WRITES_PER_TXN,
            "global_fraction": GLOBAL_FRACTION,
            "snapshot_lag": "uniform over the window span",
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
