"""Telemetry overhead microbenchmark (wall clock).

Measures the real-time certified throughput of one ``SdurServer``
driven directly through ``on_adeliver`` with the S1 workload shape
(local-only transactions, 3 reads + 2 writes over a 5000-key
partition), comparing telemetry **disabled** — the default; the
registry is built but every observe site is guarded off — against
telemetry **enabled with a sampler ticking at 1 Hz** (commit-latency
and batch-size histograms recording, all bound counters walked once a
second).  ``tests/telemetry/test_overhead.py`` proves the disabled
path allocates nothing; this benchmark prices the enabled one:

    PYTHONPATH=src python benchmarks/bench_telemetry.py

writes ``benchmarks/BENCH_telemetry.json`` (committed as the CI
baseline) and asserts the PR's acceptance ceiling: enabled-at-1Hz
costs at most 5% of the disabled path's certified throughput.

    PYTHONPATH=src python benchmarks/bench_telemetry.py --check PATH

re-runs a reduced measurement and fails (exit 1) on a >3x slowdown
against either cell of the committed baseline, or on the overhead
exceeding 15% — loose enough for noisy shared CI runners, tight
enough to catch an unguarded observe site landing on the hot path.

The delivery stream is pre-generated exactly as bench_batch.py does
(replayed through a throwaway server so snapshots lag realistically);
both cells ingest the identical stream.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]  # repro, tests.oracles

from repro.core.config import SdurConfig, ServiceCosts  # noqa: E402
from repro.core.directory import ClusterDirectory  # noqa: E402
from repro.core.partitioning import PartitionMap  # noqa: E402
from repro.core.server import SdurServer  # noqa: E402
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection  # noqa: E402
from repro.telemetry import TelemetryConfig, TelemetrySampler  # noqa: E402
from tests.oracles.stub_runtime import DropFabric, StubRuntime  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_telemetry.json"

#: S1 workload shape, matching bench_batch.py.
READS_PER_TXN = 3
WRITES_PER_TXN = 2
ITEMS_PER_PARTITION = 5000
SNAPSHOT_LAG = 64

SAMPLE_INTERVAL = 1.0  # Hz target for the enabled cell
#: Deliveries between wall-clock checks in the enabled loop — the
#: sampler has to tick on real time here (there is no sim clock), and
#: checking perf_counter() every delivery would itself be overhead.
CLOCK_STRIDE = 4096


def _build_server() -> SdurServer:
    config = SdurConfig(
        costs=ServiceCosts(read=5e-5, certify=2e-4, apply=3e-4),
        gossip_interval=None,
        vote_timeout=None,
    )
    return SdurServer(
        runtime=StubRuntime(record=False),
        partition="p0",
        directory=ClusterDirectory(partitions={"p0": ["s0"]}, preferred={"p0": "s0"}),
        partition_map=PartitionMap.by_index(1),
        fabric=DropFabric(),
        config=config,
    )


def _generate_stream(count: int, seed: int) -> list[TxnProjection]:
    generator = _build_server()
    rng = random.Random(seed)
    stream: list[TxnProjection] = []
    for seq in range(count):
        reads = [
            f"0/k{rng.randrange(ITEMS_PER_PARTITION)}" for _ in range(READS_PER_TXN)
        ]
        writes = {
            f"0/k{rng.randrange(ITEMS_PER_PARTITION)}": seq
            for _ in range(WRITES_PER_TXN)
        }
        proj = TxnProjection(
            tid=TxnId("bench", seq),
            partition="p0",
            readset=ReadsetDigest.exact(reads),
            writeset=writes,
            snapshot=max(0, generator.sc - rng.randrange(SNAPSHOT_LAG)),
            partitions=("p0",),
            coordinator="s0",
            client="bench",
        )
        generator.on_adeliver(seq, proj)
        stream.append(proj)
    return stream


def _cell(server: SdurServer, stream: list[TxnProjection], elapsed: float, **extra):
    committed = server.stats.committed_local
    aborted = server.stats.aborted_certification + server.stats.aborted_stale_snapshot
    assert committed + aborted == len(stream), "bench stream left deliveries behind"
    return {
        "deliveries": len(stream),
        "committed": committed,
        "aborted": aborted,
        "certified_tps": round(committed / elapsed, 1) if elapsed else 0.0,
        "delivered_tps": round(len(stream) / elapsed, 1) if elapsed else 0.0,
        **extra,
    }


def _measure_disabled(stream: list[TxnProjection]) -> dict:
    """The default path: no sampler, observe sites guarded off.  The
    loop is identical to bench_batch's sequential cell — no wall-clock
    checks — so the cell prices exactly what users of the default
    config pay."""
    server = _build_server()
    assert server.telemetry_enabled is False
    gc.collect()
    gc.freeze()
    started = perf_counter()
    for instance, proj in enumerate(stream):
        server.on_adeliver(instance, proj)
    elapsed = perf_counter() - started
    gc.unfreeze()
    return _cell(server, stream, elapsed, cell="disabled", samples=0)


def _measure_enabled(stream: list[TxnProjection]) -> dict:
    """Telemetry on, sampler ticking at 1 Hz of *wall* time: histograms
    record on every commit, and every second the sampler walks all
    bound instruments into its ring buffers (the dominant per-sample
    cost).  The wall clock is polled every CLOCK_STRIDE deliveries."""
    server = _build_server()
    server.telemetry_enabled = True
    sampler = TelemetrySampler(
        TelemetryConfig(interval=SAMPLE_INTERVAL), clock=perf_counter
    )
    sampler.attach("s0", server.registry)
    gc.collect()
    gc.freeze()
    started = perf_counter()
    next_sample = started + SAMPLE_INTERVAL
    for instance, proj in enumerate(stream):
        server.on_adeliver(instance, proj)
        if instance % CLOCK_STRIDE == 0 and perf_counter() >= next_sample:
            sampler.sample()
            next_sample += SAMPLE_INTERVAL
    elapsed = perf_counter() - started
    gc.unfreeze()
    sampler.sample()  # final snapshot, outside the timed window anyway
    assert server._hist_commit_latency.count == server.stats.committed_local
    return _cell(
        server, stream, elapsed, cell="enabled_1hz", samples=sampler.samples_taken
    )


def run_suite(count: int, seed: int = 0x7E1E, repeats: int = 7) -> list[dict]:
    """Best-of-``repeats`` per cell, cells *interleaved* (d,e,d,e,…):
    wall-clock runs on shared CI runners are noisy and the noise drifts,
    so measuring all-of-one-then-all-of-the-other folds the drift into
    the ratio under test.  Interleaving exposes both cells to the same
    conditions; the best run is the least-perturbed estimate of each
    code path's cost."""
    stream = _generate_stream(count, seed)
    results = []
    for measure in (_measure_disabled, _measure_enabled):
        results.append([measure(stream)])  # warm-up round, also counted
    for _ in range(repeats - 1):
        for index, measure in enumerate((_measure_disabled, _measure_enabled)):
            results[index].append(measure(stream))
    best = []
    for runs in results:
        cell = max(runs, key=lambda c: c["certified_tps"])
        best.append(cell)
        print(
            f"{cell['cell']:<12} certified {cell['certified_tps']:>12.1f} tps  "
            f"committed={cell['committed']}  aborted={cell['aborted']}  "
            f"samples={cell['samples']}"
        )
    return best


def _overhead(results: list[dict]) -> float:
    by_cell = {cell["cell"]: cell for cell in results}
    base = by_cell["disabled"]["certified_tps"]
    if not base:
        return float("inf")
    return 1.0 - by_cell["enabled_1hz"]["certified_tps"] / base


def check_against(baseline_path: Path, results: list[dict]) -> int:
    baseline = json.loads(baseline_path.read_text())
    by_cell = {cell["cell"]: cell for cell in results}
    failures = []
    for cell in baseline["results"]:
        measured = by_cell.get(cell["cell"])
        if measured is None:
            failures.append(f"missing cell {cell['cell']}")
            continue
        floor = cell["certified_tps"] / 3.0
        if measured["certified_tps"] < floor:
            failures.append(
                f"{cell['cell']}: {measured['certified_tps']} tps is >3x below "
                f"the committed baseline {cell['certified_tps']}"
            )
    # The acceptance ceiling is 5% (enforced on baseline generation);
    # the smoke re-run uses a shorter stream on a noisy shared runner,
    # so it gates at 15% — catching an unguarded observe site or an
    # accidentally-hot sampler without flaking on scheduler jitter.
    overhead = _overhead(results)
    if overhead > 0.15:
        failures.append(f"enabled-at-1Hz overhead is {overhead:.1%} (> 15%)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"perf smoke OK: no cell regressed >3x; "
            f"telemetry overhead {overhead:.1%}"
        )
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
        help="baseline output path (default: benchmarks/BENCH_telemetry.json)",
    )
    parser.add_argument("--count", type=int, default=60_000)
    args = parser.parse_args()
    if args.check:
        results = run_suite(count=max(5_000, args.count // 4))
        return check_against(Path(args.check), results)
    results = run_suite(count=args.count)
    overhead = _overhead(results)
    print(f"enabled-at-1Hz overhead: {overhead:.1%}")
    if overhead > 0.05:
        print("FAIL: acceptance ceiling is 5% overhead at 1Hz", file=sys.stderr)
        return 1
    payload = {
        "benchmark": "telemetry enabled at 1Hz vs disabled",
        "workload": {
            "shape": "S1 (local-only)",
            "reads_per_txn": READS_PER_TXN,
            "writes_per_txn": WRITES_PER_TXN,
            "items_per_partition": ITEMS_PER_PARTITION,
            "snapshot_lag": SNAPSHOT_LAG,
        },
        "sample_interval": SAMPLE_INTERVAL,
        "overhead": round(overhead, 4),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
