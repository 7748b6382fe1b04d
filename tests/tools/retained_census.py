"""Retained-state census: what a commit leaves behind on the e2e rig.

Builds the e2e benchmark's rig (``benchmarks/e2e/rig.py``: 2 partitions
x 3 replicas and 8 clients on one asyncio loop over localhost TCP) in
this process, runs one workload's load generator, and traces every
allocation made in a measured window with :mod:`tracemalloc`.  After the
window the load stops and drains, a full collection runs, and what was
allocated in the window and is still held is printed per committed
transaction, in bytes and in blocks (one block per object, plus the
storage of each dict, set and list), by allocation site and by file::

    PYTHONPATH=src python tests/tools/retained_census.py                   # local_closed, seed 1
    PYTHONPATH=src python tests/tools/retained_census.py --workload mix20_closed --seconds 6

The code the packed codec generates shows as ``<repro.net.codec schema of
X>``: what its decoders allocate is a decoded frame's fields.  Tracing
slows the rig about twice over, so the commit rate here is not the
benchmark's; per commit, the retained figures are.  The process runs
under ``PYTHONHASHSEED=0``, as the benchmark does (the tool re-executes
itself to pin it).  Not collected by pytest; a tool, not a CI job.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
E2E = REPO / "benchmarks" / "e2e"
for _path in (REPO / "src", E2E):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import rig as rig_module  # noqa: E402
from loadgen import WORKLOADS, LoadGen  # noqa: E402

DRAIN_S = 20.0


def site(frame: tracemalloc.Frame) -> str:
    """``file:line`` relative to the repo (or the interpreter's library)."""
    name = frame.filename
    for root in (str(REPO / "src") + os.sep, str(REPO) + os.sep):
        if name.startswith(root):
            name = name[len(root) :]
            break
    else:
        if name.startswith(sys.prefix):
            name = "<stdlib>/" + Path(name).name
    return f"{name}:{frame.lineno}"


async def measure(workload: str, seed: int, lead_in_s: float, seconds: float, work: Path):
    """Run ``workload``; returns the commits in the window and what the
    window's allocations still hold after it."""
    rig_module.quiet_teardown(asyncio.get_running_loop())
    rig = await rig_module.build(work, seed)
    loadgen = LoadGen(rig, WORKLOADS[workload], seed)
    begin = time.perf_counter()
    load = asyncio.create_task(loadgen.run(lead_in_s + seconds))
    await asyncio.sleep(lead_in_s)
    gc.collect()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        await load
        await loadgen.drain(DRAIN_S)
        end = begin + lead_in_s + seconds
        commits = sum(1 for r in loadgen.records if r.committed and start <= r.finished <= end)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    await rig.close()
    return commits, snapshot


def report(commits: int, snapshot: tracemalloc.Snapshot, top: int) -> None:
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, "<unknown>")]
    )
    stats = snapshot.statistics("lineno")
    total = sum(stat.size for stat in stats)
    blocks = sum(stat.count for stat in stats)
    print(f"commits in the window: {commits}")
    print(f"retained per commit: {total / commits:,.0f} B in {blocks / commits:.2f} blocks")
    print(f"\nby allocation site (top {top}):")
    print(f"  {'B/commit':>9} {'blocks':>7}  site")
    for stat in stats[:top]:
        print(f"  {stat.size / commits:9.1f} {stat.count / commits:7.2f}  {site(stat.traceback[0])}")
    by_file: dict[str, list[int]] = {}
    for stat in stats:
        name = site(stat.traceback[0]).rsplit(":", 1)[0]
        row = by_file.setdefault(name, [0, 0])
        row[0] += stat.size
        row[1] += stat.count
    print("\nby file:")
    for name, (size, count) in sorted(by_file.items(), key=lambda item: -item[1][0])[:top]:
        print(f"  {size / commits:9.1f} {count / commits:7.2f}  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="local_closed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lead-in", type=float, default=2.0, help="untraced seconds first")
    parser.add_argument("--seconds", type=float, default=6.0, help="the traced window")
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        commits, snapshot = asyncio.run(
            measure(args.workload, args.seed, args.lead_in, args.seconds, Path(work))
        )
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s traced after {args.lead_in:g} s")
    report(max(1, commits), snapshot, args.top)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
