"""The repo's end-to-end benchmark: client ``execute()`` to callback over
asyncio TCP, Paxos and the file WAL, with a per-layer budget.

One run (``--trace`` given; what BENCHMARK.json's command runs)::

    python3 benchmarks/e2e/run.py --workload local_closed --seed 1 --seconds 15 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The suite (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--seed S] [--workload NAME] [--repeat K] [--smoke] [--out FILE]

runs every workload (or just ``NAME``) untraced K times, with seeds S ..
S+K-1, and once traced, each in a fresh subprocess so RSS and GC state are
its own, prints one table per workload with unit, direction and bound, and
writes the result file that ``compare.py`` reads.

Timings are in *calibrated* seconds (``calib.py``): the shared sandbox
runs the same code up to 3x slower for minutes at a time.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for _path in (REPO / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any  # noqa: E402

from repro.checker.history import HistoryRecorder  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
from calib import Calibrator, CalMark, Speed, between  # noqa: E402
import micro  # noqa: E402
import rig as rig_module  # noqa: E402
from loadgen import WORKLOADS, LoadGen, TxnRecord, WorkloadSpec  # noqa: E402
from spans import Tracer, percentile  # noqa: E402

OUT_DIR = HERE / "out"
#: Latency limit of ``slo.within_50ms_frac``, from the due time, in
#: calibrated seconds.
SLO_S = 0.050
#: A run is a sequence of epochs: a fresh deployment, a lead-in, then
#: this many measured seconds.  The first epoch is the warm-up (it pays
#: for faulting in the process's memory, ~10% of its time); every timing
#: metric is the median of the later epochs (see README, "Why epochs").
EPOCH_S = 3.0
#: Untimed load at the start of each epoch: connections open, first-use
#: code paths run.
LEAD_IN_S = 0.5
#: Fewest set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 8
#: Reference work run back to back right before and right after each
#: set-up, to calibrate it (a set-up is synchronous: no timer fires in it).
SETUP_BURST_S = 0.05
DRAIN_S = 20.0
HASH_SEED = "0"


def load_contract() -> dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
@dataclass
class Mark:
    """Process state at one instant of the run."""

    t: float
    cpu: float
    rss_kb: int
    cal: CalMark

    @classmethod
    def take(cls, calibrator: Calibrator) -> "Mark":
        return cls(
            time.perf_counter(),
            time.process_time(),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            calibrator.mark(),
        )


@dataclass
class Epoch:
    """One rig's life: set-up, lead-in, measured window, drain, gate."""

    #: In calibrated seconds.
    setup_s: float
    #: Every transaction the generator finished, lead-in included.
    records: list[TxnRecord]
    #: Issued but without an outcome when the drain gave up.
    never: int
    #: Start and end of the measured window.
    marks: tuple[Mark, Mark]
    #: ``layers.server_counters`` deltas over the window.
    counters: dict[str, int]
    sender_lateness: list[float]
    problems: list[str]

    @property
    def window(self) -> list[TxnRecord]:
        """Transactions due inside the measured window."""
        start, end = self.marks[0].t, self.marks[1].t
        return [r for r in self.records if start <= r.due < end]


async def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def _set_up(
    work: Path, seed: int, calibrator: Calibrator, recorder: HistoryRecorder | None = None
):
    """Build the rig; returns it and the set-up time in calibrated seconds."""
    rig_module.quiet_teardown(asyncio.get_running_loop())
    before = calibrator.burst(SETUP_BURST_S)
    started = time.perf_counter()
    rig = await rig_module.build(work, seed, recorder)
    elapsed = time.perf_counter() - started
    after = calibrator.burst(SETUP_BURST_S)
    return rig, elapsed / ((before.wall_factor + after.wall_factor) / 2)


async def _set_up_only(work: Path, seed: int, calibrator: Calibrator) -> float:
    rig, elapsed = await _set_up(work, seed, calibrator)
    await rig.close()
    return elapsed


async def _run_epoch(
    spec: WorkloadSpec, seed: int, lead_in_s: float, seconds: float, tracer: Tracer,
    calibrator: Calibrator, traced: bool, recorded: bool, work: Path,
) -> Epoch:
    """``traced``: wrap the layers and record spans over the window;
    ``recorded``: attach a history recorder for the gate's full checks."""
    recorder = HistoryRecorder() if recorded else None
    rig, setup_s = await _set_up(work, seed, calibrator, recorder)
    loadgen = LoadGen(
        rig, spec, seed, on_result=recorder.record_result if recorder is not None else None,
        pace=calibrator.pace,
    )

    calibrator.start()
    begin = time.perf_counter()
    load = asyncio.create_task(loadgen.run(lead_in_s + seconds))
    await _sleep_until(begin + lead_in_s)
    start = Mark.take(calibrator)
    counters = layers.server_counters(rig)
    if traced:
        layers.install(rig, loadgen, tracer)
        tracer.enabled = True
    await _sleep_until(begin + lead_in_s + seconds)
    end = Mark.take(calibrator)
    tracer.enabled = False
    calibrator.stop()
    after = layers.server_counters(rig)
    await load
    unfinished = await loadgen.drain(DRAIN_S)
    settled = await gate.settle(rig)
    problems = gate.check(rig, loadgen.records, unfinished, recorder)
    if not settled:
        problems.append("replicas did not settle after the drain")
    await rig.close()
    return Epoch(
        setup_s=setup_s,
        records=loadgen.records,
        never=unfinished,
        marks=(start, end),
        counters={key: after[key] - counters.get(key, 0) for key in after},
        sender_lateness=loadgen.sender_lateness,
        problems=problems,
    )


def per_epoch(epochs: list[Epoch]) -> list[dict[str, float]]:
    """The end-to-end numbers of each epoch's measured window, in
    calibrated seconds (``calib.py``), with the raw ones next to them."""
    rows = []
    for epoch in epochs:
        start, end = epoch.marks
        speed = between(start.cal, end.cal)
        done = [r for r in epoch.records if r.committed and start.t <= r.finished < end.t]
        latencies = [r.latency for r in done]
        commits = max(1, len(done))
        # The reference work's own time is not the system's.
        wall_s = (end.t - start.t) - speed.wall_s
        cpu_s = (end.cpu - start.cpu) - speed.cpu_s
        rows.append(
            {
                "committed": len(done),
                "wall_factor": speed.wall_factor,
                "cpu_factor": speed.cpu_factor,
                "committed_tps": len(done) / wall_s * speed.wall_factor,
                "commit_p50_ms": percentile(latencies, 0.50) * 1e3 / speed.wall_factor,
                "commit_p75_ms": percentile(latencies, 0.75) * 1e3 / speed.wall_factor,
                "cpu_ms_per_commit": cpu_s * 1e3 / commits / speed.cpu_factor,
                "rss_kb_per_commit": (end.rss_kb - start.rss_kb) / commits,
                "raw.committed_tps": len(done) / (end.t - start.t),
                "raw.commit_p50_ms": percentile(latencies, 0.50) * 1e3,
                "raw.cpu_ms_per_commit": (end.cpu - start.cpu) * 1e3 / commits,
            }
        )
    return rows


TIMINGS = ("committed_tps", "commit_p50_ms", "commit_p75_ms", "cpu_ms_per_commit")


def end_to_end(rows: list[dict[str, float]]) -> dict[str, float]:
    """The metrics a user of the system would see, from the per-epoch rows
    (warm-up epoch first).

    Each timing metric is the *median* of the measured epochs' values, so
    it moves when most of the run moves and shrugs off one odd epoch (a
    calibration that a burst of preemptions threw off; README, "Why
    epochs").
    """
    measured = rows[1:] or rows
    values = {name: statistics.median(row[name] for row in measured) for name in TIMINGS}
    # ru_maxrss is a high-water mark, so growth only shows while the
    # process is still growing: in the warm-up epoch.
    values["rss_kb_per_commit"] = rows[0]["rss_kb_per_commit"]
    return values


def diagnostics(epochs: list[Epoch]) -> dict[str, float]:
    """Run-health rows: they say whether the other rows can be trusted.
    Times are raw here; ``run_one`` calibrates every ``*_ms`` row."""
    window = [r for epoch in epochs for r in epoch.window]
    never = sum(epoch.never for epoch in epochs)
    committed = [r for r in window if r.committed]
    by_kind = {
        kind: [r.latency for r in committed if r.kind == kind]
        for kind in ("local", "global", "ro")
    }
    halves = [0, 0]
    for epoch in epochs:
        middle = (epoch.marks[0].t + epoch.marks[1].t) / 2
        for r in epoch.window:
            if r.committed:
                halves[r.due >= middle] += 1
    late = [s for epoch in epochs for s in epoch.sender_lateness]
    total_s = sum(epoch.marks[1].t - epoch.marks[0].t for epoch in epochs)
    cpu_s = sum(epoch.marks[1].cpu - epoch.marks[0].cpu for epoch in epochs)
    in_time = 0
    for epoch in epochs:
        limit = SLO_S * between(epoch.marks[0].cal, epoch.marks[1].cal).wall_factor
        in_time += sum(1 for r in epoch.window if not r.failed and r.latency <= limit)
    return {
        "latency.commit_p90_ms": percentile([r.latency for r in committed], 0.90) * 1e3,
        "latency.update_p50_ms": percentile(by_kind["local"], 0.50) * 1e3,
        "latency.update_p95_ms": percentile(by_kind["local"], 0.95) * 1e3,
        "latency.update_p99_ms": percentile(by_kind["local"], 0.99) * 1e3,
        "latency.update_max_ms": max(by_kind["local"], default=0.0) * 1e3,
        "latency.global_p50_ms": percentile(by_kind["global"], 0.50) * 1e3,
        "latency.global_p90_ms": percentile(by_kind["global"], 0.90) * 1e3,
        "latency.ro_p50_ms": percentile(by_kind["ro"], 0.50) * 1e3,
        "latency.ro_p95_ms": percentile(by_kind["ro"], 0.95) * 1e3,
        "slo.within_50ms_frac": in_time / max(1, len(window) + never),
        "run.measured_txns": float(len(window)),
        "run.update_samples": float(len(by_kind["local"])),
        "run.global_samples": float(len(by_kind["global"])),
        "run.ro_samples": float(len(by_kind["ro"])),
        "run.abort_frac": sum(1 for r in window if not r.committed and not r.failed)
        / max(1, len(window)),
        "run.failed_frac": (never + sum(1 for r in window if r.failed))
        / max(1, len(window) + never),
        "run.mean_tps": len(committed) / total_s,
        "run.mean_cpu_ms_per_commit": cpu_s * 1e3 / max(1, len(committed)),
        "run.epochs": float(len(epochs)),
        "steady.tps_drift_ratio": halves[1] / halves[0] if halves[0] else 0.0,
        "open.sender_late_p99_ms": percentile(late, 0.99) * 1e3,
        "mem.peak_rss_mb": max(epoch.marks[1].rss_kb for epoch in epochs) / 1024,
    }


def run_one(spec: WorkloadSpec, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """Measure ``seconds`` of ``spec`` in epochs, check the outputs, and
    return a value for every metric a run of this kind produces."""
    epoch_s = min(seconds, EPOCH_S)
    measured = max(1, round(seconds / epoch_s))
    # A traced run keeps its first measured epoch untraced, as the
    # reference the tracing overhead is measured against.
    reference = 1 if traced and measured > 1 else 0
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    calibrator = Calibrator()
    remove_gc_hook = None
    if traced:
        remove_gc_hook = layers.time_gc(tracer)
        calibrator.slice = tracer.wrap(calibrator.slice, "bench.calib")
    try:
        every = []
        for index in range(1 + measured):
            every.append(
                asyncio.run(
                    _run_epoch(
                        spec, seed * 100 + index, LEAD_IN_S, epoch_s, tracer, calibrator,
                        traced and index > reference, traced, work / f"epoch{index}",
                    )
                )
            )
            gc.collect()
        setups = [epoch.setup_s for epoch in every]
        while len(setups) < SETUP_REPEATS and not traced:
            setups.append(
                asyncio.run(_set_up_only(work / f"setup{len(setups)}", seed, calibrator))
            )
            gc.collect()
        # Input-independent, so measured once: with the workload whose
        # layers they explain.
        micro_values = (
            micro.run_all(micro.QUICK_BUDGET_S, work)
            if traced and spec.name == "local_closed"
            else dict.fromkeys(
                (m["name"] for m in load_contract()["per_layer"] if m["name"].startswith("micro.")),
                0.0,
            )
        )
    finally:
        if remove_gc_hook is not None:
            remove_gc_hook()
        calibrator.close()
        shutil.rmtree(work, ignore_errors=True)

    epochs = every[1 + reference :]
    epoch_rows = per_epoch(every)
    values = end_to_end(epoch_rows)
    values["setup_s"] = statistics.median(setups)
    detail: dict[str, Any] = {"per_epoch": epoch_rows, "setups_s": setups}
    window = [r for epoch in epochs for r in epoch.window]
    never = sum(epoch.never for epoch in epochs)
    if traced:
        counters: dict[str, int] = {}
        for epoch in epochs:
            for key, value in epoch.counters.items():
                counters[key] = counters.get(key, 0) + value
        layer_values = layers.layer_metrics(
            tracer,
            window,
            {r.tid: r for r in window},
            counters,
            sum(epoch.marks[1].t - epoch.marks[0].t for epoch in epochs),
            sum(epoch.marks[1].cpu - epoch.marks[0].cpu for epoch in epochs),
        )
        layer_values.update(diagnostics(epochs))
        # Every per-layer time is a sum or a percentile over all traced
        # windows, so it is calibrated with their pooled wall factor.
        speeds = [between(epoch.marks[0].cal, epoch.marks[1].cal) for epoch in epochs]
        speed = Speed(
            sum(s.slices for s in speeds), sum(s.wall_s for s in speeds), sum(s.cpu_s for s in speeds)
        )
        for metric in load_contract()["per_layer"]:
            if metric["unit"] == "ms" and metric["name"] in layer_values:
                layer_values[metric["name"]] /= speed.wall_factor
        layer_values["run.mean_tps"] *= speed.wall_factor
        layer_values["calib.wall_factor"] = speed.wall_factor
        layer_values["calib.cpu_factor"] = speed.cpu_factor
        values.update(layer_values)
        traced_cpu = statistics.median(
            row["cpu_ms_per_commit"] for row in epoch_rows[1 + reference :]
        )
        values["trace.cpu_ms_per_commit"] = traced_cpu
        values["trace.overhead_frac"] = (
            traced_cpu / epoch_rows[1]["cpu_ms_per_commit"] - 1.0 if reference else 0.0
        )
        values.update(micro_values)
        detail["self_ms_by_layer_kind"] = {
            f"{layer}:{kind}" if kind else layer: self_s * 1e3
            for (layer, kind), self_s in sorted(tracer.self_s.items())
        }
        detail["spans"] = [
            {"layer": s[0], "kind": s[1], "start": s[2], "end": s[3], "parent": s[4],
             "tid": None if s[5] is None else str(s[5])}
            for s in tracer.records
            if s is not None
        ]
    return {
        "values": values,
        "attempted": len(window) + never,
        "failed": never + sum(1 for r in window if r.failed),
        "problems": [p for epoch in every for p in epoch.problems],
        "detail": detail,
    }


def driver_main(args: argparse.Namespace) -> int:
    contract = load_contract()
    spec = WORKLOADS[args.workload]
    traced = bool(args.trace)
    outcome = run_one(spec, args.seed, args.seconds, traced)
    result = {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {},
    }
    print(f"# {spec.name} seed={args.seed} seconds={args.seconds} trace={int(traced)}")
    print(f"# rig: 2 partitions x 3 replicas, 8 clients, one loop, JSON codec, {rig_module.WAL_POLICY}")
    print("# times are in calibrated seconds (calib.py)")
    if outcome["problems"]:
        # A failed gate prints no metrics: numbers of a wrong run mean nothing.
        for problem in outcome["problems"]:
            print(f"GATE FAILED: {problem}")
        print(json.dumps(result))
        return 1
    section = contract["per_layer"] if traced else contract["end_to_end"]
    for m in section:
        value = outcome["values"][m["name"]]
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"{m['name']:42s} {value:14.4f} {m['unit']:8s} {m['better']}{bound}")
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"trace-{spec.name}.json" if traced else f"run-{spec.name}.json"
    (OUT_DIR / name).write_text(
        json.dumps({"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
                    "values": outcome["values"], **outcome["detail"]})
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def _run_subprocess(workload: str, seed: int, seconds: float, trace: int):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} (trace={trace}) failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def suite_main(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.smoke:
        seconds = 1.0
    repeat = 1 if args.smoke else args.repeat
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    result: dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "repeat": repeat, "smoke": args.smoke,
        "wal": rig_module.WAL_POLICY, "workloads": {},
    }
    for name in names:
        runs = [_run_subprocess(name, args.seed + i, seconds, 0) for i in range(repeat)]
        traced = _run_subprocess(name, args.seed, seconds, 1)
        rows = {}
        print(f"\n== {name}: {WORKLOADS[name].why}")
        print(f"   attempted {runs[0]['attempted']}, failed {runs[0]['failed']}, gate passed")
        for m in contract["end_to_end"]:
            samples = [run["metrics"][m["name"]]["value"] for run in runs]
            q1, median, q3 = quartiles(samples)
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3, "runs": samples}
            print(
                f"   {m['name']:40s} {median:12.4f} {m['unit']:7s} [{q1:.4f} .. {q3:.4f}] "
                f"{m['better']} is better, bound {m['bound']:.0%}"
            )
        print("   -- per layer (traced run)")
        for m in contract["per_layer"]:
            value = traced["metrics"][m["name"]]["value"]
            rows[m["name"]] = {"median": value, "q1": value, "q3": value, "runs": [value]}
            print(f"   {m['name']:40s} {value:12.4f} {m['unit']:7s}")
        result["workloads"][name] = rows
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {out}")
    return 0


def pin_hash_seed() -> None:
    """Re-execute under a fixed ``PYTHONHASHSEED``.

    String-hash randomisation alone moves this system's throughput by
    +-12% from one process to the next (set and dict iteration orders,
    bucket collisions); pinned, same-seed runs agree within ~4%.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="suite: just this one")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run of --workload, not the suite")
    parser.add_argument(
        "--repeat", type=int, default=10,
        help="suite: untraced runs per workload, seeds --seed .. --seed+K-1 (compare.py wants >= 5)",
    )
    parser.add_argument("--smoke", action="store_true", help="suite: 1 s epochs, one run, same gate")
    parser.add_argument("--out", help="suite: result file (default out/result.json)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return suite_main(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    return driver_main(args)


if __name__ == "__main__":
    pin_hash_seed()
    raise SystemExit(main())
