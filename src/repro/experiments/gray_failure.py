"""G1 — gray-failure detection via live telemetry (OBSERVABILITY.md §19).

The ROADMAP's warning made concrete: *a replica that is alive but 100x
slow is worse than a dead one* — nothing times out, the quorum masks
it, and the first visible symptom is goodput decay.  G1 shows the §19
pipeline catching it live.  One partition, three replicas, sustained
open-loop load at ~80 % of capacity; at ``DEGRADE_AT`` a follower gets
+80 ms (±40 ms jitter) on every message — alive, voting, just slow.
Its applied version (``sdur_sc``) immediately starts trailing its
partition peers by ≈ rate × delay versions, and the
:class:`HealthMonitor`'s MAD outlier test flags it ``degraded`` after
``sustain`` consecutive samples — within :data:`DETECT_BUDGET` samples
of the injection, while cluster goodput is still nominal (the preferred
replica serves clients; the checker asserts both).

The scenario also round-trips the run's telemetry through both export
formats (OpenMetrics text and JSONL) — an export you cannot parse back
is not telemetry — and renders the detection timeline as the
experiment table, plus the ASCII dashboard in the notes.
"""

from __future__ import annotations

from typing import Any

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.experiments.overload import ADMISSION, CAPACITY, CLIENT_KNOBS, COSTS, LAN_DELTA
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_open_loop
from repro.harness.faults import FaultSchedule
from repro.telemetry import (
    HealthConfig,
    TelemetryConfig,
    export_jsonl,
    parse_jsonl,
    parse_openmetrics,
    render_dashboard,
    render_openmetrics,
)
from repro.workload.microbench import MicroBenchmark
from repro.workload.overload import ConstantRate

#: Telemetry sampling interval (sim seconds).
INTERVAL = 0.5
#: Injection and recovery instants.
DEGRADE_AT = 6.0
RESTORE_AT = 12.0
#: Detection budget: the monitor must flag the slow replica within this
#: many samples of the injection (sustain=3 outlier samples + 2 slack
#: for the fault to take effect and the sample phase to align).
DETECT_BUDGET = 5

HEALTH = HealthConfig(mad_k=3.0, sustain=3, apply_lag_floor=8.0)


def g1_once(quick: bool = False) -> dict[str, Any]:
    """One G1 run with all assertions; shared with the CI smoke job."""
    run_for = 12.0 if quick else 16.0
    restore_at = min(RESTORE_AT, run_for - 2.0)
    rate_per_client = 0.4 * CAPACITY
    deployment = lan_deployment(1)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(1),
        SdurConfig(costs=COSTS, admission=ADMISSION),
        seed=71,
        intra_delay=LAN_DELTA,
    )
    sampler = cluster.enable_telemetry(
        TelemetryConfig(interval=INTERVAL, health=HEALTH)
    )
    leader = deployment.directory.preferred_of("p0")
    follower = next(n for n in deployment.directory.servers_of("p0") if n != leader)
    trios = []
    for _ in range(2):
        client = cluster.add_client(**CLIENT_KNOBS)
        workload = MicroBenchmark(1, 0, 0.0, items_per_partition=2_000)
        trios.append((client, workload, ConstantRate(rate_per_client)))
    schedule = (
        FaultSchedule()
        .degrade(DEGRADE_AT, follower, delay=0.08, jitter=0.04)
        .restore(restore_at, follower)
    )
    schedule.arm(cluster)
    run = run_open_loop(
        cluster, trios, warmup=2.0, measure=run_for - 2.0, drain=3.0, record_history=True
    )

    # -- safety: gray failure must never cost correctness --------------
    assert run.recorder is not None
    replica_agreement(run.recorder).raise_if_failed()
    check_serializability(run.recorder).raise_if_failed()

    # -- detection: flagged fast, exclusively, and recovered -----------
    monitor = cluster.health_monitor
    assert monitor is not None
    degrade_events = [e for e in monitor.events if e[2] == "degraded"]
    assert degrade_events, "gray-failed replica was never flagged"
    flagged = {e[1] for e in degrade_events}
    assert flagged == {follower}, f"false positives flagged: {flagged - {follower}}"
    detected_at = degrade_events[0][0]
    deadline = DEGRADE_AT + DETECT_BUDGET * INTERVAL
    assert detected_at <= deadline, (
        f"detected at t={detected_at:.1f}, budget was t<={deadline:.1f}"
    )
    recovery = [e for e in monitor.events if e[2] == "ok" and e[1] == follower]
    assert recovery, "flagged replica never recovered after restore"
    assert cluster.health()["degraded"] == [], "health report still degraded at end"

    # -- goodput had not collapsed when the detector fired -------------
    pre = run.collector.summary(2.0, DEGRADE_AT).throughput
    at_detect = run.collector.summary(DEGRADE_AT, detected_at + INTERVAL).throughput
    assert at_detect >= 0.8 * pre, (
        f"goodput already collapsed before detection: {at_detect:.0f} vs {pre:.0f} tps"
    )

    # -- exports of the same run parse / round-trip --------------------
    om_text = render_openmetrics(sampler.registries)
    om = parse_openmetrics(om_text)
    for node in deployment.directory.servers_of("p0"):
        stats = cluster.servers[node].server.stats
        assert om[node]["sdur_committed_local"] == float(stats.committed_local)
        assert om[node]["sdur_commit_latency_count"] == float(
            cluster.servers[node].server._hist_commit_latency.count
        )
    jsonl_text = export_jsonl(sampler)
    rows = parse_jsonl(jsonl_text)
    assert len(rows) == sum(1 for r in rows)  # every line parsed
    last = max((r for r in rows if r["node"] == follower), key=lambda r: r["t"])
    assert last["metrics"]["sdur_sc"] == sampler.latest(follower, "sdur_sc")

    # -- the detection timeline, for the report ------------------------
    members = deployment.directory.servers_of("p0")
    sc = {n: dict(zip(sampler.series[n]["sdur_sc"].times(),
                      sampler.series[n]["sdur_sc"].values())) for n in members}
    timeline = []
    for t in sorted(sc[follower]):
        if t < DEGRADE_AT - 2 * INTERVAL or t > restore_at + 4 * INTERVAL:
            continue
        top = max(sc[n].get(t, 0.0) for n in members)
        row: dict[str, Any] = {"t": round(t, 1)}
        for n in members:
            row[f"lag_{n}"] = int(top - sc[n].get(t, 0.0))
        state = next(
            (s for (et, en, s, _r) in reversed(monitor.events)
             if en == follower and et <= t),
            "ok",
        )
        row["verdict"] = f"{follower}:{state}"
        timeline.append(row)
    return {
        "leader": leader,
        "follower": follower,
        "degrade_at": DEGRADE_AT,
        "restore_at": restore_at,
        "detected_at": round(detected_at, 1),
        "detect_samples": int(round((detected_at - DEGRADE_AT) / INTERVAL)),
        "recovered_at": round(recovery[0][0], 1),
        "pre_goodput_tps": round(pre, 1),
        "goodput_at_detection_tps": round(at_detect, 1),
        "samples_taken": sampler.samples_taken,
        "openmetrics_bytes": len(om_text),
        "jsonl_rows": len(rows),
        "timeline": timeline,
        "dashboard": render_dashboard(
            sampler, metrics=["sdur_certified", "sdur_sc"], health=monitor
        ),
    }


def run(quick: bool = False) -> ExperimentTable:
    result = g1_once(quick=quick)
    notes = [
        f"degraded {result['follower']} (follower) at t={result['degrade_at']}s by "
        f"+80 ms/message: flagged at t={result['detected_at']}s "
        f"({result['detect_samples']} samples), recovered at "
        f"t={result['recovered_at']}s after the t={result['restore_at']}s restore",
        f"goodput at detection {result['goodput_at_detection_tps']} tps vs "
        f"{result['pre_goodput_tps']} tps healthy — flagged before visible collapse",
        f"exports round-tripped: OpenMetrics ({result['openmetrics_bytes']} bytes), "
        f"JSONL ({result['jsonl_rows']} rows); checkers: agreement OK, serializable OK",
        "dashboard (sdur_sc shows the lag wedge):\n" + result["dashboard"],
    ]
    return ExperimentTable(
        experiment_id="G1",
        title="Gray-failure detection via live telemetry",
        rows=result["timeline"],
        notes=notes,
    )
