"""O1–O4 — the adversarial overload scenario suite (docs/PROTOCOL.md §16).

The paper measures steady state at 75 % of peak; production traffic does
not cooperate.  These scenarios drive the deployment through the four
classic ways offered load and capacity come apart, with the §16
admission controller (token bucket + bounded queues + ``Busy`` sheds)
protecting the servers and backoff-with-jitter clients on the other end:

* **O1** — a flash crowd spikes offered load past capacity while a
  hot-key storm concentrates it on a few objects;
* **O2** — a whole region drops off the network under load, then heals
  (recoverable loss, unlike a crash: the isolated replicas catch up);
* **O3** — one replica gray-fails (slow, not dead) — first a follower
  (quorum masks it), then the leader (it does not);
* **O4** — sustained 5x overload, with the admission controller on vs
  off (the pre-§16 ablation: silent unbounded queue growth).

Every scenario records full histories and must pass the replica
agreement and serializability checkers — shedding and backoff are
allowed to cost throughput, never correctness.
"""

from __future__ import annotations

from typing import Any

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig, ServiceCosts
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import lan_deployment, wan2_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ExperimentRun, run_open_loop
from repro.harness.faults import FaultSchedule
from repro.metrics.plot import render_bars
from repro.overload.admission import AdmissionConfig
from repro.workload.microbench import MicroBenchmark
from repro.workload.overload import ConstantRate, FlashCrowd, HotKeyStorm, LoadShape

#: 2 ms certify + 2 ms apply: one partition saturates at ~250 committed
#: tps, small enough that modest open-loop rates overload it.
COSTS = ServiceCosts(certify=0.002, apply=0.002)

#: Committed-tps ceiling of one partition under COSTS.
CAPACITY = 1.0 / (COSTS.certify + COSTS.apply)

LAN_DELTA = 0.0005

#: The suite's reference admission policy: bucket a notch below
#: capacity, shallow queue bound, with room for client bursts.
ADMISSION = AdmissionConfig(
    rate=0.9 * CAPACITY,
    burst=32.0,
    max_inflight=256,
    max_queue_depth=64,
)

#: Client-side failover timeouts.  Shed handling is the client's own: a
#: few resubmissions with fast backoff, then the transaction is reported
#: shed (``client.MAX_BUSY_RETRIES``), which keeps O4's shed rate visible
#: in the timeline instead of queueing retries past the run's end.
CLIENT_KNOBS = dict(commit_timeout=2.0, read_timeout=1.0)


def _check(run: ExperimentRun) -> str:
    """Run both safety checkers (raising on violation); returns a note."""
    assert run.recorder is not None
    replica_agreement(run.recorder).raise_if_failed()
    report = check_serializability(run.recorder)
    report.raise_if_failed()
    return f"checkers: agreement OK, serializable OK ({report.num_txns} txns)"


def _phase_rows(
    run: ExperimentRun,
    phases: list[tuple[str, float, float]],
) -> list[dict[str, Any]]:
    """Goodput / abort / shed rates per named ``(label, start, end)`` phase."""
    rows = []
    for label, start, end in phases:
        points = run.collector.goodput_timeline(start, end)
        seconds = max(1, len(points))
        rows.append(
            {
                "phase": label,
                "goodput_tps": round(sum(p[1] for p in points) / seconds, 1),
                "aborts_tps": round(sum(p[2] for p in points) / seconds, 1),
                "shed_tps": round(sum(p[3] for p in points) / seconds, 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# O1 — flash crowd + hot-key storm
# ----------------------------------------------------------------------


def run_o1(quick: bool = False) -> ExperimentTable:
    scale = 0.5 if quick else 1.0
    storm_start, storm_end = 6.0, 10.0
    run_for = 18.0  # long tail: the retry wave takes seconds to drain
    deployment = lan_deployment(2)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(costs=COSTS, admission=ADMISSION),
        seed=71,
        intra_delay=LAN_DELTA,
    )
    hot_keys = tuple(f"0/obj{i}" for i in range(6))
    trios: list[tuple[Any, Any, LoadShape]] = []
    for partition in deployment.partition_ids:
        home = int(partition[1:])
        for _ in range(2):
            client = cluster.add_client(
                region=deployment.preferred_region[partition],
                session_server=deployment.directory.preferred_of(partition),
                **CLIENT_KNOBS,
            )
            base = MicroBenchmark(2, home, 0.0, items_per_partition=2_000)
            workload = HotKeyStorm(
                base,
                clock=lambda: cluster.world.now,
                hot_keys=hot_keys,
                start=storm_start,
                end=storm_end,
                storm_fraction=0.8,
            )
            shape = FlashCrowd(
                base=40.0 * scale,
                peak=160.0 * scale,
                start=storm_start,
                end=storm_end,
                ramp=0.5,
            )
            trios.append((client, workload, shape))
    run = run_open_loop(
        cluster, trios, warmup=2.0, measure=run_for - 2.0, drain=3.0, record_history=True
    )
    check_note = _check(run)
    rows = _phase_rows(
        run,
        [
            ("before storm", 2.0, storm_start),
            ("storm (crowd + hot keys)", storm_start, storm_end),
            ("after storm", storm_end, run_for),
        ],
    )
    shed_total = run.counter("shed_total")
    timeline = run.collector.goodput_timeline(2.0, run_for)
    chart = render_bars(
        {f"t={t:.0f}s": tps for t, tps, _, _ in timeline},
        width=40,
        unit=" tps",
        title=f"goodput (storm over [{storm_start:.0f}s, {storm_end:.0f}s))",
    )
    return ExperimentTable(
        experiment_id="O1",
        title="Flash crowd with hot-key storm (overload suite)",
        rows=rows,
        notes=[
            f"admission shed {shed_total} requests across the run "
            f"(bucket {ADMISSION.rate:.0f}/s, queue bound {ADMISSION.max_queue_depth})",
            check_note,
            "\n" + chart,
        ],
    )


# ----------------------------------------------------------------------
# O2 — region loss and recovery under load
# ----------------------------------------------------------------------


def run_o2(quick: bool = False) -> ExperimentTable:
    rate = 15.0 if quick else 30.0
    lose_at, heal_at, run_for = 8.0, 15.0, 24.0
    deployment = wan2_deployment(2)
    regions = sorted(deployment.topology.regions())
    lost = deployment.preferred_region["p0"]  # takes p0's leader with it
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(
            notify_all_replicas=True,
            vote_timeout=2.0,
            admission=AdmissionConfig(max_inflight=512, max_queue_depth=128),
        ),
        seed=71,
        paxos_for=lambda _node, _partition: PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.4
        ),
    )
    trios: list[tuple[Any, Any, LoadShape]] = []
    for region in regions:
        if region == lost:
            continue  # clients share a lost region's fate; keep them out
        for home, partition in enumerate(deployment.partition_ids):
            client = cluster.add_client(region=region, **CLIENT_KNOBS)
            workload = MicroBenchmark(2, home, 0.1, items_per_partition=2_000)
            trios.append((client, workload, ConstantRate(rate)))
    schedule = (
        FaultSchedule()
        .region_loss(lose_at, cluster, lost)
        .region_heal(heal_at, cluster, lost)
    )
    schedule.arm(cluster)
    run = run_open_loop(
        cluster, trios, warmup=2.0, measure=run_for - 2.0, drain=3.0, record_history=True
    )
    check_note = _check(run)
    rows = _phase_rows(
        run,
        [
            ("healthy", 2.0, lose_at),
            ("region lost (failover)", lose_at, heal_at),
            ("healed (catch-up)", heal_at, run_for),
        ],
    )
    timeline = run.collector.goodput_timeline(2.0, run_for)
    chart = render_bars(
        {f"t={t:.0f}s": tps for t, tps, _, _ in timeline},
        width=40,
        unit=" tps",
        title=f"goodput ({lost} cut at t={lose_at:.0f}s, healed at t={heal_at:.0f}s)",
    )
    return ExperimentTable(
        experiment_id="O2",
        title="Region loss and recovery under load (overload suite)",
        rows=rows,
        notes=[
            f"lost region {lost} held p0's elected leader: the cut forces a "
            f"failover, the heal a Paxos catch-up",
            check_note,
            "\n" + chart,
        ],
    )


# ----------------------------------------------------------------------
# O3 — slow-replica gray failure
# ----------------------------------------------------------------------


def run_o3(quick: bool = False) -> ExperimentTable:
    rate_per_client = (0.2 if quick else 0.3) * CAPACITY
    follower_window = (6.0, 10.0)
    leader_window = (14.0, 18.0)
    run_for = 22.0
    deployment = lan_deployment(1)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(1),
        SdurConfig(costs=COSTS, admission=ADMISSION),
        seed=71,
        intra_delay=LAN_DELTA,
    )
    leader = deployment.directory.preferred_of("p0")
    follower = next(
        n for n in deployment.directory.servers_of("p0") if n != leader
    )
    trios: list[tuple[Any, Any, LoadShape]] = []
    for _ in range(2):
        client = cluster.add_client(**CLIENT_KNOBS)
        workload = MicroBenchmark(1, 0, 0.0, items_per_partition=2_000)
        trios.append((client, workload, ConstantRate(rate_per_client)))
    schedule = (
        FaultSchedule()
        .degrade(follower_window[0], follower, delay=0.05, jitter=0.02)
        .restore(follower_window[1], follower)
        .degrade(leader_window[0], leader, delay=0.05, jitter=0.02)
        .restore(leader_window[1], leader)
    )
    schedule.arm(cluster)
    run = run_open_loop(
        cluster, trios, warmup=2.0, measure=run_for - 2.0, drain=3.0, record_history=True
    )
    check_note = _check(run)
    phases = [
        ("healthy", 2.0, follower_window[0]),
        ("slow follower", *follower_window),
        ("recovered", follower_window[1], leader_window[0]),
        ("slow leader", *leader_window),
        ("recovered again", leader_window[1], run_for),
    ]
    rows = []
    for (label, start, end), base in zip(phases, _phase_rows(run, phases)):
        summary = run.collector.summary(start, end)
        base["p99_ms"] = round(summary.latency.ms("p99"), 1)
        rows.append(base)
    return ExperimentTable(
        experiment_id="O3",
        title="Slow-replica gray failure (overload suite)",
        rows=rows,
        notes=[
            f"degraded {follower} (follower) then {leader} (leader) by "
            f"+50 ms per message: the quorum masks a slow follower, while a "
            f"slow leader drags every broadcast without ever looking crashed",
            check_note,
        ],
    )


# ----------------------------------------------------------------------
# O4 — sustained 5x overload, admission on vs off
# ----------------------------------------------------------------------


#: O4's offered load, in multiples of CAPACITY.
O4_OVERLOAD = 5.0


def o4_once(admission_on: bool, quick: bool = False) -> dict[str, Any]:
    """One O4 run; shared with the CI scenario-smoke benchmark."""
    measure = 6.0 if quick else 10.0
    clients = 4
    rate_per_client = O4_OVERLOAD * CAPACITY / clients
    deployment = lan_deployment(1)
    config = SdurConfig(costs=COSTS, admission=ADMISSION if admission_on else None)
    cluster = build_cluster(
        deployment, PartitionMap.by_index(1), config, seed=71, intra_delay=LAN_DELTA
    )
    trios: list[tuple[Any, Any, LoadShape]] = []
    for _ in range(clients):
        client = cluster.add_client(**CLIENT_KNOBS)
        workload = MicroBenchmark(1, 0, 0.0, items_per_partition=5_000)
        trios.append((client, workload, ConstantRate(rate_per_client)))
    run = run_open_loop(
        cluster, trios, warmup=2.0, measure=measure, drain=3.0, record_history=True
    )
    check_note = _check(run)
    summary = run.summary()
    stats = cluster.server_stats()
    shed = sum(1 for r in run.collector.results if (r.abort_reason or "").startswith("shed"))
    return {
        "mode": "admission on" if admission_on else "admission off (ablation)",
        "offered_tps": round(clients * rate_per_client),
        "goodput_tps": round(summary.throughput, 1),
        "p50_ms": round(summary.latency.ms("p50"), 1),
        "p99_ms": round(summary.latency.ms("p99"), 1),
        "shed": shed,
        "shed_total": run.counter("shed_total"),
        "queue_depth_max": max(s["queue_depth_max"] for s in stats.values()),
        "stall_depth_max": max(s["stall_depth_max"] for s in stats.values()),
        "check_note": check_note,
    }


def run_o4(quick: bool = False) -> ExperimentTable:
    on = o4_once(admission_on=True, quick=quick)
    off = o4_once(admission_on=False, quick=quick)
    columns = [
        "mode",
        "offered_tps",
        "goodput_tps",
        "p50_ms",
        "p99_ms",
        "shed_total",
        "queue_depth_max",
        "stall_depth_max",
    ]
    rows = [{c: result[c] for c in columns} for result in (on, off)]
    bound = 2 * ADMISSION.max_queue_depth
    bounded = on["queue_depth_max"] <= bound
    return ExperimentTable(
        experiment_id="O4",
        title="Sustained 5x overload: admission on vs off (overload suite)",
        rows=rows,
        notes=[
            f"queue bound {'HELD' if bounded else 'VIOLATED'}: admission-on "
            f"backlog peaked at {on['queue_depth_max']} "
            f"(bound {ADMISSION.max_queue_depth}, hard ceiling {bound}); "
            f"the ablation grew to {off['queue_depth_max']}",
            f"admission on: {on['check_note']}",
            f"admission off: {off['check_note']}",
        ],
    )
