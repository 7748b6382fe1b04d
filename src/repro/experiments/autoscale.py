"""E3 — autonomous elasticity under a drifting hotspot (extension).

E2 showed a *scheduled* split keeps clients committing; E3 closes the
loop: nobody schedules anything.  A 2-partition LAN cluster runs the
:class:`repro.workload.drift.DriftingHotspot` workload — a zipf hot
range that parks on one partition's keyspace for ``dwell`` seconds and
then jumps to the next block — while the
:class:`repro.autoscale.AutoscaleController` samples per-partition
pressure every 500 ms and decides on its own when to split a saturated
partition and when to merge a cooled child back into its parent
(docs/PROTOCOL.md §17.4).

The acceptance bar: at least one split *and* one merge fire
autonomously, the serializability and replica-agreement checkers pass
over the whole history (including the merge installs' synthetic
commits), and no 1-second goodput bucket drops to zero — reconfiguration
never opens an availability hole.
"""

from __future__ import annotations

from repro.autoscale import AutoscaleConfig
from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core.config import SdurConfig, ServiceCosts
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ClosedLoopDriver
from repro.metrics.collector import MetricsCollector
from repro.metrics.plot import render_bars
from repro.workload.drift import DriftingHotspot

#: E2's cost model: ~1000 tps of certify+apply capacity per partition,
#: so the controller's default ``capacity=1000`` matches the hardware.
COSTS = ServiceCosts(read=0.00005, certify=0.0005, apply=0.0005)

#: Controller settings the scenario runs with — exported so the
#: benchmark gate can reference the watermarks it was tuned against.
CONTROL = AutoscaleConfig(
    interval=0.5,
    capacity=1000.0,
    high_water=0.75,
    low_water=0.25,
    sustain=4,
    cooldown=6.0,
    min_partitions=2,
    max_partitions=4,
)

LAN_DELTA = 0.0005
DWELL = 12.0
RUN_FOR = 30.0


def e3_once(clients: int = 8, run_for: float = RUN_FOR) -> dict:
    """One deterministic run of the drifting-hotspot autoscale scenario.

    Returns the raw numbers both the experiment table and the
    ``bench_e3_autoscale`` CI smoke are built from.
    """
    deployment = lan_deployment(2)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(costs=COSTS),
        seed=91,
        intra_delay=LAN_DELTA,
    )
    controller = cluster.enable_autoscale(CONTROL)
    recorder = cluster.attach_recorder()
    collector = MetricsCollector()
    drivers = []
    for _ in range(clients):
        client = cluster.add_client(
            region=deployment.preferred_region["p0"],
            commit_timeout=1.0,
            read_timeout=0.5,
        )
        workload = DriftingHotspot(
            2,
            clock=lambda: cluster.world.now,
            items_per_partition=1_000,
            theta=0.8,
            dwell=DWELL,
            global_fraction=0.05,
        )
        drivers.append(ClosedLoopDriver(client, workload, collector, recorder=recorder))
    cluster.start()
    for driver in drivers:
        driver.start()
    cluster.world.run(until=run_for)
    for driver in drivers:
        driver.stop()
    cluster.world.run(until=run_for + 2.0)

    serial = check_serializability(recorder)
    agreement = replica_agreement(recorder, cluster.replica_counts())
    counters = controller.counters()
    timeline = collector.goodput_timeline(1.0, run_for, bucket=1.0)
    goodput = [tps for _, tps, _, _ in timeline]
    return {
        "clients": clients,
        "run_for": run_for,
        "splits_triggered": counters["splits_triggered"],
        "merges_triggered": counters["merges_triggered"],
        "decisions_suppressed_cooldown": counters["decisions_suppressed_cooldown"],
        "config_epoch": cluster.routing.epoch,
        "active_partitions": len(cluster.routing.active_partitions()),
        "mean_goodput_tps": round(sum(goodput) / len(goodput), 1),
        "min_goodput_tps": round(min(goodput), 1),
        "serializable": serial.ok,
        "replica_agreement": agreement.ok,
        "events": [
            (round(t, 1), action, partition, into)
            for t, action, partition, into in controller.events
        ],
        "timeline": [(t, round(tps, 1)) for t, tps, _, _ in timeline],
    }


def run(quick: bool = False) -> ExperimentTable:
    result = e3_once(clients=8 if quick else 12)
    rows = [
        {"metric": "splits triggered", "value": result["splits_triggered"]},
        {"metric": "merges triggered", "value": result["merges_triggered"]},
        {
            "metric": "decisions suppressed by cooldown",
            "value": result["decisions_suppressed_cooldown"],
        },
        {"metric": "config epochs consumed", "value": result["config_epoch"]},
        {"metric": "active partitions at end", "value": result["active_partitions"]},
        {"metric": "mean goodput (tps)", "value": result["mean_goodput_tps"]},
        {"metric": "min 1s goodput bucket (tps)", "value": result["min_goodput_tps"]},
        {"metric": "serializable", "value": result["serializable"]},
        {"metric": "replica agreement", "value": result["replica_agreement"]},
    ]
    events = "; ".join(
        f"t={t:.1f}s {action} {partition}" + (f"->{into}" if into else "")
        for t, action, partition, into in result["events"]
    )
    chart = render_bars(
        {f"t={t:.0f}s": tps for t, tps in result["timeline"]},
        width=40,
        unit=" tps",
        title=f"goodput timeline (hotspot drifts every {DWELL:.0f}s; controller acts alone)",
    )
    return ExperimentTable(
        experiment_id="E3",
        title="Autonomous elasticity under a drifting hotspot (extension)",
        rows=rows,
        notes=[
            f"controller decisions: {events or 'none'}",
            "\n" + chart,
        ],
    )
