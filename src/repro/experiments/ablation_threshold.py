"""A2 — reorder-threshold sweep (the paper's §IV-E warning).

"The reordering threshold must be carefully chosen: a value that is too
high with respect to the number of local transactions in the workload
might introduce unnecessary delays for global transactions."

A global transaction cannot complete before the partition delivers
``R`` further transactions (or no-op ticks), so oversizing R trades
global latency for local-latency gains that saturate.  This sweep makes
the trade-off visible at a fixed 10 %-globals WAN 1 workload.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, GeoRunParams, run_geo_microbench

#: Spans under-sized .. well-sized .. grossly over-sized at the
#: simulator's delivery rate (the paper's 80-320 correspond to our
#: 8-32; see fig4_reorder_wan1 on threshold scaling).
THRESHOLDS = (0, 8, 32, 128, 512)


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    for threshold in THRESHOLDS:
        params = GeoRunParams(
            deployment="wan1",
            global_fraction=0.10,
            reorder_threshold=threshold,
            seed=101,
        )
        if quick:
            params = params.quick()
        result = run_geo_microbench(params)
        row = {
            "R": threshold,
            "local_p99_ms": result.row()["local_p99_ms"],
            "local_avg_ms": result.row()["local_avg_ms"],
            "global_p99_ms": result.row()["global_p99_ms"],
            "global_avg_ms": result.row()["global_avg_ms"],
            "noops": sum(
                stats["noops_sent"] for stats in result.run.cluster.server_stats().values()
            ),
            "tput_total": result.row()["tput_total"],
        }
        rows.append(row)
    return ExperimentTable(
        experiment_id="A2",
        title="Reorder-threshold sweep at 10% globals in WAN 1 (§IV-E trade-off)",
        rows=rows,
        notes=[
            "local p99 should improve then flatten as R grows; global latency "
            "should degrade once R far exceeds the local arrival rate "
            "(the threshold is then met by no-op ticks, not real traffic)"
        ],
    )
