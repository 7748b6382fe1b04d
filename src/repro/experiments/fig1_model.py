"""T1 — the latency-model table of Figure 1, modelled vs measured vs attributed.

For each deployment the paper tabulates the cost of remote reads, local
termination, global termination, and the fault-tolerance properties.
This experiment measures each quantity with a single unloaded client in
a uniform-Δ world on the system that ships — votes ordered through each
partition's own log (docs/PROTOCOL.md §14) — and compares it with the
model of that system: Figure 1 plus one local broadcast at each end of
the vote path (+4δ on WAN 1, +4Δ on WAN 2 for globals, locals
untouched).  Figure 1's own formula for a global commit is printed
alongside as a reference column; the arrival-time termination it
assumes lives in ``tests/oracles/optimistic_termination.py``, where
``tests/integration/test_latency_model.py`` asserts the paper's numbers
exactly.

Every run is traced (``repro.obs``), and the attribution columns
decompose the measured commit into named per-hop terms — e.g. WAN 1
global reads ``request δ + order 2δ+Δ + ledger 2δ + vote Δ +
resequence 2δ + notify δ`` — with the per-term means telescoping to the
measured latency.  See docs/OBSERVABILITY.md for how to read them.

Expected agreement (documented in EXPERIMENTS.md): WAN 1 local = 4δ,
WAN 1 global = 8δ+2Δ, WAN 2 local = 2δ+2Δ exactly; WAN 2 global falls in
[3δ+6Δ, 2δ+8Δ] depending on the Paxos learning strategy, bracketing the
modelled 3δ+7Δ exactly as the paper's 3δ+3Δ is bracketed without the
vote tax (Deviation D2 in EXPERIMENTS.md): with relay learning the
remote coordinator decides at 2Δ and its vote travels one more Δ; with
broadcast learning the co-located replica learns at 2Δ and votes within
δ.  Measured commit latencies below have the 2δ execution phase (the
two reads) subtracted so they are directly comparable.
"""

from __future__ import annotations

from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.analytical import analytical_latencies
from repro.geo.deployments import wan1_deployment, wan2_deployment
from repro.harness.cluster import SdurCluster
from repro.harness.driver import run_experiment
from repro.net.topology import RegionLatencyModel
from repro.obs.attribution import AttributionSummary, attribute, summarize
from repro.obs.recorder import SpanRecorder
from repro.runtime.sim import SimWorld
from repro.workload.microbench import MicroBenchmark

#: Uniform one-way delays used for the hop-accounting comparison.
DELTA = 0.005
INTER_DELTA = 0.060


def _measure(
    deployment_name: str,
    global_fraction: float,
    accepted_broadcast: bool = False,
) -> tuple[float, AttributionSummary | None]:
    """Mean commit latency (reads subtracted) + per-term attribution."""
    deployment = (
        wan1_deployment(2) if deployment_name == "wan1" else wan2_deployment(2)
    )
    world = SimWorld(
        topology=deployment.topology,
        latency=RegionLatencyModel.uniform(deployment.topology, DELTA, INTER_DELTA),
        seed=11,
        obs=SpanRecorder(),
    )
    cluster = SdurCluster(
        world,
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(tracing=True),
        paxos_for=lambda _node, partition: PaxosConfig(
            static_leader=deployment.directory.preferred_of(partition),
            accepted_broadcast=accepted_broadcast,
        ),
    )
    client = cluster.add_client(region=deployment.preferred_region["p0"])
    workload = MicroBenchmark(2, 0, global_fraction, items_per_partition=100)
    run = run_experiment(cluster, [(client, workload)], warmup=2.0, measure=20.0)
    mean = run.summary().latency.mean
    summary = summarize(
        [attribute(t, DELTA, INTER_DELTA) for t in run.traces().values()]
    )
    return mean - 2 * DELTA, summary  # strip the execution phase (two reads)


def _attr_cell(summary: AttributionSummary | None) -> str:
    if summary is None:
        return ""
    return f"{summary.formula} = {summary.breakdown()}"


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    max_residual = 0.0
    for name in ("wan1", "wan2"):
        modelled = analytical_latencies(name, DELTA, INTER_DELTA, termination="ledger")
        figure1 = analytical_latencies(name, DELTA, INTER_DELTA)
        measured_local, local_attr = _measure(name, 0.0)
        measured_global, global_attr = _measure(name, 1.0)
        row = modelled.row()
        row["figure1_global_ms"] = round(figure1.global_commit * 1000, 3)
        row["measured_local_ms"] = round(measured_local * 1000, 2)
        row["measured_global_ms"] = round(measured_global * 1000, 2)
        row["local_attribution"] = _attr_cell(local_attr)
        row["global_attribution"] = _attr_cell(global_attr)
        rows.append(row)
        for summary in (local_attr, global_attr):
            if summary is not None:
                max_residual = max(max_residual, summary.max_residual)
        if name == "wan2" and not quick:
            measured_bcast, bcast_attr = _measure(name, 1.0, accepted_broadcast=True)
            rows.append(
                {
                    "deployment": "wan2 (2B broadcast ablation)",
                    "global_commit_ms": round((3 * DELTA + 6 * INTER_DELTA) * 1000, 3),
                    "measured_global_ms": round(measured_bcast * 1000, 2),
                    "global_attribution": _attr_cell(bcast_attr),
                }
            )
    return ExperimentTable(
        experiment_id="T1",
        title="Figure 1 latency model: modelled vs measured vs attributed",
        rows=rows,
        notes=[
            f"delta={DELTA * 1000:.0f} ms, Delta={INTER_DELTA * 1000:.0f} ms (one-way)",
            "Attribution columns decompose each traced commit into per-hop "
            "terms (docs/OBSERVABILITY.md); terms telescope to the measured "
            f"latency (max residual {max_residual * 1e6:.1f} us).",
            "global_commit_ms models the shipped system: Figure 1 "
            "(figure1_global_ms) plus two local broadcasts per global "
            "commit (+4δ WAN1, +4Δ WAN2); docs/PROTOCOL.md §14.4.",
            "WAN2 global: the modelled 3δ+7Δ is bracketed by relay (2δ+8Δ) "
            "and broadcast (3δ+6Δ) learning — Deviation D2; see EXPERIMENTS.md.",
        ],
    )
