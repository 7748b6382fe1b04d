"""Shared helper: one traced transaction on a uniform-δ/Δ WAN 1 cluster.

The same setup as ``tests/integration/test_latency_model.py`` — single
unloaded client, uniform one-way delays, zero CPU costs — but with a
:class:`SpanRecorder` installed, so the resulting trace's hop arithmetic
is exactly the latency model's — Figure 1's own with
``optimistic_oracle=True`` (votes act on arrival,
``tests/oracles/optimistic_termination.py``), Figure 1 plus the §14.4
vote tax otherwise.
"""

from __future__ import annotations

from repro.core.client import TxnResult
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import wan1_deployment
from repro.harness.cluster import SdurCluster
from repro.net.topology import RegionLatencyModel
from repro.obs.recorder import SpanRecorder
from repro.obs.spans import TxnTrace, build_traces
from repro.runtime.sim import SimWorld
from tests.conftest import read_program, run_txn, update_program
from tests.oracles import optimistic_termination

DELTA = 0.005
INTER = 0.060


def traced_commit(
    is_global: bool,
    optimistic_oracle: bool = False,
    read_only: bool = False,
) -> tuple[TxnResult, TxnTrace, SimWorld]:
    """Run one traced transaction; returns (result, its trace, the world)."""
    deployment = wan1_deployment(2)
    world = SimWorld(
        topology=deployment.topology,
        latency=RegionLatencyModel.uniform(deployment.topology, DELTA, INTER),
        seed=13,
        obs=SpanRecorder(),
    )
    cluster = SdurCluster(world, deployment, PartitionMap.by_index(2), SdurConfig())
    client = cluster.add_client(region=deployment.preferred_region["p0"])
    if optimistic_oracle:
        optimistic_termination.install(cluster)
    cluster.start()
    world.run_for(1.0)
    keys = ["0/a", "1/b"] if is_global else ["0/a", "0/b"]
    program = read_program(keys) if read_only else update_program(keys)
    result = run_txn(cluster, client, program, read_only=read_only)
    traces = build_traces(world.obs.events)
    return result, traces[result.tid], world
