"""T1: the simulator reproduces the closed-form latency model.

Single unloaded client, uniform δ/Δ, zero CPU costs, coordinator-relay
Paxos (the default).  Measured commit latency (execution phase of 2δ for
the two reads subtracted) must match, for the system as shipped
(docs/PROTOCOL.md §14 — two local broadcasts on every global's vote
path, locals untouched):

* WAN 1 local:  4δ          (exact)
* WAN 1 global: 8δ + 2Δ     (exact)
* WAN 2 local:  2δ + 2Δ     (exact)
* WAN 2 global: between 3δ+6Δ (broadcast learning) and 2δ+8Δ (relay —
  the remote coordinator's vote travels one Δ after its 2Δ decision),
  bracketing the modelled 3δ+7Δ.

Figure 1 itself assumes a vote acts when it arrives, so its exact cases
(4δ + 2Δ; the [3δ+2Δ, 2δ+4Δ] bracket around 3δ+3Δ) are asserted against
the arrival-time oracle, ``tests/oracles/optimistic_termination.py``.
"""

import pytest

from repro.consensus.replica import PaxosConfig
from repro.core.partitioning import PartitionMap
from repro.core.config import SdurConfig
from repro.geo.analytical import analytical_latencies
from repro.geo.deployments import wan1_deployment, wan2_deployment
from repro.harness.cluster import SdurCluster
from repro.net.topology import RegionLatencyModel
from repro.runtime.sim import SimWorld
from tests.conftest import run_txn, update_program
from tests.oracles import optimistic_termination

DELTA = 0.005
INTER = 0.060


def measure(
    deployment_name: str,
    is_global: bool,
    accepted_broadcast: bool = False,
    optimistic_oracle: bool = False,
) -> float:
    deployment = wan1_deployment(2) if deployment_name == "wan1" else wan2_deployment(2)
    world = SimWorld(
        topology=deployment.topology,
        latency=RegionLatencyModel.uniform(deployment.topology, DELTA, INTER),
        seed=13,
    )
    cluster = SdurCluster(world, deployment, PartitionMap.by_index(2), SdurConfig())
    for partition in deployment.partition_ids:
        for node in deployment.directory.servers_of(partition):
            cluster._add_server(
                node,
                partition,
                PaxosConfig(
                    static_leader=deployment.directory.preferred_of(partition),
                    accepted_broadcast=accepted_broadcast,
                ),
            )
    client = cluster.add_client(region=deployment.preferred_region["p0"])
    if optimistic_oracle:
        optimistic_termination.install(cluster)
    cluster.start()
    world.run_for(1.0)
    keys = ["0/a", "1/b"] if is_global else ["0/a", "0/b"]
    result = run_txn(cluster, client, update_program(keys))
    assert result.committed
    return result.latency - 2 * DELTA  # strip the read round trip


class TestFigure1:
    @pytest.mark.parametrize("deployment", ["wan1", "wan2"])
    def test_locals_pay_no_vote_tax(self, deployment):
        """WAN 1 local is 4δ, WAN 2 local 2δ+2Δ: Figure 1's numbers,
        with or without the ledger."""
        expected = analytical_latencies(deployment, DELTA, INTER).local_commit
        ledger = analytical_latencies(deployment, DELTA, INTER, termination="ledger")
        assert ledger.local_commit == expected
        assert measure(deployment, is_global=False) == pytest.approx(expected, abs=1e-3)

    def test_wan1_global_adds_two_local_broadcasts(self):
        expected = analytical_latencies("wan1", DELTA, INTER, termination="ledger")
        got = measure("wan1", is_global=True)
        assert got == pytest.approx(expected.global_commit, abs=1e-3)  # 8δ + 2Δ

    def test_wan2_global_brackets_modelled_formula(self):
        modelled = analytical_latencies(
            "wan2", DELTA, INTER, termination="ledger"
        ).global_commit  # 3δ + 7Δ
        relay = measure("wan2", is_global=True)
        broadcast = measure("wan2", is_global=True, accepted_broadcast=True)
        assert broadcast == pytest.approx(3 * DELTA + 6 * INTER, abs=2e-3)
        assert relay == pytest.approx(2 * DELTA + 8 * INTER, abs=2e-3)
        assert broadcast <= modelled <= relay

    def test_oracle_wan1_global_is_figure_1s_4_delta_plus_2_inter(self):
        expected = analytical_latencies("wan1", DELTA, INTER).global_commit
        got = measure("wan1", is_global=True, optimistic_oracle=True)
        assert got == pytest.approx(expected, abs=1e-3)

    def test_oracle_wan2_global_brackets_papers_formula(self):
        paper = analytical_latencies("wan2", DELTA, INTER).global_commit  # 3δ+3Δ
        relay = measure("wan2", is_global=True, optimistic_oracle=True)
        broadcast = measure(
            "wan2", is_global=True, accepted_broadcast=True, optimistic_oracle=True
        )
        assert broadcast == pytest.approx(3 * DELTA + 2 * INTER, abs=2e-3)
        assert relay == pytest.approx(2 * DELTA + 4 * INTER, abs=2e-3)
        assert broadcast <= paper <= relay

    def test_remote_read_is_2_delta(self):
        """A global transaction reads the remote partition via its
        co-located replica within 2δ (paper §IV-B)."""
        deployment = wan1_deployment(2)
        world = SimWorld(
            topology=deployment.topology,
            latency=RegionLatencyModel.uniform(deployment.topology, DELTA, INTER),
            seed=13,
        )
        cluster = SdurCluster(world, deployment, PartitionMap.by_index(2), SdurConfig())
        for partition in deployment.partition_ids:
            for node in deployment.directory.servers_of(partition):
                cluster._add_server(
                    node,
                    partition,
                    PaxosConfig(static_leader=deployment.directory.preferred_of(partition)),
                )
        # The read-only transaction's vector rides its one remote read.
        client = cluster.add_client(region="eu")
        cluster.start()
        world.run_for(1.0)
        from repro.core.client import Read

        def program(txn):
            yield Read("1/remote")

        result = run_txn(cluster, client, program, read_only=True)
        assert result.latency == pytest.approx(2 * DELTA, abs=1e-3)

    def test_fault_tolerance_columns(self):
        wan1 = analytical_latencies("wan1", DELTA, INTER)
        wan2 = analytical_latencies("wan2", DELTA, INTER)
        assert wan1.tolerates_datacenter_failure and not wan1.tolerates_region_failure
        assert wan2.tolerates_datacenter_failure and wan2.tolerates_region_failure

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError):
            analytical_latencies("wan9", DELTA, INTER)
