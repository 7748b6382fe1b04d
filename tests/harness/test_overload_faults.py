"""Gray-failure (degrade/restore) and region loss/heal fault injection."""

import pytest

from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError
from repro.geo.deployments import wan2_deployment
from repro.harness.cluster import build_cluster
from repro.harness.faults import Fault, FaultSchedule
from tests.conftest import make_cluster, read_program, run_txn, update_program


class TestDegradeValidation:
    def test_degrade_needs_a_node(self):
        with pytest.raises(ConfigurationError):
            Fault(at=1.0, kind="degrade", target=("a", "b"))

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(at=1.0, kind="degrade", target="s1", delay=-0.1)
        with pytest.raises(ConfigurationError):
            Fault(at=1.0, kind="degrade", target="s1", delay=0.1, jitter=-0.1)

    def test_network_rejects_negative_penalty(self):
        cluster = make_cluster(1)
        with pytest.raises(ValueError):
            cluster.world.network.degrade("s1", -0.1)


class TestDegradeRestore:
    def test_degrade_adds_latency_both_directions(self):
        """Messages to AND from a degraded node carry the extra delay."""
        cluster = make_cluster(1)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        baseline = run_txn(cluster, client, read_program(["0/x"]))
        healthy_latency = baseline.finished - baseline.started

        # Degrade the session server: the read round-trip crosses it twice.
        cluster.world.network.degrade(client.config.session_server, 0.1)
        slow = run_txn(cluster, client, read_program(["0/x"]))
        slow_latency = slow.finished - slow.started
        assert slow_latency >= healthy_latency + 0.2

        cluster.world.network.restore(client.config.session_server)
        recovered = run_txn(cluster, client, read_program(["0/x"]))
        assert recovered.finished - recovered.started < healthy_latency + 0.05

    def test_degraded_node_self_sends_unaffected(self):
        """The penalty models the node's NIC/link, not its CPU: loopback
        delivery (server to itself) stays fast."""
        cluster = make_cluster(1)
        network = cluster.world.network
        network.degrade("s1", 5.0)
        assert network._degrade_penalty("s1", "s2") >= 5.0
        assert network._degrade_penalty("s2", "s1") >= 5.0
        # send() skips the penalty entirely for src == dst.
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        network.restore("s1")
        assert run_txn(cluster, client, update_program(["0/x"])).committed

    def test_schedule_degrade_then_restore(self):
        cluster = make_cluster(1)
        cluster.start()
        schedule = (
            FaultSchedule()
            .degrade(1.0, "s2", delay=0.05, jitter=0.01)
            .restore(2.0, "s2")
        )
        schedule.arm(cluster)
        cluster.world.run_for(1.5)
        assert cluster.world.network.is_degraded("s2")
        cluster.world.run_for(1.0)
        assert not cluster.world.network.is_degraded("s2")
        assert [kind for _, kind, _ in schedule.fired] == ["degrade", "restore"]

    def test_slow_follower_is_masked_by_quorum(self):
        """A degraded follower does not slow commits: the leader reaches
        quorum with the healthy majority."""
        cluster = make_cluster(1)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        first = run_txn(cluster, client, update_program(["0/x"]))
        healthy_latency = first.finished - first.started
        cluster.world.network.degrade("s3", 0.5)  # follower, not session/leader
        masked = run_txn(cluster, client, update_program(["0/x"]))
        assert masked.committed
        assert masked.finished - masked.started < healthy_latency + 0.1


class TestRegionLossHeal:
    @staticmethod
    def _wan_cluster():
        deployment = wan2_deployment(1)
        cluster = build_cluster(
            deployment,
            PartitionMap.by_index(1),
            SdurConfig(),
            paxos_config=PaxosConfig(),
        )
        cluster.seed({"0/x": 0})
        return deployment, cluster

    def test_region_loss_cuts_only_boundary_links(self):
        deployment, cluster = self._wan_cluster()
        lost = deployment.preferred_region["p0"]
        survivor_regions = [
            r for r in deployment.topology.regions() if r != lost
        ]
        cluster.start()
        schedule = FaultSchedule().region_loss(1.0, cluster, lost)
        schedule.arm(cluster)
        cluster.world.run_for(1.5)

        network = cluster.world.network
        topology = deployment.topology
        inside = [
            n for n in topology.nodes_in_region(lost) if n in cluster.servers
        ]
        outside = [n for n in topology.node_ids if topology.region_of(n) != lost]
        for a in inside:
            for b in outside:
                assert network.link_is_cut(a, b)
        # Links wholly inside the lost region, and wholly outside, survive.
        for region in survivor_regions:
            nodes = topology.nodes_in_region(region)
            for a in nodes:
                for b in nodes:
                    assert not network.link_is_cut(a, b)

    def test_loss_then_heal_recovers_commits(self):
        """Cut the majority away from a region, heal, and verify the
        cluster serves updates again (isolated replicas catch up)."""
        deployment, cluster = self._wan_cluster()
        lost = deployment.preferred_region["p0"]
        other = next(r for r in deployment.topology.regions() if r != lost)
        client = cluster.add_client(region=other)
        cluster.start()
        schedule = (
            FaultSchedule()
            .region_loss(1.0, cluster, lost)
            .region_heal(3.0, cluster, lost)
        )
        schedule.arm(cluster)
        cluster.world.run_for(5.0)
        result = run_txn(cluster, client, update_program(["0/x"]), timeout=20.0)
        assert result.committed

    def test_heal_restores_every_cut_link(self):
        deployment, cluster = self._wan_cluster()
        lost = deployment.preferred_region["p0"]
        cluster.start()
        schedule = (
            FaultSchedule()
            .region_loss(1.0, cluster, lost)
            .region_heal(2.0, cluster, lost)
        )
        schedule.arm(cluster)
        cluster.world.run_for(3.0)
        network = cluster.world.network
        for a, b in FaultSchedule._region_boundary(cluster, lost):
            assert not network.link_is_cut(a, b)
