"""Failure injection: crash-stop servers, region loss, recovery protocol."""

from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig
from repro.core.messages import CommitRequest
from repro.core.partitioning import PartitionMap
from repro.core.transaction import Outcome
from repro.geo.deployments import wan1_deployment, wan2_deployment
from repro.harness.cluster import build_cluster
from tests.conftest import run_txn, update_program


def build_ha_cluster(deployment_fn=wan2_deployment, vote_timeout=1.0, seed=5):
    """A cluster with elections enabled and robust clients."""
    deployment = deployment_fn(2)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(vote_timeout=vote_timeout, notify_all_replicas=True),
        seed=seed,
        paxos_for=lambda _node, _partition: PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.3
        ),
    )
    client = cluster.add_client(region="eu", commit_timeout=2.0, read_timeout=1.0)
    cluster.start()
    cluster.world.run_for(2.0)
    return cluster, client


class TestCrashTolerance:
    def test_follower_crash_commits_continue(self):
        cluster, client = build_ha_cluster()
        assert run_txn(cluster, client, update_program(["0/x"])).committed
        cluster.crash_server("s2")
        assert run_txn(cluster, client, update_program(["0/x"]), timeout=15.0).committed

    def test_leader_crash_fails_over(self):
        cluster, client = build_ha_cluster()
        assert run_txn(cluster, client, update_program(["0/x"])).committed
        cluster.crash_server("s1")  # p0's initial leader AND session server
        result = run_txn(cluster, client, update_program(["0/x"]), timeout=30.0)
        assert result.committed
        survivors = [h for n, h in cluster.servers.items() if h.partition == "p0" and n != "s1"]
        assert all(h.replica.leader != "s1" for h in survivors)

    def test_majority_loss_stalls_partition_minority_unaffected(self):
        cluster, client = build_ha_cluster()
        cluster.crash_server("s4")
        cluster.crash_server("s5")  # p1 has lost its majority
        # p0 still commits:
        assert run_txn(cluster, client, update_program(["0/x"]), timeout=20.0).committed
        # p1 cannot:
        done = []
        client.execute(update_program(["1/y"]), done.append)
        cluster.world.run_for(5.0)
        assert done == []

    def test_wan2_survives_region_loss(self):
        """WAN 2 keeps a majority of every partition outside any single
        region (the paper's catastrophic-failure argument)."""
        cluster, client = build_ha_cluster(wan2_deployment)
        for node in cluster.deployment.topology.nodes_in_region("us-west"):
            if node in cluster.servers:
                cluster.crash_server(node)
        result = run_txn(cluster, client, update_program(["0/x", "1/y"]), timeout=30.0)
        assert result.committed

    def test_wan1_region_loss_stalls_the_homed_partition(self):
        """WAN 1 keeps p0's majority in the EU: losing the EU stalls p0."""
        cluster, client2 = build_ha_cluster(wan1_deployment)
        client = cluster.add_client(region="us-east", commit_timeout=2.0, read_timeout=1.0)
        cluster.world.run_for(0.5)
        for node in list(cluster.servers):
            if cluster.deployment.topology.region_of(node) == "eu":
                cluster.crash_server(node)
        done = []
        client.execute(update_program(["0/x"]), done.append)
        cluster.world.run_for(8.0)
        assert done == []  # p0 lost its majority (s1, s2)
        # p1 (majority in US-EAST) still commits.
        assert run_txn(cluster, client, update_program(["1/y"]), timeout=20.0).committed


class TestRecoveryProtocol:
    def test_orphaned_global_aborted_by_abort_request(self):
        """Coordinator 'crashes' between the two partition broadcasts: one
        partition delivers the transaction, the other never does.  The
        delivering partition's vote timeout must fire the abort-request
        broadcast (§IV-F) and the transaction must abort, unblocking the
        pipeline."""
        cluster, client = build_ha_cluster(vote_timeout=0.5)
        victim = cluster.servers["s1"]

        # Intercept the commit request at s1 and forward only p0's slice.
        original_dispatch_target = victim.server

        def intercept(src, msg):
            if isinstance(msg, CommitRequest) and len(msg.projections) > 1:
                original_dispatch_target.fabric.abcast("p0", msg.projections["p0"])
                return
            if victim.replica.handle(src, msg):
                return
            original_dispatch_target.handle(src, msg)

        cluster.world.network.register("s1", intercept)

        client.config = type(client.config)(
            session_server="s1", commit_timeout=None, read_timeout=1.0
        )
        done = []
        client.execute(update_program(["0/x", "1/y"]), done.append)
        cluster.world.run_for(15.0)
        assert done, "orphaned transaction must terminate"
        assert done[0].outcome is Outcome.ABORT
        # The pipeline is unblocked: new transactions commit on p0.
        client.config = type(client.config)(
            session_server="s2", commit_timeout=2.0, read_timeout=1.0
        )
        assert run_txn(cluster, client, update_program(["0/x"]), timeout=20.0).committed

    def test_abort_request_loses_race_when_txn_was_delivered(self):
        """If the 'missing' partition did deliver the transaction, the
        abort request must be ignored and the transaction commits."""
        cluster, client = build_ha_cluster(vote_timeout=0.2)  # aggressive timeouts
        # A normal global transaction: vote timeouts may fire spuriously
        # under the aggressive setting, but the outcome must be commit.
        result = run_txn(cluster, client, update_program(["0/x", "1/y"]), timeout=20.0)
        assert result.committed

    def test_commit_routes_around_dead_session_server(self):
        cluster, client = build_ha_cluster()
        cluster.crash_server("s1")  # session server dies before the txn
        result = run_txn(cluster, client, update_program(["0/x"]), timeout=30.0)
        assert result.committed
        # Either the read timeout suspected s1 and the commit went around
        # it directly, or the commit retry escalated — both must leave the
        # client knowing s1 is unresponsive.
        assert client.stats.commit_resends >= 1 or "s1" in client._suspected
