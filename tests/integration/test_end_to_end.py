"""End-to-end transaction behaviour on full clusters."""

import pytest

from repro.checker.serializability import check_serializability
from repro.core.client import Read
from repro.core.config import SdurConfig
from repro.core.transaction import Outcome
from tests.conftest import make_cluster, make_wan1_cluster, run_txn, update_program


@pytest.fixture
def cluster():
    cluster = make_cluster(num_partitions=2)
    cluster.seed({"0/x": 0, "0/y": 0, "1/x": 0, "1/y": 0})
    return cluster


@pytest.fixture
def client(cluster):
    client = cluster.add_client()
    cluster.start()
    cluster.world.run_for(0.5)
    return client


class TestCommitPaths:
    def test_local_commit_applies_at_every_replica(self, cluster, client):
        run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)
        for name in ("s1", "s2", "s3"):
            assert cluster.servers[name].server.store.read_latest("0/x")[1] == 1

    def test_global_commit_applies_at_both_partitions(self, cluster, client):
        run_txn(cluster, client, update_program(["0/x", "1/y"]))
        cluster.world.run_for(1.0)
        for name in ("s1", "s2", "s3"):
            assert cluster.servers[name].server.store.read_latest("0/x")[1] == 1
        for name in ("s4", "s5", "s6"):
            assert cluster.servers[name].server.store.read_latest("1/y")[1] == 1

    def test_sequential_increments_accumulate(self, cluster, client):
        for _ in range(10):
            assert run_txn(cluster, client, update_program(["0/x"])).committed
        assert cluster.servers["s1"].server.store.read_latest("0/x")[1] == 10

    def test_three_partition_global(self):
        cluster = make_cluster(num_partitions=3)
        cluster.seed({f"{p}/k": 0 for p in range(3)})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        result = run_txn(cluster, client, update_program(["0/k", "1/k", "2/k"]))
        assert result.committed
        assert result.partitions == ("p0", "p1", "p2")
        cluster.world.run_for(1.0)
        for partition, server_name in [("p0", "s1"), ("p1", "s4"), ("p2", "s7")]:
            store = cluster.servers[server_name].server.store
            index = partition[1:]
            assert store.read_latest(f"{index}/k")[1] == 1


class TestConflicts:
    def test_write_write_on_same_key_is_serialized_not_aborted(self, cluster, client):
        """Two read-modify-writes on one key conflict (rs ∩ ws): the
        second to be delivered aborts; a retry then succeeds."""
        client2 = cluster.add_client()
        done = []
        client.execute(update_program(["0/x", "0/y"]), done.append)
        client2.execute(update_program(["0/x", "0/y"]), done.append)
        cluster.world.run_for(2.0)
        outcomes = sorted(r.outcome.value for r in done)
        assert outcomes == ["abort", "commit"]
        # Value reflects exactly one increment.
        assert cluster.servers["s1"].server.store.read_latest("0/x")[1] == 1

    def test_disjoint_concurrent_transactions_both_commit(self, cluster, client):
        client2 = cluster.add_client()
        done = []
        client.execute(update_program(["0/x"]), done.append)
        client2.execute(update_program(["0/y"]), done.append)
        cluster.world.run_for(2.0)
        assert all(r.committed for r in done)

    def test_global_vs_local_conflict_resolves_serializably(self, cluster):
        client1 = cluster.add_client()
        client2 = cluster.add_client()
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)
        done = []
        client1.execute(update_program(["0/x", "1/x"]), done.append)
        client2.execute(update_program(["0/x", "0/y"]), done.append)
        cluster.world.run_for(3.0)
        for result in done:
            recorder.record_result(result)
        assert len(done) == 2
        report = check_serializability(recorder)
        report.raise_if_failed()

    def test_stale_snapshot_aborts(self):
        """A transaction whose snapshot predates the retained window must
        abort rather than certify incorrectly."""
        config = SdurConfig(history_window=2)
        cluster = make_cluster(num_partitions=1, config=config)
        cluster.seed({"0/x": 0, "0/y": 0, "0/z": 0})
        slow = cluster.add_client()
        fast = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        done = []

        def slow_program(txn):
            value = yield Read("0/z")  # pins snapshot 0
            # Park while other commits age the window far past us.
            for _ in range(5):
                other = []
                fast.execute(update_program(["0/x", "0/y"]), other.append)
                while not other:
                    cluster.world.kernel.step()
            txn.write("0/z", (value or 0) + 1)

        slow.execute(slow_program, done.append)
        cluster.world.run_for(3.0)
        assert done and done[0].outcome is Outcome.ABORT


class TestWan1EndToEnd:
    def test_geo_cluster_commits_with_codec_roundtrip(self):
        """The full WAN path with every message serialized."""
        cluster = make_wan1_cluster(codec_roundtrip=True)
        cluster.seed({"0/a": 5, "1/b": 7})
        client = cluster.add_client(region="eu")
        cluster.start()
        cluster.world.run_for(1.0)
        result = run_txn(cluster, client, update_program(["0/a", "1/b"]))
        assert result.committed
        cluster.world.run_for(1.0)
        assert cluster.servers["s4"].server.store.read_latest("1/b")[1] == 8

    def test_remote_read_served_by_colocated_replica(self):
        cluster = make_wan1_cluster()
        cluster.seed({"1/b": 7})
        client = cluster.add_client(region="eu")
        cluster.start()
        cluster.world.run_for(1.0)
        seen = {}

        def program(txn):
            seen["b"] = yield Read("1/b")

        result = run_txn(cluster, client, program, read_only=True)
        assert seen["b"] == 7
        # s6 is p1's EU replica: a round trip to it is ~2 delta (10 ms),
        # far below a cross-region trip (~90 ms).
        assert result.latency < 0.05
