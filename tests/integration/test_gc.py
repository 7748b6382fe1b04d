"""Server-driven multiversion garbage collection."""

from repro.core.client import Read
from repro.core.config import SdurConfig
from repro.core.transaction import Outcome
from tests.conftest import inflight_read, make_cluster, run_txn, update_program


class TestStoreGc:
    def test_old_versions_are_dropped(self):
        config = SdurConfig(store_gc_interval=0.2, store_gc_keep=3)
        cluster = make_cluster(num_partitions=1, config=config)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.3)
        for _ in range(10):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)
        store = cluster.servers["s1"].server.store
        assert store.gc_horizon >= 7
        assert len(store.dump()["0/x"]) <= 4

    def test_recent_snapshots_still_readable(self):
        config = SdurConfig(store_gc_interval=0.2, store_gc_keep=3)
        cluster = make_cluster(num_partitions=1, config=config)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.3)
        for _ in range(10):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)
        seen = {}

        def program(txn):
            seen["x"] = yield Read("0/x")

        result = run_txn(cluster, client, program, read_only=True)
        assert result.committed
        assert seen["x"] == 10

    def test_ancient_snapshot_read_answered_with_error(self):
        """A read pinned to a GC'd snapshot must get an explicit error,
        not reconstructed data."""
        config = SdurConfig(store_gc_interval=0.1, store_gc_keep=2)
        cluster = make_cluster(num_partitions=1, config=config)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.3)
        for _ in range(8):
            run_txn(cluster, client, update_program(["0/x"]))
        cluster.world.run_for(1.0)  # GC passes snapshot 1
        from repro.core.messages import ReadRequest
        from repro.core.transaction import TxnId

        inbox = []
        cluster.world.topology.add("probe", "us-east")
        cluster.world.network.register("probe", lambda src, msg: inbox.append(msg))
        cluster.world.network.send(
            "probe",
            "s1",
            ReadRequest(tid=TxnId("probe", 1), op_id=0, keys=("0/x",), snapshot=1, reply_to="probe"),
        )
        cluster.world.run_for(0.5)
        assert len(inbox) == 1
        assert inbox[0].error is not None
        assert "horizon" in inbox[0].error

    def test_client_aborts_transaction_on_read_error(self):
        """The client turns a snapshot-too-old read error into an abort
        with the server's reason attached."""
        cluster = make_cluster(num_partitions=1)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.3)
        done = []

        def program(txn):
            value = yield Read("0/x")
            txn.write("0/x", (value or 0) + 1)

        client.execute(program, done.append)
        # Intercept: respond to the in-flight read with an error.
        from repro.core.messages import ReadResponse

        state, op = inflight_read(client)
        client.handle(
            "s1",
            ReadResponse(
                tid=state.tid,
                op_id=op.op_id,
                key="0/x",
                value=None,
                snapshot=1,
                item_version=0,
                partition="p0",
                error="snapshot 1 below gc horizon 5",
            ),
        )
        assert done
        assert done[0].outcome is Outcome.ABORT
        assert "horizon" in done[0].abort_reason

    def test_gc_disabled_by_default(self):
        cluster = make_cluster(num_partitions=1)
        cluster.seed({"0/x": 0})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.3)
        for _ in range(5):
            run_txn(cluster, client, update_program(["0/x"]))
        store = cluster.servers["s1"].server.store
        assert store.gc_horizon == 0
        assert len(store.dump()["0/x"]) == 6  # seed + 5 commits
