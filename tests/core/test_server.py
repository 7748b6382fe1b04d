"""Unit-level tests of server behaviours (Algorithm 2) on small clusters."""

from repro.core.checkpoint import WindowRecord
from repro.core.config import DelayMode, SdurConfig, ServiceCosts
from repro.core.messages import Busy, CommitRequest, NoopTick, OutcomeNotice, ReadRequest
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.overload.admission import AdmissionConfig
from tests.conftest import make_cluster, run_txn, update_program
from tests.properties.test_batch_differential import build_server


def started_cluster(num_partitions=2, config=None, **kwargs):
    cluster = make_cluster(num_partitions=num_partitions, config=config, **kwargs)
    cluster.seed({f"{p}/k{i}": 0 for p in range(num_partitions) for i in range(5)})
    client = cluster.add_client()
    cluster.start()
    cluster.world.run_for(0.5)
    return cluster, client


class TestSnapshotCounter:
    def test_sc_advances_per_commit(self):
        cluster, client = started_cluster()
        for _ in range(3):
            run_txn(cluster, client, update_program(["0/k0"]))
        cluster.world.run_for(0.5)
        for handle in cluster.servers.values():
            if handle.partition == "p0":
                assert handle.server.sc == 3

    def test_global_commit_bumps_both_partitions(self):
        cluster, client = started_cluster()
        run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        cluster.world.run_for(1.0)
        assert cluster.servers["s1"].server.sc == 1
        assert cluster.servers["s4"].server.sc == 1

    def test_aborted_transaction_does_not_bump_sc(self):
        cluster, client = started_cluster()
        # Two conflicting concurrent transactions: the loser must not
        # advance the snapshot counter.
        done = []
        client2 = cluster.add_client()
        client.execute(update_program(["0/k0", "0/k1"]), done.append)
        client2.execute(update_program(["0/k0", "0/k1"]), done.append)
        cluster.world.run_for(2.0)
        outcomes = sorted(r.outcome.value for r in done)
        assert outcomes == ["abort", "commit"]
        assert cluster.servers["s1"].server.sc == 1


class TestCounters:
    def test_dc_counts_every_delivery_commit_or_abort(self):
        cluster, client = started_cluster()
        done = []
        client2 = cluster.add_client()
        client.execute(update_program(["0/k0", "0/k1"]), done.append)
        client2.execute(update_program(["0/k0", "0/k1"]), done.append)
        cluster.world.run_for(2.0)
        assert cluster.servers["s1"].server.dc == 2

    def test_noop_ticks_advance_dc(self):
        cluster, _ = started_cluster()
        server = cluster.servers["s1"].server
        before = server.dc
        server.fabric.abcast("p0", NoopTick())
        cluster.world.run_for(0.5)
        assert server.dc == before + 1


class TestStats:
    def test_commit_and_abort_buckets(self):
        cluster, client = started_cluster()
        run_txn(cluster, client, update_program(["0/k0"]))
        run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        cluster.world.run_for(1.0)
        stats = cluster.servers["s1"].server.stats
        assert stats.committed_local == 1
        assert stats.committed_global == 1
        assert stats.aborted == 0

    def test_certification_abort_counted(self):
        cluster, client = started_cluster()
        done = []
        client2 = cluster.add_client()
        client.execute(update_program(["0/k0", "0/k1"]), done.append)
        client2.execute(update_program(["0/k0", "0/k1"]), done.append)
        cluster.world.run_for(2.0)
        stats = cluster.servers["s1"].server.stats
        assert stats.aborted_certification + stats.aborted_reorder == 1


# The cases below drive one raw server on the differential suite's script
# runtime: execute runs inline, sends are recorded, timers never fire.


def local_proj(seq: int, client: str = "c", snapshot: int = 0) -> TxnProjection:
    return TxnProjection(
        tid=TxnId(client, seq),
        partition="p0",
        readset=ReadsetDigest.exact([f"0/r{seq}"]),
        writeset={f"0/w{seq}": seq},
        snapshot=snapshot,
        partitions=("p0",),
        coordinator="s0",
        client=client,
    )


class TestCompletionAtDelivery:
    """A certified local that meets an empty pending list commits at
    delivery (docs/PROTOCOL.md §18.2)."""

    def test_locals_in_a_cluster_complete_at_delivery(self):
        cluster, client = started_cluster()
        for _ in range(3):
            assert run_txn(cluster, client, update_program(["0/k0"])).outcome is Outcome.COMMIT
        cluster.world.run_for(0.5)
        server = cluster.servers["s1"].server
        assert server.sc == 3 and not server.pending
        assert server.stats.completed_at_delivery == 3
        assert cluster.server_stats()["s1"]["completed_at_delivery"] == 3

    def test_a_delivered_local_replies_with_one_notice_at_once(self):
        server = build_server(0)
        server.on_adeliver(0, local_proj(0))
        assert server.runtime.sent == [
            ("c", OutcomeNotice(tid=TxnId("c", 0), outcome="commit", partition="p0"))
        ]
        assert server.sc == 1 and server.stats.completed_at_delivery == 1


class TestBacklog:
    def test_queue_gate_sees_stalled_deliveries(self):
        """The admission gauge and the checkpoint agree on what is
        outstanding: delivered and not yet completed (PROTOCOL.md §16.1)."""
        server = build_server(0, admission=AdmissionConfig(max_queue_depth=4))
        for seq in range(5):
            # Snapshot 1 is ahead of SC 0: every one waits at the gate.
            server.on_adeliver(seq, local_proj(seq, snapshot=1))
        assert len(server._stalled) == 5 and server.sc == 0
        assert "stalled" in server._checkpoint_blocker()
        request = local_proj(9, client="late")
        server.handle("late", CommitRequest(tid=request.tid, projections={"p0": request}))
        assert server.stats.queue_depth == 5
        assert server.runtime.sent == [
            (
                "late",
                Busy(tid=request.tid, server="s0", reason="queue", retry_after=0.05),
            )
        ]
        assert server.stats.shed_total == 1


class TestReadPath:
    def test_read_routed_through_session_server(self):
        """A server asked for keys of another partition forwards them to
        that partition's nearest replica, under the same op id, which
        answers the reader directly — the path that serves keys a newer
        map moved."""
        cluster = make_cluster(num_partitions=2)
        cluster.seed({"1/k": 42})
        cluster.start()
        cluster.world.run_for(0.5)
        inbox = []
        cluster.world.topology.add("probe", "us-east")
        cluster.world.network.register("probe", lambda src, msg: inbox.append(msg))
        request = ReadRequest(
            tid=TxnId("probe", 1), op_id=7, keys=("1/k",), snapshot=None, reply_to="probe"
        )
        cluster.world.network.send("probe", "s1", request)
        cluster.world.run_for(0.5)
        assert cluster.servers["s1"].server.stats.reads_routed == 1
        [response] = inbox
        assert (response.op_id, response.partition, response.key, response.value) == (
            7, "p1", "1/k", 42,
        )

    def test_lagging_replica_holds_read_until_caught_up(self):
        """A read at a snapshot the replica has not applied yet must wait,
        not answer stale (Algorithm 2 retrieves 'most recent <= st')."""
        cluster, client = started_cluster()
        server = cluster.servers["s2"].server  # p0 follower
        run_txn(cluster, client, update_program(["0/k0"]))  # sc -> 1
        cluster.world.run_for(0.5)
        # Ask s2 for a FUTURE snapshot (2): must park, then answer after
        # the next commit.
        inbox = []
        cluster.world.topology.add("probe", "us-east")
        cluster.world.network.register("probe", lambda src, msg: inbox.append(msg))
        request = ReadRequest(
            tid=TxnId("probe", 1), op_id=0, keys=("0/k0",), snapshot=2, reply_to="probe"
        )
        cluster.world.network.send("probe", "s2", request)
        cluster.world.run_for(0.5)
        assert inbox == []  # parked
        run_txn(cluster, client, update_program(["0/k1"]))  # sc -> 2
        cluster.world.run_for(0.5)
        assert len(inbox) == 1
        assert inbox[0].snapshot == 2


class TestDelaying:
    def test_fixed_delay_postpones_local_broadcast(self):
        config = SdurConfig(delay_mode=DelayMode.FIXED, delay_fixed=0.2)
        cluster, client = started_cluster(config=config)
        result = run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        assert result.committed
        # Latency must include the 200 ms local-broadcast delay.
        assert result.latency >= 0.2

    def test_local_transactions_never_delayed(self):
        config = SdurConfig(delay_mode=DelayMode.FIXED, delay_fixed=0.2)
        cluster, client = started_cluster(config=config)
        result = run_txn(cluster, client, update_program(["0/k0"]))
        assert result.latency < 0.1

    def test_auto_delay_uses_latency_estimate(self):
        config = SdurConfig(delay_mode=DelayMode.AUTO)
        cluster, client = started_cluster(config=config)
        result = run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        assert result.committed  # LAN estimate is ~1ms; just verify the path


class TestServiceCosts:
    def test_apply_cost_slows_commits(self):
        fast_cluster, fast_client = started_cluster()
        slow_config = SdurConfig(costs=ServiceCosts(certify=0.01, apply=0.01))
        slow_cluster, slow_client = started_cluster(config=slow_config)
        fast = run_txn(fast_cluster, fast_client, update_program(["0/k0"]))
        slow = run_txn(slow_cluster, slow_client, update_program(["0/k0"]))
        assert slow.latency > fast.latency + 0.015

    def test_costs_preserve_outcome_correctness(self):
        config = SdurConfig(costs=ServiceCosts(read=0.001, certify=0.002, apply=0.003))
        cluster, client = started_cluster(config=config)
        result = run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        assert result.outcome is Outcome.COMMIT


class TestDuplicateDelivery:
    def test_duplicate_commit_request_is_idempotent(self):
        cluster, client = started_cluster()
        result = run_txn(cluster, client, update_program(["0/k0"]))
        # Replay the same projection through the broadcast: servers must
        # ignore the duplicate (client retry path).
        server = cluster.servers["s1"].server
        record = WindowRecord.of(list(server.window)[-1])
        assert result.committed
        sc_before = server.sc
        # Rebuild an identical projection and redeliver it.
        from repro.core.transaction import TxnProjection

        duplicate = TxnProjection(
            tid=record.tid,
            partition="p0",
            readset=record.readset,
            writeset={"0/k0": 999},
            snapshot=0,
            partitions=("p0",),
            coordinator="s1",
            client="",
        )
        server.fabric.abcast("p0", duplicate)
        cluster.world.run_for(0.5)
        assert server.sc == sc_before  # not applied twice
        assert server.store.read_latest("0/k0")[1] != 999
