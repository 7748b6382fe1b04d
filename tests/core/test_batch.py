"""Unit tests of the batched delivery pipeline (docs/PROTOCOL.md §18)."""

import pytest

from repro.core.batch import BatchingConfig, DeliveryBatcher
from repro.core.config import SdurConfig
from repro.core.messages import Busy, CommitRequest, OutcomeBatch, OutcomeNotice
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.errors import ConfigurationError
from repro.overload.admission import AdmissionConfig
from tests.conftest import make_cluster, run_txn, update_program
from tests.properties.test_batch_differential import BATCH_OF_ONE, build_server


class TestBatchingConfig:
    def test_defaults_are_valid(self):
        config = BatchingConfig()
        assert config.max_batch >= 1
        assert config.max_wait >= 0
        assert config.ledger_group >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_batch": -3},
            {"max_wait": -0.001},
            {"ledger_group": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchingConfig(**kwargs)


class ManualTimer:
    """Injected set_timer capturing callbacks for hand-driven firing."""

    def __init__(self):
        self.armed: list[tuple[float, object]] = []

    def __call__(self, delay, callback):
        self.armed.append((delay, callback))
        return self

    def fire_all(self):
        armed, self.armed = self.armed, []
        for _, callback in armed:
            callback()


class TestDeliveryBatcher:
    def make(self, **kwargs):
        flushed = []
        timer = ManualTimer()
        batcher = DeliveryBatcher(
            BatchingConfig(**kwargs),
            flush=lambda values, cost: flushed.append((values, cost)),
            set_timer=timer,
        )
        return batcher, flushed, timer

    def test_size_trigger_flushes_exactly_at_max_batch(self):
        batcher, flushed, _ = self.make(max_batch=3)
        batcher.add("a", 1.0)
        batcher.add("b", 2.0)
        assert flushed == [] and len(batcher) == 2
        batcher.add("c", 3.0)
        assert flushed == [(["a", "b", "c"], 6.0)]
        assert len(batcher) == 0
        assert batcher.flushed_by_size == 1
        assert batcher.flushed_by_timer == 0

    def test_time_trigger_flushes_partial_batch(self):
        batcher, flushed, timer = self.make(max_batch=100, max_wait=0.005)
        batcher.add("a", 0.0)
        batcher.add("b", 0.0)
        assert flushed == []
        assert len(timer.armed) == 1  # armed once, not per add
        assert timer.armed[0][0] == 0.005
        timer.fire_all()
        assert flushed == [(["a", "b"], 0.0)]
        assert batcher.flushed_by_timer == 1

    def test_timer_fire_on_empty_buffer_is_noop(self):
        batcher, flushed, timer = self.make(max_batch=2)
        batcher.add("a", 0.0)
        batcher.add("b", 0.0)  # size flush; the armed timer is now stale
        timer.fire_all()
        assert flushed == [(["a", "b"], 0.0)]
        assert batcher.flushed_by_timer == 0

    def test_timer_rearms_for_the_next_window(self):
        batcher, flushed, timer = self.make(max_batch=100)
        batcher.add("a", 0.0)
        timer.fire_all()
        batcher.add("b", 0.0)
        assert len(timer.armed) == 1  # a fresh window arms a fresh timer
        timer.fire_all()
        assert flushed == [(["a"], 0.0), (["b"], 0.0)]

    def test_flush_now_forces_partial_batch_out(self):
        batcher, flushed, _ = self.make(max_batch=100)
        batcher.flush_now()  # empty: no flush call
        assert flushed == []
        batcher.add("a", 0.0)
        batcher.flush_now()
        assert flushed == [(["a"], 0.0)]


def batching_cluster(batching: BatchingConfig, num_partitions=2):
    cluster = make_cluster(
        num_partitions=num_partitions,
        config=SdurConfig(batching=batching),
    )
    cluster.seed({f"{p}/k{i}": 0 for p in range(num_partitions) for i in range(5)})
    client = cluster.add_client()
    cluster.start()
    cluster.world.run_for(0.5)
    return cluster, client


class TestBatchedCluster:
    def test_local_commits_flow_through_batches(self):
        cluster, client = batching_cluster(BatchingConfig(max_wait=0.002))
        for _ in range(3):
            result = run_txn(cluster, client, update_program(["0/k0"]))
            assert result.outcome is Outcome.COMMIT
        cluster.world.run_for(0.5)
        server = cluster.servers["s1"].server
        assert server.sc == 3
        assert server.stats.batches_delivered >= 1
        assert server.stats.batch_size_max >= 1
        assert server.stats.completed_at_delivery > 0
        stats = cluster.server_stats()["s1"]
        for counter in ("batches_delivered", "batch_size_max", "completed_at_delivery"):
            assert counter in stats

    def test_global_transactions_terminate_under_batching(self):
        cluster, client = batching_cluster(
            BatchingConfig(max_wait=0.002, ledger_group=4)
        )
        result = run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        assert result.outcome is Outcome.COMMIT
        cluster.world.run_for(1.0)
        assert cluster.servers["s1"].server.sc == 1
        assert cluster.servers["s4"].server.sc == 1

    def test_conflicting_transactions_still_abort(self):
        cluster, client = batching_cluster(BatchingConfig(max_wait=0.002))
        client2 = cluster.add_client()
        done = []
        client.execute(update_program(["0/k0", "0/k1"]), done.append)
        client2.execute(update_program(["0/k0", "0/k1"]), done.append)
        cluster.world.run_for(2.0)
        assert sorted(r.outcome.value for r in done) == ["abort", "commit"]

    def test_checkpoint_quiescence_waits_for_buffered_deliveries(self):
        # A batcher holding undelivered values must block quiescence:
        # a checkpoint taken now would claim coverage through
        # _last_instance without their state.
        cluster, client = batching_cluster(BatchingConfig(max_wait=5.0))
        server = cluster.servers["s1"].server
        assert server._checkpoint_blocker() is None
        server.batcher.add("sentinel", 0.0)
        assert "batcher" in server._checkpoint_blocker()
        server.batcher._buffer.clear()
        assert server._checkpoint_blocker() is None


# The cases below drive one raw server on the differential suite's script
# runtime: sends are recorded and timers never fire, so buffered
# deliveries stay buffered until flushed by hand.


def local_proj(seq: int, client: str = "c") -> TxnProjection:
    return TxnProjection(
        tid=TxnId(client, seq),
        partition="p0",
        readset=ReadsetDigest.exact([f"0/r{seq}"]),
        writeset={f"0/w{seq}": seq},
        snapshot=0,
        partitions=("p0",),
        coordinator="s0",
        client=client,
    )


class TestReplyGrouping:
    def test_two_outcomes_for_one_client_flush_as_one_batch(self):
        server = build_server(BatchingConfig(max_batch=2, max_wait=5.0), 0)
        server.on_adeliver(0, local_proj(0))
        assert server.runtime.sent == []  # buffered: nothing ingested yet
        server.on_adeliver(1, local_proj(1))
        assert server.runtime.sent == [
            (
                "c",
                OutcomeBatch(
                    partition="p0",
                    outcomes=((TxnId("c", 0), "commit"), (TxnId("c", 1), "commit")),
                ),
            )
        ]

    @pytest.mark.parametrize(
        "batching",
        [BATCH_OF_ONE, BatchingConfig(max_batch=8, max_wait=5.0)],
        ids=["default", "timer-flushed"],
    )
    def test_a_batch_of_one_value_replies_with_a_notice(self, batching):
        """Nothing to group: the reply leaves as the sequential path's
        ``OutcomeNotice``, whatever bound let the lone value through."""
        server = build_server(batching, 0)
        server.on_adeliver(0, local_proj(0))
        server.flush_batches()
        assert server.runtime.sent == [
            ("c", OutcomeNotice(tid=TxnId("c", 0), outcome="commit", partition="p0"))
        ]
        assert server.stats.batches_delivered == 1


class TestBufferedDeliveriesCountAsBacklog:
    def test_queue_gate_sees_deliveries_parked_in_the_batcher(self):
        """The admission gauge and the checkpoint agree on what is
        outstanding: delivered and not yet completed (PROTOCOL.md §16.1)."""
        server = build_server(
            BatchingConfig(max_batch=8, max_wait=5.0),
            0,
            admission=AdmissionConfig(max_queue_depth=4),
        )
        for seq in range(5):
            server.on_adeliver(seq, local_proj(seq))
        assert len(server.batcher) == 5 and server.sc == 0
        assert "batcher" in server._checkpoint_blocker()
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
