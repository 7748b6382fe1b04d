"""Rare state transitions are recorded next to the transactions.

Reconfiguration milestones, failovers and injected faults used to go to
a second, reader-less event log.  They now reach the one recorder with
``tid=None``: ``build_traces`` skips them, so every per-transaction
span tree is what it would be had they never been recorded.
"""

from repro.core.config import SdurConfig
from repro.harness.faults import FaultSchedule
from repro.obs.recorder import SpanRecorder, drain_recorders, set_default_tracing
from repro.obs.spans import build_traces
from tests.conftest import make_cluster, run_txn, update_program
from tests.integration.test_failures import build_ha_cluster


class _TransactionsOnly(SpanRecorder):
    """Drops what is not tied to a transaction: records exactly what the
    recorder saw before the state transitions were sent to it."""

    def event(self, kind, node, tid=None, **attrs):
        if tid is not None:
            super().event(kind, node, tid, **attrs)


def traced_split_then_merge():
    """Split ``p0`` and fold the child back in, under a small workload."""
    cluster = make_cluster(2, config=SdurConfig(tracing=True), seed=11)
    cluster.seed({f"{p}/k{i}": 0 for p in (0, 1) for i in range(6)})
    clients = [cluster.add_client() for _ in range(2)]
    cluster.start()
    cluster.world.run_for(0.5)
    now = cluster.world.now
    FaultSchedule().split(now + 0.2, "p0").arm(cluster)
    cluster.world.kernel.schedule(3.0, cluster.merge_partitions, "p2", "p0")
    rng = cluster.world.rng.stream("rehomed-workload")
    done = []

    def issue(client, remaining):
        keys = sorted({f"0/k{rng.randrange(6)}", f"{rng.randrange(2)}/k{rng.randrange(6)}"})

        def on_done(result):
            done.append(result)
            if remaining > 1:
                issue(client, remaining - 1)

        client.execute(update_program(keys), on_done)

    for client in clients:
        issue(client, 60)
    cluster.world.run_for(20.0)
    assert len(done) == 120 and cluster.routing.epoch == 2
    return cluster


def _kinds_at(events, node):
    return [e.kind for e in events if e.node == node and e.tid is None]


def _subsequence(wanted, kinds):
    it = iter(kinds)
    return all(kind in it for kind in wanted)


def _projection(traces):
    """Span trees and raw events without the recorder's sequence numbers
    (the only thing extra recorded events may shift)."""
    return {
        tid: (
            [
                (s.name, s.node, s.start, s.end, s.attrs, s.parent.name if s.parent else None)
                for s in trace.spans
            ],
            [(e.time, e.kind, e.node, e.attrs) for e in trace.events],
        )
        for tid, trace in traces.items()
    }


class TestReconfigurationMilestones:
    def test_split_and_merge_are_recorded_in_order_untied_to_a_transaction(self):
        events = traced_split_then_merge().obs.events
        # The split as its source leader (s1) and the new partition's (s7) saw it.
        assert _subsequence(
            ["reconfig.begin_split", "reconfig.capture_migration", "reconfig.finish_split"],
            _kinds_at(events, "s1"),
        )
        assert "reconfig.install_migration" in _kinds_at(events, "s7")
        order = [
            next(e.seq for e in events if e.kind == kind)
            for kind in (
                "reconfig.begin_split",
                "reconfig.capture_migration",
                "reconfig.install_migration",
                "reconfig.finish_split",
                "reconfig.begin_merge",
                "reconfig.install_merge",
                "reconfig.finish_merge",
            )
        ]
        assert order == sorted(order)
        untied = [e for e in events if e.kind.startswith("reconfig.")]
        assert all(e.tid is None for e in untied)
        # A client that routed under the old epoch was told to restart.
        assert any(e.kind == "client.epoch_restart" for e in events)

    def test_transaction_traces_are_those_of_a_run_without_them(self, monkeypatch):
        with_milestones = build_traces(traced_split_then_merge().obs.events)
        monkeypatch.setattr("repro.harness.cluster.SpanRecorder", _TransactionsOnly)
        cluster = traced_split_then_merge()
        assert all(e.tid is not None for e in cluster.obs.events)
        assert _projection(with_milestones) == _projection(build_traces(cluster.obs.events))


class TestFailover:
    def test_leader_change_and_the_injected_crash_are_recorded(self):
        set_default_tracing(True)  # what ``--trace`` does
        try:
            cluster, client = build_ha_cluster()
        finally:
            set_default_tracing(False)
            drain_recorders()
        assert cluster.obs.enabled
        cluster.crash_server("s1")  # p0's leader
        assert run_txn(cluster, client, update_program(["0/x"]), timeout=30.0).committed
        events = cluster.obs.events
        crash = next(e for e in events if e.kind == "net.crash")
        assert (crash.node, crash.tid) == ("s1", None)
        changes = [
            e for e in events
            if e.kind == "leader.change" and e.seq > crash.seq and e.attrs["group"] == "p0"
        ]
        assert changes and all(e.tid is None and e.attrs["leader"] != "s1" for e in changes)
        assert any(e.kind == "paxos.phase1.complete" and e.seq > crash.seq for e in events)
