"""A finished transaction lets go of its timers (and what they pin).

Each read arms a retry timer and each commit another; the closures hold
the client's whole per-transaction state.  Before the fix nothing
cancelled them, so every finished transaction left three armed timers —
and everything they reference — behind for a full timeout.  The same pin
sat on the server (the vote-timeout closure held the ``PendingTxn``) and
in the simulator (a fired timer was never forgotten by its runtime; a
cancelled event kept its callback until the heap slot was popped).
"""

import gc

from repro.core.config import SdurConfig
from repro.core.messages import Busy
from repro.core.pending import PendingTxn
from repro.sim.kernel import Kernel
from tests.conftest import make_cluster, run_txn, update_program


def _after_sequential_updates(count, keys=("0/a", "0/b"), config=None):
    """Run ``count`` two-key updates of ``keys`` back to back with 5 s
    client timeouts and gossip off; return the world once traffic has
    settled (well inside the 5 s a leaked timer would stay armed)."""
    cluster = make_cluster(2, config=config or SdurConfig(gossip_interval=None))
    client = cluster.add_client(commit_timeout=5.0, read_timeout=5.0)
    cluster.start()
    cluster.world.run_for(0.5)
    started = cluster.world.now
    for _ in range(count):
        assert run_txn(cluster, client, update_program(list(keys))).committed
    cluster.world.run_for(0.1)
    assert cluster.world.now - started < 4.0, "run outlived the timeouts it is about"
    return cluster.world


def armed_events(kernel) -> int:
    """Scheduled events not yet cancelled: the timers still armed."""
    return sum(1 for event in kernel._heap if not event.cancelled)


class TestSimTimerPlateau:
    def test_armed_events_do_not_grow_with_finished_transactions(self):
        few = armed_events(_after_sequential_updates(20).kernel)
        many = armed_events(_after_sequential_updates(200).kernel)
        # Parent: +3 per transaction (two read retries, one commit retry).
        assert many == few

    def test_a_finished_global_disarms_its_vote_timeout(self):
        """Every replica arms a vote timeout per pending entry; the
        entry's completion cancels it.  Parent: each global left one
        armed per replica of both partitions for the full 5 s."""
        config = SdurConfig(vote_timeout=5.0, gossip_interval=None)
        armed = []
        for count in (20, 200):
            world = _after_sequential_updates(count, ("0/x", "1/y"), config)
            # Past one ledger retry interval, so no replica's outbox
            # retry tick is still armed: that one is per replica, not
            # per transaction, and its phase differs between the runs.
            world.run_for(0.3)
            armed.append(armed_events(world.kernel))
        assert armed[1] == armed[0]

    def test_a_runtime_lists_only_its_live_timers(self):
        world = _after_sequential_updates(200)
        listed = sum(len(runtime._timers) for runtime in world._runtimes.values())
        # Every listed timer is an armed kernel event; fired and
        # cancelled ones are forgotten (parent: fired ones never were).
        assert listed <= armed_events(world.kernel)
        assert listed < 40


class TestBusyBackoffIsDisarmed:
    """The admission path: a ``Busy`` backoff sits in the commit's one
    timer slot, so the transaction's end cancels it.
    Parent: the handle was dropped and the closure kept the whole
    ``_ActiveTxn`` for ``retry_after``."""

    def client(self):
        cluster = make_cluster(2, config=SdurConfig(gossip_interval=None))
        # No timeouts: a Busy backoff is the only timer this client arms.
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        return cluster, client

    def test_commit_shed_then_outcome(self):
        """A shed reaches the client (from a server an earlier resend
        went to) just before the outcome of the admitted copy does."""
        cluster, client = self.client()
        results = []
        tid = client.execute(update_program(["0/a"]), results.append)
        state = client._active[tid]
        while state.commit_request is None:
            assert cluster.world.kernel.step()
        client.handle("s1", Busy(tid=tid, server="s1", reason="queue", retry_after=1.5))
        assert len(client.runtime._timers) == 1
        cluster.world.run_for(0.5)
        assert results[0].committed and not client._active
        assert not client.runtime._timers


class TestCancelledEventPinsNothing:
    def test_cancel_drops_callback_and_arguments(self):
        kernel = Kernel()
        payload = object()
        event = kernel.schedule(5.0, lambda *args: None, payload)
        event.cancel()
        assert event.callback is None and event.args == ()
        assert kernel.step() is False  # the cancelled slot is skipped, not called


class TestPendingEntryIsCollectable:
    def test_completed_global_leaves_no_pending_entry_behind(self):
        """``vote_timeout`` stays armed for 5 s after a global completes;
        its closure must hold the transaction id, not the entry."""
        cluster = make_cluster(2, config=SdurConfig(vote_timeout=5.0, gossip_interval=None))
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        started = cluster.world.now
        result = run_txn(cluster, client, update_program(["0/x", "1/y"]))
        assert result.committed and result.is_global
        cluster.world.run_for(0.5)  # every replica of both partitions completed it
        assert cluster.world.now - started < 5.0  # the timeouts are still armed
        assert all(not handle.server.pending for handle in cluster.servers.values())
        gc.collect()
        assert [obj for obj in gc.get_objects() if isinstance(obj, PendingTxn)] == []
