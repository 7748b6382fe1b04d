"""Arrival-time termination (the paper's implicit reading), kept as a
test oracle.

Algorithm 2 lines 13–14 and 21–22 let a vote act the moment it arrives.
Until PR 14 this ran in production behind ``SdurConfig.termination_mode
= OPTIMISTIC``; docs/PROTOCOL.md §14.1 documents why it is unsound
(replica divergence under reordering, deadlock under cross-partition
deferral cycles).  It stays runnable here for three jobs:

* ``tests/properties/test_vote_ledger_regression.py`` guards that the
  two pinned falsifying examples still fail under it;
* ``tests/integration/test_latency_model.py`` and ``tests/obs`` assert
  Figure 1's own arithmetic (4δ + 2Δ) against it;
* ``tests/integration/test_optimistic_oracle_cluster.py`` prices the
  ledger against it (the former experiment A6).

It presents :class:`~repro.termination.VoteLedger`'s surface — it *is*
one, with the five fixed points where a vote is handled overridden —
and is installed by assignment: :func:`install` on a built cluster
before ``start()``, or ``server.ledger = OptimisticTermination.of(server)``.
"""

from repro.core.messages import Vote
from repro.core.transaction import Outcome
from repro.termination import VoteLedger


class OptimisticTermination(VoteLedger):
    """Votes take effect on arrival; nothing is ordered through the log."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Votes that arrived before their transaction was delivered —
        #: buffered at *arrival*, so contents differ across replicas.
        self._vote_buffer = {}

    @classmethod
    def of(cls, server):
        """An oracle bound to ``server`` the way its own ledger is, except
        that an arriving vote pumps the whole delivery path (arrival is
        outside it, so stalled deliveries may be waiting on the vote)."""
        return cls(
            server.runtime,
            server.partition,
            server.fabric.abcast,
            routing=server.routing,
            pending=server.pending,
            completed=server._completed_outcome,
            doom=server._doom_and_release,
            drain=server._pump,
            stats=server.stats,
            vote_timeout=server.config.vote_timeout,
            limit=server._completed_limit,
        )

    def admit(self, entry):
        self._arm_vote_timeout(entry)

    def _take_effect(self, entry, partition, vote, via):
        """The ledger's, with the path the vote took (``own``,
        ``buffer`` or ``arrival``) in its ``vote.effect`` event."""
        if partition in entry.votes:
            return
        entry.votes[partition] = vote
        if self._obs.enabled:
            self._obs.event(
                "vote.effect", self.runtime.node_id, entry.tid,
                partition=partition, vote=vote, via=via,
            )

    def cast(self, proj, outcome):
        """The own verdict counts at once and the Vote leaves at once; a
        commit verdict is also where arrival-buffered votes merge in."""
        entry = self.pending.get(proj.tid)
        if outcome is Outcome.COMMIT and entry is not None:
            self._take_effect(entry, self.partition, outcome.value, via="own")
            for partition, vote in self._vote_buffer.pop(proj.tid, {}).items():
                self._take_effect(entry, partition, vote, via="buffer")
        self._emit_vote(proj.tid, outcome.value, tuple(proj.partitions))

    def on_vote(self, src, msg):
        if self._obs.enabled:
            self._obs.event(
                "vote.arrive",
                self.runtime.node_id,
                msg.tid,
                partition=msg.partition,
                src=src,
                vote=msg.vote,
            )
        entry = self.pending.get(msg.tid)
        if entry is not None:
            self._take_effect(entry, msg.partition, msg.vote, via="arrival")
            self._drain()
        elif self._completed(msg.tid) is None:
            self._vote_buffer.setdefault(msg.tid, {}).setdefault(msg.partition, msg.vote)

    def deliver(self, value):
        """Replay of a ledger-written log: records mean nothing here."""

    def on_abort_request(self, msg):
        tid = msg.tid
        if (
            self._completed(tid) is not None
            or tid in self.pending
            or tid in self.aborted_early
        ):
            return  # the transaction arrived first: the request loses the race
        self.aborted_early[tid] = None
        # Vote abort on behalf of this partition so the requester completes.
        vote = Vote(tid=tid, partition=self.partition, vote=Outcome.ABORT.value)
        own = set(self.routing.directory.servers_of(self.partition))
        for partition in msg.involved:
            for server in self.routing.directory.servers_of(partition):
                if server not in own:
                    self.runtime.send(server, vote)


def install(cluster):
    """Swap every server's termination component for the oracle."""
    for handle in cluster.servers.values():
        handle.server.ledger = OptimisticTermination.of(handle.server)
