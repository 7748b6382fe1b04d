"""The termination component: when a vote takes effect, and nothing else.

One :class:`VoteLedger` lives inside each :class:`SdurServer`
(``server.ledger``) and owns the whole vote path of docs/PROTOCOL.md
§14, whose table lists the fixed points at which the server calls it —
:meth:`admit`, :meth:`cast`, :meth:`on_vote`, :meth:`deliver`,
:meth:`on_abort_request`, :meth:`on_partition_learned`.  The server
never looks at a vote itself.

Everything the ledger needs arrives as a constructor argument — runtime,
partition, abcast, the routing view, the pending list, a
completed-outcome lookup, and callbacks to doom an entry and to drain
the pending list — so it is testable without a server
(``tests/termination/``), and the arrival-time oracle
(``tests/oracles/optimistic_termination.py``) replaces it by assignment.

Two pieces of bookkeeping sit under the fixed points:

* **Proposal dedup** — several replicas decide the same own-verdict at
  the same log position, and a remote partition sends its ``Vote`` to
  every replica; without care each vote would be proposed once per
  replica.  Only the replica that believes itself partition leader
  proposes immediately; everyone keeps the record in an outbox and
  re-proposes it every ``retry_interval`` *of its own age* until the
  record is seen delivered, so a crashed or changing leader cannot lose
  a vote.  Delivery-side dedup makes duplicate proposals harmless.

* **Early-vote buffering** — a remote vote can be sequenced and
  delivered before the transaction's own projection (the remote
  partition delivered it first).  Such records are buffered *at
  delivery* (hence identically at every replica) and merged into the
  pending entry when the projection is admitted.

All collections are bounded so a long-running server cannot leak memory
on votes for transactions it never delivers.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.core.messages import AbortRequest, Vote
from repro.core.pending import PendingList, PendingTxn
from repro.core.transaction import Outcome, TxnId, TxnProjection
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.base import Runtime
from repro.termination.messages import VoteRecord

if TYPE_CHECKING:
    from repro.reconfig.epochs import VersionedRouting


class VoteLedger:
    """Orders votes through one partition's own atomic broadcast."""

    def __init__(
        self,
        runtime: Runtime,
        partition: str,
        abcast: Callable[[str, object], None],
        routing: VersionedRouting,
        pending: PendingList,
        completed: Callable[[TxnId], str | None],
        doom: Callable[[PendingTxn], None],
        drain: Callable[[], None],
        stats: Any,
        is_leader: Callable[[], bool] = lambda: True,
        retry_interval: float | None = 0.25,
        vote_timeout: float | None = None,
        limit: int = 200_000,
    ) -> None:
        self.runtime = runtime
        self._obs = getattr(runtime, "obs", NULL_RECORDER)
        self.partition = partition
        self._abcast = abcast
        #: Who to send a ``Vote`` to; whether a partition is known yet.
        self.routing = routing
        self.pending = pending
        #: ``tid -> recorded outcome`` for completed transactions.
        self._completed = completed
        #: Doom a deferred entry and release what deferred on it.
        self._doom = doom
        self._drain = drain
        #: Receives ``votes_ordered`` and ``cycles_resolved``.
        self.stats = stats
        #: Is this replica its partition's leader?  Asked at each proposal.
        self.is_leader = is_leader
        self.retry_interval = retry_interval
        #: Abort-request timeout for pending entries missing votes;
        #: ``None`` disables the recovery protocol.
        self.vote_timeout = vote_timeout
        self.limit = limit
        #: (tid, voting partition) -> None for every record already
        #: delivered, insertion-ordered so the memory stays bounded.
        self._applied: OrderedDict[tuple[TxnId, str], None] = OrderedDict()
        #: Records awaiting delivery (proposal retry + self-dedup), each
        #: with the time it was last proposed or queued; oldest first.
        self._outbox: dict[tuple[TxnId, str], tuple[VoteRecord, float]] = {}
        #: Delivered records whose transaction has not been delivered yet:
        #: tid -> {voting partition -> vote}, insertion-ordered for bounding.
        self._early: OrderedDict[TxnId, dict[str, str]] = OrderedDict()
        #: Transactions killed by an abort-request before delivery
        #: (insertion-ordered so the backlog can be bounded).
        self.aborted_early: OrderedDict[TxnId, None] = OrderedDict()
        #: Votes addressed to partitions this node has not learned yet.
        self._unrouted: list[tuple[str, Vote]] = []
        self._retry_armed = False

    # ------------------------------------------------------------------
    # Fixed points on the delivery path
    # ------------------------------------------------------------------
    def admit(self, entry: PendingTxn) -> None:
        """``entry`` joined the pending list: merge the remote votes
        ledgered before its projection's position, start its timeout."""
        for partition, vote in self._early.pop(entry.tid, {}).items():
            self._take_effect(entry, partition, vote)
        self._arm_vote_timeout(entry)

    def discard(self, tid: TxnId) -> None:
        """An aborted-early transaction's projection showed up: it is
        dead (§IV-F), and so are the votes buffered for it."""
        del self.aborted_early[tid]
        self._early.pop(tid, None)

    def cast(self, proj: TxnProjection, outcome: Outcome) -> None:
        """Cast this partition's verdict for ``proj``.

        The verdict is first ordered through our own log; the
        inter-partition :class:`Vote` goes out at its delivery position
        (:meth:`deliver`), so a replayed log re-derives both the verdict
        and its emission.
        """
        self.propose(proj.tid, self.partition, outcome.value, tuple(proj.partitions))

    def on_vote(self, src: str, msg: Vote) -> None:
        """A remote vote arrived.  Never touch protocol state at arrival
        time: re-sequence the vote through our own log; it takes effect
        at its delivery position, identically at every replica."""
        if self._obs.enabled:
            self._obs.event(
                "vote.arrive",
                self.runtime.node_id,
                msg.tid,
                partition=msg.partition,
                src=src,
                vote=msg.vote,
            )
        if self._completed(msg.tid) is None:
            self.propose(msg.tid, msg.partition, msg.vote)

    def deliver(self, record: VoteRecord) -> None:
        """A vote record reached its position in our own log.

        Records a Paxos ``Batch`` carries arrive one call each, in batch
        order.  Records do not bump ``dc`` (they are not transactions and
        must not advance reorder thresholds) and are never snapshot-gated.
        """
        key = (record.tid, record.partition)
        if key in self._applied:
            return  # duplicate proposal: an outbox retry raced the leader's
        self._applied[key] = None
        while len(self._applied) > self.limit:
            self._applied.popitem(last=False)
        self._outbox.pop(key, None)
        self.stats.votes_ordered += 1
        if self._obs.enabled:
            self._obs.event(
                "ledger.deliver",
                self.runtime.node_id,
                record.tid,
                partition=record.partition,
                owner=self.partition,
            )
        if record.partition == self.partition and record.involved:
            # Our own verdict is now durable in log order: only here does
            # the inter-partition Vote go out (Figure 1's message ⑥, one
            # local broadcast later than the paper draws it).
            self._emit_vote(record.tid, record.vote, record.involved)
        entry = self.pending.get(record.tid)
        if entry is not None:
            self._take_effect(entry, record.partition, record.vote)
            self._drain()
        elif self._completed(record.tid) is None and record.tid not in self.aborted_early:
            self._early.setdefault(record.tid, {}).setdefault(record.partition, record.vote)
            while len(self._early) > self.limit:
                self._early.popitem(last=False)

    def _take_effect(
        self, entry: PendingTxn, partition: str, vote: str, via: str = "ledger"
    ) -> None:
        if partition in entry.votes:
            return
        entry.votes[partition] = vote
        if self._obs.enabled:
            self._obs.event(
                "vote.effect",
                self.runtime.node_id,
                entry.tid,
                partition=partition,
                vote=vote,
                via=via,
            )

    # ------------------------------------------------------------------
    # Getting votes into the log
    # ------------------------------------------------------------------
    def propose(
        self, tid: TxnId, partition: str, vote: str, involved: tuple[str, ...] = ()
    ) -> None:
        """Propose ``partition``'s verdict for ``tid`` into our own log.

        Idempotent: a record already delivered or already in flight from
        this replica is not proposed again.
        """
        key = (tid, partition)
        if key in self._applied or key in self._outbox:
            return
        if self._obs.enabled:
            self._obs.event(
                "ledger.propose",
                self.runtime.node_id,
                tid,
                partition=partition,
                owner=self.partition,
                vote=vote,
            )
        record = VoteRecord(tid=tid, partition=partition, vote=vote, involved=involved)
        self._outbox[key] = (record, self.runtime.now())
        if self.is_leader():
            self._abcast(self.partition, record)
        self._arm_retry()

    def _arm_retry(self) -> None:
        if self._retry_armed or self.retry_interval is None or not self._outbox:
            return
        self._retry_armed = True
        _, oldest = next(iter(self._outbox.values()))
        due_in = oldest + self.retry_interval - self.runtime.now()
        self.runtime.set_timer(max(0.0, due_in), self._retry_tick)

    def _retry_tick(self) -> None:
        self._retry_armed = False
        # Re-propose from every replica: the immediate proposal may have
        # raced a leader change or died with the old leader.  Duplicate
        # deliveries are dropped in deliver().  Only records that have
        # waited a full interval: one timer serves the whole outbox, and
        # younger records are most likely still in flight.
        now = self.runtime.now()
        due = []
        for key, (record, since) in self._outbox.items():
            if since + self.retry_interval > now:
                break
            due.append((key, record))
        for key, record in due:
            del self._outbox[key]
            self._outbox[key] = (record, now)  # to the back: oldest stays first
        for _, record in due:
            self._abcast(self.partition, record)
        self._arm_retry()

    @property
    def in_flight(self) -> int:
        """Records proposed (or queued for retry) but not yet delivered."""
        return len(self._outbox)

    # ------------------------------------------------------------------
    # Getting votes to the other partitions
    # ------------------------------------------------------------------
    def _emit_vote(self, tid: TxnId, vote: str, involved: tuple[str, ...]) -> None:
        """Send this partition's vote to every other involved partition."""
        if self._obs.enabled:
            self._obs.event("vote.emit", self.runtime.node_id, tid, vote=vote)
        msg = Vote(tid=tid, partition=self.partition, vote=vote)
        for partition in involved:
            if partition != self.partition:
                self._route(partition, msg)

    def _route(self, partition: str, msg: Vote) -> None:
        if not self.routing.knows_partition(partition):
            # A partition created by a split whose directory change has
            # not reached this node yet; sent when it does.
            self._unrouted.append((partition, msg))
            return
        for server in self.routing.directory.servers_of(partition):
            self.runtime.send(server, msg)

    def on_partition_learned(self) -> None:
        """A directory change landed: send the votes that waited for it."""
        waiting, self._unrouted = self._unrouted, []
        for partition, msg in waiting:
            self._route(partition, msg)

    # ------------------------------------------------------------------
    # Recovery: abort requests (§IV-F) and the cycle rule (§14.3)
    # ------------------------------------------------------------------
    def _arm_vote_timeout(self, entry: PendingTxn) -> None:
        if self.vote_timeout is None:
            return
        # The closure holds the id alone: it outlives most entries by a
        # full timeout, and must not keep their projections alive.
        tid = entry.tid

        def fire() -> None:
            current = self.pending.get(tid)
            if current is None or current.has_all_votes():
                return
            for partition in current.missing_votes():
                if partition == self.partition:
                    continue
                if not self.routing.knows_partition(partition):
                    continue  # directory change in flight; next firing retries
                self._abcast(
                    partition,
                    AbortRequest(
                        tid=current.tid,
                        partition=partition,
                        requester=self.partition,
                        involved=current.proj.partitions,
                        client=current.proj.client,
                    ),
                )
            if self._obs.enabled:
                self._obs.event(
                    "ledger.abort_request", self.runtime.node_id, None, txn=str(current.tid)
                )
            self.runtime.set_timer(self.vote_timeout, fire)

        self.runtime.set_timer(self.vote_timeout, fire)

    def on_abort_request(self, msg: AbortRequest) -> None:
        """An abort request reached its position in our log.

        Every branch below reads only log-derived state, so all replicas
        of this partition act identically at this log position:

        * **completed** — re-emit the recorded verdict, or a requester
          whose original Vote was lost (e.g. across a checkpoint
          restore) wedges.
        * **pending, decided** — the verdict is already in (or on its way
          through) the log; re-emit it if self-delivery happened, else
          the in-flight VoteRecord will emit it.
        * **pending, deferred** — the deterministic cycle rule: follow
          the chain of smallest dependencies from the requested entry and
          doom the first one whose id precedes every dependency's.  In
          any persistent cross-partition deferral cycle the globally
          smallest transaction defers only on larger ids, so exactly the
          cycle's minimum aborts — at every replica, with no timing
          input.  The chain walk matters when that minimum is a *local*
          transaction: locals never name a missing partition, so no
          abort request ever names them directly, and without the walk a
          cycle global → local → global wedges forever.  Requesters
          re-fire on their vote timeout, so one missed round costs
          latency, never liveness.
        * **undelivered** — abort early (the request won the race), with
          the abort vote ordered through our log.  A repeat re-proposes:
          a no-op thanks to proposal dedup, but it keeps the abort vote
          flowing if the first record is still in flight.
        """
        tid = msg.tid
        involved = tuple(msg.involved)
        outcome = self._completed(tid)
        if outcome is not None:
            self._emit_vote(tid, outcome, involved)
            return
        entry = self.pending.get(tid)
        if entry is None:
            self.aborted_early[tid] = None
            while len(self.aborted_early) > self.limit:
                self.aborted_early.popitem(last=False)
            self.propose(tid, self.partition, Outcome.ABORT.value, involved)
            return
        if not entry.undecided:
            own = entry.votes.get(self.partition)
            if own is not None:
                self._emit_vote(tid, own, involved)
            return
        victim = entry
        while True:
            low = victim.min_dep()
            if low is None:
                return
            if victim.tid < low:
                break
            # The wait chain's minimum may hide behind deferred entries
            # with smaller ids; follow them down (ids strictly decrease,
            # so the walk terminates).
            dep = self.pending.get(low)
            if dep is None or not dep.undecided:
                return  # dep is resolving normally; no cycle here
            victim = dep
        self.stats.cycles_resolved += 1
        victim.cycle_victim = True
        if self._obs.enabled:
            self._obs.event(
                "ledger.cycle_break", self.runtime.node_id, None, txn=str(victim.tid)
            )
        self._doom(victim)
        self._drain()
