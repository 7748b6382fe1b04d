"""The vote ledger: per-server sequencing state for vote records.

One :class:`VoteLedger` lives inside each :class:`SdurServer` running in
ledger termination mode.  It owns the bookkeeping around getting votes
*into* the partition's log exactly once and remembering what came *out*:

* **Proposal dedup** — several replicas decide the same own-verdict at
  the same log position, and a remote partition sends its ``Vote`` to
  every replica; without care each vote would be proposed once per
  replica.  Only the replica that believes itself partition leader
  proposes immediately; everyone keeps the record in an outbox and
  re-proposes it every ``retry_interval`` *of its own age* until the
  record is seen delivered, so a crashed or changing leader cannot lose
  a vote.  Delivery-side dedup (:meth:`on_delivered`) makes duplicate
  proposals harmless.

* **Early-vote buffering** — a remote vote can be sequenced and
  delivered before the transaction's own projection (the remote
  partition delivered it first).  Such records are buffered *at
  delivery* (hence identically at every replica) and merged into the
  pending entry when the projection arrives.  This replaces the seed's
  arrival-time ``_vote_buffer``, whose contents differed across
  replicas.

All collections are bounded so a long-running server cannot leak memory
on votes for transactions it never delivers.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.core.transaction import TxnId
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.base import Runtime
from repro.termination.messages import VoteRecord, VoteRecordGroup


class VoteLedger:
    """Orders votes through one partition's own atomic broadcast."""

    def __init__(
        self,
        runtime: Runtime,
        partition: str,
        abcast: Callable[[str, object], None],
        retry_interval: float | None = 0.25,
        limit: int = 200_000,
        group_size: int = 1,
    ) -> None:
        self.runtime = runtime
        self._obs = getattr(runtime, "obs", NULL_RECORDER)
        self.partition = partition
        self._abcast = abcast
        self.retry_interval = retry_interval
        self.limit = limit
        #: Records grouped into one :class:`VoteRecordGroup` proposal
        #: (docs/PROTOCOL.md §18).  1 = propose each record as its own
        #: log value, exactly the pre-batching behavior.
        self.group_size = group_size
        #: Records awaiting the next grouped proposal (leader only; the
        #: retry path keeps re-proposing from the outbox individually,
        #: so a never-flushed group costs latency, not liveness).
        self._group: list[VoteRecord] = []
        #: Injected by the server: is this replica its partition's leader?
        self.is_leader: Callable[[], bool] = lambda: True
        #: (tid, voting partition) -> None for every record already
        #: delivered, insertion-ordered so the memory stays bounded.
        self._applied: OrderedDict[tuple[TxnId, str], None] = OrderedDict()
        #: Records awaiting delivery (proposal retry + self-dedup), each
        #: with the time it was last proposed or queued; oldest first.
        self._outbox: dict[tuple[TxnId, str], tuple[VoteRecord, float]] = {}
        #: Delivered records whose transaction has not been delivered yet:
        #: tid -> {voting partition -> vote}, insertion-ordered for bounding.
        self._early: OrderedDict[TxnId, dict[str, str]] = OrderedDict()
        self._retry_armed = False

    # ------------------------------------------------------------------
    # Getting votes into the log
    # ------------------------------------------------------------------
    def ledger(
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
            if self.group_size > 1:
                self._group.append(record)
                if len(self._group) >= self.group_size:
                    self.flush_group()
            else:
                self._abcast(self.partition, record)
        self._arm_retry()

    def flush_group(self) -> None:
        """Propose the buffered records as one grouped log value.

        Called by the server at every delivery-batch boundary (and when
        the group fills).  Records already seen delivered — a retry or
        another replica's proposal won the race — are dropped here; a
        stale survivor is still harmless thanks to delivery-side dedup.
        """
        if not self._group:
            return
        records = tuple(
            record
            for record in self._group
            if (record.tid, record.partition) not in self._applied
        )
        self._group.clear()
        if not records:
            return
        if len(records) == 1:
            self._abcast(self.partition, records[0])
        else:
            self._abcast(self.partition, VoteRecordGroup(records=records))

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
        # deliveries are dropped in on_delivered().  Only records that
        # have waited a full interval: one timer serves the whole outbox,
        # and younger records are most likely still in flight.
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
    # What came out of the log
    # ------------------------------------------------------------------
    def on_delivered(self, record: VoteRecord) -> bool:
        """Record a delivery; False when it is a duplicate to ignore."""
        key = (record.tid, record.partition)
        if key in self._applied:
            return False
        self._applied[key] = None
        while len(self._applied) > self.limit:
            self._applied.popitem(last=False)
        self._outbox.pop(key, None)
        return True

    def buffer_early(self, record: VoteRecord) -> None:
        """Hold a delivered record whose transaction is not delivered yet."""
        votes = self._early.get(record.tid)
        if votes is None:
            votes = {}
            self._early[record.tid] = votes
            while len(self._early) > self.limit:
                self._early.popitem(last=False)
        votes.setdefault(record.partition, record.vote)

    def take_early(self, tid: TxnId) -> dict[str, str]:
        """Votes ledgered before ``tid``'s projection was delivered."""
        return self._early.pop(tid, {})
