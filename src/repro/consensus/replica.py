"""The MultiPaxos replica: proposer + acceptor + learner in one node.

One replica runs at every server of a partition's group.  The leader
(chosen by the :class:`~repro.consensus.leader.LeaderElector`) runs
Phase 1 once per leadership epoch over all open instances, then streams
values through Phase 2.  Acceptors answer the coordinator with ``Accepted``
(Figure 1's ③④ flow, which gives the coordinator a decision after two
message delays — 4δ local commits in WAN 1); the coordinator then relays
a ``Chosen`` so followers learn one hop later, which is what produces the
paper's 3δ+3Δ WAN 2 global-commit latency (the co-located replica of the
remote partition learns via the relay, then forwards its vote).  Neither
the vote nor the relay carries the value back to replicas that already
hold it: both name it by ``(ballot, instance)``, and a follower the
``Accept`` never reached answers the relay with a one-instance
``LearnRequest`` at once.  Setting
``PaxosConfig.accepted_broadcast`` switches to acceptor-broadcast
learning (two delays at every replica) as an ablation; a learner can
hear a broadcast vote before the ``Accept``, so those keep the value.

**Turn group commit.**  A leader past Phase 1 does not open an instance
per proposal: it buffers proposals and closes the buffer once the
runtime's current loop turn is done (:meth:`Runtime.at_turn_end`) —
one value goes out as a bare ``Accept``, two or more as one
:class:`~repro.consensus.messages.Batch` in one instance, which
followers, the WAL and recovery treat as any other value and delivery
unpacks item by item (one ``on_deliver`` per value).  It adds no
latency: on the asyncio runtime the buffer closes at the flush that
would have written the ``Accept`` anyway, on the simulator once every
event due at the same instant has run, and the batch grows with
however many proposals one turn brought.

Values are delivered to the application strictly in instance order.
Gap instances left by a failed leader are filled with
:class:`~repro.consensus.messages.PaxosNoop`, which is consumed internally
and never delivered.

Durability: with a :class:`~repro.storage.wal.WriteAheadLog` configured,
chosen values are logged on delivery and can be replayed on restart,
mirroring the Berkeley-DB-backed recovery of the paper's prototype.

**What a replica forgets** (PROTOCOL.md §4).  Each ``Accepted`` reports
the acceptor's ``next_to_deliver``; the leader stamps every ``Accept``
with the group floor — the least of its own cursor and every other
member's last report, 0 for a member it has not heard from since it
began Phase 1 — and every replica, the leader included (it accepts its
own ``Accept``), drops its log entries below that floor.  A silent
member pins the floor, so the group stops forgetting until it reports.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.consensus.leader import LeaderElector
from repro.consensus.log import PaxosLog
from repro.consensus.messages import (
    Accept,
    Accepted,
    Ballot,
    Batch,
    Chosen,
    ClientPropose,
    CommitIndex,
    Heartbeat,
    LearnRequest,
    Nack,
    PaxosNoop,
    Prepare,
    Promise,
)
from repro.errors import CodecError, ConfigurationError, StorageError
from repro.net.codec import decode_packed, encode_packed
from repro.runtime.base import Runtime
from repro.storage.wal import WriteAheadLog


#: Resend Prepare if Phase 1 has not completed after this long.
PHASE1_RETRY = 0.5
#: Resend Accept for instances still un-chosen after this long (recovers
#: from lost messages).
ACCEPT_RETRY = 1.0
#: Re-forward buffered proposals when no leader is known.
PROPOSE_RETRY = 0.5
#: Follower catch-up: with a persistent delivery gap, ask the leader to
#: re-send Chosen after this long.
CATCHUP_INTERVAL = 0.5
#: Leader-side commit-index advert period (liveness for the *tail*
#: instance whose Accept and Chosen were both lost — followers cannot
#: detect a gap they have no evidence of).
COMMIT_INDEX_INTERVAL = 0.5


@dataclass
class PaxosConfig:
    """Tuning knobs for one Paxos group."""

    #: Pin the leader (no heartbeats, no elections); ``None`` = elect.
    static_leader: str | None = None
    heartbeat_interval: float = 0.05
    suspect_timeout: float = 0.25
    #: Optional durable log of delivered values.
    wal: WriteAheadLog | None = None
    #: When True, acceptors broadcast Phase-2b to the whole group so every
    #: replica learns in two message delays.  Default (False) matches the
    #: paper's deployment: acceptors answer the coordinator, which relays a
    #: Chosen — followers learn one hop later (Figure 1's ③④ then commit).
    accepted_broadcast: bool = False


class PaxosReplica:
    """One member of one partition's MultiPaxos group."""

    def __init__(
        self,
        runtime: Runtime,
        group_id: str,
        members: list[str],
        config: PaxosConfig | None = None,
        on_deliver: Callable[[int, Any], None] | None = None,
    ) -> None:
        if runtime.node_id not in members:
            raise ConfigurationError(f"{runtime.node_id} not in group {group_id!r}")
        self.runtime = runtime
        self.group_id = group_id
        self.members = list(members)
        self.config = config or PaxosConfig()
        self.on_deliver = on_deliver or (lambda instance, value: None)
        self.index = self.members.index(runtime.node_id)
        self.quorum = len(self.members) // 2 + 1
        self.log = PaxosLog()
        # Acceptor state.
        self.promised: Ballot = (0, -1)
        # Proposer state.
        self._my_ballot: Ballot | None = None
        self._phase1_complete = False
        self._promises: dict[str, Promise] = {}
        self._next_instance = 0
        self._pending: deque[Any] = deque()
        #: Values this leader proposed, by instance, until chosen — the
        #: retry path must resend the original value, never a noop.
        self._proposed: dict[int, Any] = {}
        self._highest_round_seen = 0
        self._retry_armed = False
        self._accept_retry_armed = False
        self._catchup_armed = False
        #: Proposals for the instance this leader has not yet opened.
        self._batch_buffer: list[Any] = []
        self._batch_armed = False
        #: Each member's ``next_to_deliver`` as its last ``Accepted``
        #: reported it; emptied when this node begins Phase 1.
        self._delivered_at: dict[str, int] = {}

        self.elector = LeaderElector(
            runtime,
            group_id,
            members,
            static_leader=self.config.static_leader,
            heartbeat_interval=self.config.heartbeat_interval,
            suspect_timeout=self.config.suspect_timeout,
            on_change=self._on_leader_change,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover from the WAL (if any) and begin participating."""
        if self.config.wal is not None:
            self._recover_from_wal()
        self.elector.start()
        self.runtime.set_timer(COMMIT_INDEX_INTERVAL, self._commit_index_tick)

    def _commit_index_tick(self) -> None:
        if self.is_leader and self.log.next_to_deliver > 0:
            advert = CommitIndex(
                group=self.group_id, next_to_deliver=self.log.next_to_deliver
            )
            for member in self.members:
                if member != self.runtime.node_id:
                    self.runtime.send(member, advert)
        self.runtime.set_timer(COMMIT_INDEX_INTERVAL, self._commit_index_tick)

    def _recover_from_wal(self) -> None:
        assert self.config.wal is not None
        first_instance: int | None = None
        for lsn, record in enumerate(self.config.wal):
            instance = int.from_bytes(record[:8], "big")
            if first_instance is None:
                first_instance = instance
            try:
                value = decode_packed(record[8:])
            except CodecError as exc:
                # The CRC held, so these are the bytes that were written:
                # nothing below can repair them, and skipping the record
                # would leave a hole in the log.
                raise StorageError(
                    f"WAL record {lsn} (instance {instance}) of group "
                    f"{self.group_id} does not decode: {exc}"
                ) from exc
            self.log.mark_chosen(instance, value)
        if first_instance is not None and first_instance > self.log.next_to_deliver:
            # The log was compacted below a checkpoint: everything before
            # the first retained record is covered by the checkpoint.
            self.log.advance_to(first_instance)
        for instance, value in self.log.pop_deliverable():
            self._deliver(instance, value, log_to_wal=False)

    def compact_wal(self, before_instance: int) -> int:
        """Drop WAL records for instances below ``before_instance``.

        Called after the application has durably checkpointed its state
        through that instance.  Returns the number of records dropped.
        """
        if self.config.wal is None:
            return 0
        kept: list[bytes] = []
        dropped = 0
        for record in self.config.wal:
            instance = int.from_bytes(record[:8], "big")
            if instance < before_instance:
                dropped += 1
            else:
                kept.append(record)
        if dropped:
            self.config.wal.rewrite(kept)
        return dropped

    @property
    def is_leader(self) -> bool:
        return self.elector.is_leader()

    @property
    def leader(self) -> str | None:
        return self.elector.leader

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------
    def propose(self, value: Any) -> None:
        """Get ``value`` atomically broadcast in this group.

        Callable from any member: non-leaders forward to the believed
        leader; with no known leader the value is buffered and re-tried.

        Delivery contract: at-most-once per call.  A forwarded proposal
        can be lost on a lossy link (the paper's model assumes
        quasi-reliable links); end-to-end reliability belongs to the
        caller — the SDUR client re-sends unacknowledged commit requests,
        and servers de-duplicate deliveries by transaction id.
        """
        self._route_proposal(value)

    def _route_proposal(self, value: Any) -> None:
        leader = self.elector.leader
        if leader == self.runtime.node_id:
            if self._phase1_complete:
                self._enqueue_batch(value)
            else:
                self._pending.append(value)
        elif leader is not None:
            self.runtime.send(leader, ClientPropose(group=self.group_id, value=value))
        else:
            self._pending.append(value)
            self._arm_propose_retry()

    def _enqueue_batch(self, value: Any) -> None:
        """Buffer a proposal for the leader's next instance, which closes
        at the end of this loop turn."""
        self._batch_buffer.append(value)
        if not self._batch_armed:
            self._batch_armed = True
            self.runtime.at_turn_end(self._flush_batch)

    def _flush_batch(self) -> None:
        """Close the batch: one value is a bare ``Accept``, more are one
        :class:`Batch` in one instance."""
        self._batch_armed = False
        if not self._batch_buffer:
            return
        if not (self.is_leader and self._phase1_complete):
            # Leadership moved before the batch closed: re-route each value.
            backlog, self._batch_buffer = self._batch_buffer, []
            for value in backlog:
                self._route_proposal(value)
            return
        values, self._batch_buffer = self._batch_buffer, []
        if len(values) == 1:
            self._send_accept(self._claim_instance(), values[0])
        else:
            self._send_accept(self._claim_instance(), Batch(values=tuple(values)))

    def _claim_instance(self) -> int:
        instance = self._next_instance
        self._next_instance += 1
        return instance

    def _arm_propose_retry(self) -> None:
        if self._retry_armed:
            return
        self._retry_armed = True

        def retry() -> None:
            self._retry_armed = False
            if self._pending and not self.is_leader:
                backlog, self._pending = self._pending, deque()
                for value in backlog:
                    self._route_proposal(value)

        self.runtime.set_timer(PROPOSE_RETRY, retry)

    # ------------------------------------------------------------------
    # Leadership / Phase 1
    # ------------------------------------------------------------------
    def _on_leader_change(self, leader: str | None) -> None:
        if leader == self.runtime.node_id:
            self._begin_phase1()
        else:
            self._phase1_complete = False
            self._my_ballot = None
            if self._pending and leader is not None:
                backlog, self._pending = self._pending, deque()
                for value in backlog:
                    self._route_proposal(value)

    def _begin_phase1(self) -> None:
        self._highest_round_seen += 1
        self._my_ballot = (self._highest_round_seen, self.index)
        self._phase1_complete = False
        self._promises = {}
        self._delivered_at = {}
        from_instance = self.log.next_to_deliver
        prepare = Prepare(group=self.group_id, ballot=self._my_ballot, from_instance=from_instance)
        if self.runtime.obs.enabled:
            self.runtime.obs.event(
                "paxos.phase1.begin", self.runtime.node_id, None,
                group=self.group_id, ballot=self._my_ballot,
            )
        for member in self.members:
            self.runtime.send(member, prepare)
        self._arm_phase1_retry(self._my_ballot)

    def _arm_phase1_retry(self, ballot: Ballot) -> None:
        def retry() -> None:
            if self._my_ballot == ballot and not self._phase1_complete and self.is_leader:
                prepare = Prepare(
                    group=self.group_id, ballot=ballot, from_instance=self.log.next_to_deliver
                )
                for member in self.members:
                    self.runtime.send(member, prepare)
                self._arm_phase1_retry(ballot)

        self.runtime.set_timer(PHASE1_RETRY, retry)

    def _complete_phase1(self) -> None:
        """Adopt discovered values, fill gaps, open the pipeline."""
        assert self._my_ballot is not None
        merged: dict[int, tuple[Ballot, Any]] = {}
        for promise in self._promises.values():
            for instance, (ballot, value) in promise.accepted.items():
                current = merged.get(instance)
                if current is None or ballot > current[0]:
                    merged[instance] = (ballot, value)
        floor = self.log.next_to_deliver
        top = max(merged, default=floor - 1)
        self._next_instance = max(self._next_instance, top + 1, floor)
        self._phase1_complete = True
        # Re-propose discovered values, then plug remaining holes with noops.
        for instance in range(floor, self._next_instance):
            if self.log.is_chosen(instance):
                continue
            if instance in merged:
                self._send_accept(instance, merged[instance][1])
            else:
                self._send_accept(instance, PaxosNoop())
        backlog, self._pending = self._pending, deque()
        for value in backlog:
            self._send_accept(self._claim_instance(), value)
        if self.runtime.obs.enabled:
            self.runtime.obs.event(
                "paxos.phase1.complete", self.runtime.node_id, None,
                group=self.group_id, next_instance=self._next_instance,
            )

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _send_accept(self, instance: int, value: Any) -> None:
        assert self._my_ballot is not None
        self._proposed[instance] = value
        accept = Accept(
            group=self.group_id, ballot=self._my_ballot, instance=instance, value=value,
            floor=self._group_floor(),
        )
        for member in self.members:
            self.runtime.send(member, accept)
        self._arm_accept_retry()

    def _group_floor(self) -> int:
        """The least ``next_to_deliver`` in the group as far as this
        leader knows: its own, and each other member's last report."""
        floor = self.log.next_to_deliver
        for member in self.members:
            if member != self.runtime.node_id:
                floor = min(floor, self._delivered_at.get(member, 0))
        return floor

    def _arm_accept_retry(self) -> None:
        if self._accept_retry_armed:
            return
        self._accept_retry_armed = True

        def retry() -> None:
            self._accept_retry_armed = False
            if not (self.is_leader and self._phase1_complete):
                return
            stuck = [
                instance
                for instance in range(self.log.next_to_deliver, self._next_instance)
                if not self.log.is_chosen(instance)
            ]
            for instance in stuck:
                entry = self.log.state(instance)
                if instance in self._proposed:
                    value = self._proposed[instance]
                elif entry.has_accepted:
                    value = entry.accepted_value
                else:
                    value = PaxosNoop()
                self._send_accept(instance, value)
            if stuck:
                self._arm_accept_retry()

        self.runtime.set_timer(ACCEPT_RETRY, retry)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, src: str, msg: Any) -> bool:
        """Dispatch one message; returns False if it is not for this group."""
        group = getattr(msg, "group", None)
        if group != self.group_id:
            return False
        if isinstance(msg, ClientPropose):
            self._route_proposal(msg.value)
        elif isinstance(msg, Prepare):
            self._on_prepare(src, msg)
        elif isinstance(msg, Promise):
            self._on_promise(src, msg)
        elif isinstance(msg, Accept):
            self._on_accept(src, msg)
        elif isinstance(msg, Accepted):
            self._on_accepted(src, msg)
        elif isinstance(msg, Chosen):
            self._on_chosen(src, msg)
        elif isinstance(msg, CommitIndex):
            self._on_commit_index(src, msg)
        elif isinstance(msg, LearnRequest):
            self._on_learn_request(src, msg)
        elif isinstance(msg, Nack):
            self._on_nack(src, msg)
        elif isinstance(msg, Heartbeat):
            self.elector.on_heartbeat(src, msg)
        else:
            return False
        return True

    def _on_prepare(self, src: str, msg: Prepare) -> None:
        self._highest_round_seen = max(self._highest_round_seen, msg.ballot[0])
        if msg.ballot > self.promised:
            self.promised = msg.ballot
            accepted = self.log.accepted_at_or_above(msg.from_instance)
            self.runtime.send(
                src, Promise(group=self.group_id, ballot=msg.ballot, accepted=accepted)
            )
        else:
            self.runtime.send(
                src,
                Nack(
                    group=self.group_id,
                    rejected_ballot=msg.ballot,
                    promised_ballot=self.promised,
                ),
            )

    def _on_promise(self, src: str, msg: Promise) -> None:
        if msg.ballot != self._my_ballot or self._phase1_complete:
            return
        self._promises[src] = msg
        if len(self._promises) >= self.quorum:
            self._complete_phase1()

    def _on_accept(self, src: str, msg: Accept) -> None:
        self._highest_round_seen = max(self._highest_round_seen, msg.ballot[0])
        self.log.forget_below(msg.floor)
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            if not self.log.is_forgotten(msg.instance):
                entry = self.log.state(msg.instance)
                entry.accepted_ballot = msg.ballot
                entry.accepted_value = msg.value
                entry.has_accepted = True
            delivered = self.log.next_to_deliver
            if self.config.accepted_broadcast:
                # A learner can hear this vote before the Accept it
                # answers, so a broadcast vote carries the value.
                accepted = Accepted(
                    group=self.group_id,
                    ballot=msg.ballot,
                    instance=msg.instance,
                    value=msg.value,
                    next_to_deliver=delivered,
                )
                for member in self.members:
                    self.runtime.send(member, accepted)
            else:
                self.runtime.send(
                    src,
                    Accepted(
                        group=self.group_id, ballot=msg.ballot, instance=msg.instance,
                        next_to_deliver=delivered,
                    ),
                )
            self._arm_catchup()
        else:
            self.runtime.send(
                src,
                Nack(
                    group=self.group_id,
                    rejected_ballot=msg.ballot,
                    promised_ballot=self.promised,
                ),
            )

    def _on_accepted(self, src: str, msg: Accepted) -> None:
        self._delivered_at[src] = msg.next_to_deliver
        if self.config.accepted_broadcast:
            value = msg.value
        elif msg.ballot == self._my_ballot and msg.instance in self._proposed:
            # The vote names the value: (ballot, instance) is the one this
            # leader proposed at its current ballot and still holds.
            value = self._proposed[msg.instance]
        else:
            return  # a stale vote: an older ballot, or already delivered
        chose = self.log.record_vote(msg.instance, msg.ballot, value, src, self.quorum)
        if chose:
            if not self.config.accepted_broadcast:
                chosen = Chosen(group=self.group_id, instance=msg.instance, ballot=msg.ballot)
                for member in self.members:
                    if member != self.runtime.node_id:
                        self.runtime.send(member, chosen)
            for instance, value in self.log.pop_deliverable():
                self._deliver(instance, value)

    def _on_chosen(self, src: str, msg: Chosen) -> None:
        if msg.ballot is None:
            self.log.mark_chosen(msg.instance, msg.value)
        elif not self.log.is_chosen(msg.instance):
            entry = self.log.state(msg.instance)
            if entry.has_accepted and entry.accepted_ballot == msg.ballot:
                self.log.mark_chosen(msg.instance, entry.accepted_value)
            else:
                # The Accept at that ballot never got here: ask for the
                # value now rather than wait for the catch-up timer.
                self.runtime.send(
                    src,
                    LearnRequest(
                        group=self.group_id,
                        from_instance=msg.instance,
                        to_instance=msg.instance,
                    ),
                )
        for instance, value in self.log.pop_deliverable():
            self._deliver(instance, value)
        self._arm_catchup()

    def _on_commit_index(self, src: str, msg: CommitIndex) -> None:
        if msg.next_to_deliver <= self.log.next_to_deliver:
            return  # nothing we are missing
        self.runtime.send(
            src,
            LearnRequest(
                group=self.group_id,
                from_instance=self.log.next_to_deliver,
                to_instance=msg.next_to_deliver - 1,
            ),
        )

    def _on_learn_request(self, src: str, msg: LearnRequest) -> None:
        for instance in range(msg.from_instance, msg.to_instance + 1):
            value = self.log.chosen_value(instance)
            if value is not None:
                self.runtime.send(
                    src, Chosen(group=self.group_id, instance=instance, value=value)
                )

    def _arm_catchup(self) -> None:
        """Watch for persistent delivery gaps and re-request decisions."""
        if self._catchup_armed:
            return
        if self.log.max_seen_instance < self.log.next_to_deliver:
            return  # no gap
        self._catchup_armed = True

        def fire() -> None:
            self._catchup_armed = False
            if self.log.next_to_deliver > self.log.max_seen_instance:
                return  # fully caught up
            target = self.elector.leader
            if target is None or target == self.runtime.node_id:
                targets = [m for m in self.members if m != self.runtime.node_id]
            else:
                targets = [target]
            request = LearnRequest(
                group=self.group_id,
                from_instance=self.log.next_to_deliver,
                to_instance=self.log.max_seen_instance,
            )
            for peer in targets:
                self.runtime.send(peer, request)
            self._arm_catchup()

        self.runtime.set_timer(CATCHUP_INTERVAL, fire)

    def _on_nack(self, src: str, msg: Nack) -> None:
        self._highest_round_seen = max(self._highest_round_seen, msg.promised_ballot[0])
        if self._my_ballot is not None and msg.rejected_ballot == self._my_ballot:
            # Someone holds a higher ballot: restart Phase 1 if still leader.
            self._phase1_complete = False
            if self.is_leader:
                self._begin_phase1()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, instance: int, value: Any, log_to_wal: bool = True) -> None:
        self._proposed.pop(instance, None)
        if log_to_wal and self.config.wal is not None:
            self.config.wal.append(instance.to_bytes(8, "big") + encode_packed(value))
        if isinstance(value, PaxosNoop):
            return
        if isinstance(value, Batch):
            for item in value.values:
                self.on_deliver(instance, item)
            return
        self.on_deliver(instance, value)
