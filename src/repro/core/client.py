"""The SDUR client protocol core (Algorithm 1 of the paper).

Application transactions are written as **transaction programs**:
generator functions that receive a :class:`Txn` handle, yield
:class:`Read`/:class:`ReadMany` operations to fetch values, buffer writes
with :meth:`Txn.write`, and return to request commit::

    def transfer(txn):
        a = yield Read("account/a")
        b = yield Read("account/b")
        txn.write("account/a", a - 10)
        txn.write("account/b", b + 10)

The client runs the program sans-io: each yielded read becomes one
request per partition, sent to the nearest responsive replica of that
partition; the first read in a partition pins that partition's snapshot
(Algorithm 1 line 13); writes are buffered and shipped only at commit
(line 16), and only to keys the transaction read (``ws ⊆ rs``, §II-B).

Update transactions terminate via a :class:`CommitRequest` to the
preferred server of the session server's partition, the coordinator of
Figure 1 (docs/PROTOCOL.md §3).  Read-only transactions commit
without certification; a multi-partition read-only transaction reads at
a globally-consistent snapshot vector (§III-A), which the answer to its
first read carries.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any

from repro.core.directory import ClusterDirectory
from repro.core.messages import (
    Busy,
    CommitRequest,
    OutcomeNotice,
    ReadRequest,
    ReadResponse,
)
from repro.core.partitioning import PartitionMap
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.recorder import NULL_RECORDER
from repro.overload.backoff import BackoffPolicy
from repro.reconfig.epochs import VersionedRouting
from repro.reconfig.messages import ConfigSnapshot, GetConfig, StaleEpochNotice
from repro.runtime.base import Runtime, TimerHandle

#: Restarts one transaction may take because the directory changed
#: under it (split or merge) before giving up.
MAX_EPOCH_RETRIES = 3
#: Retry delays grow geometrically: the n-th read/commit timeout retry
#: waits ``timeout * BACKOFF_MULTIPLIER**n``, capped at ``BACKOFF_CAP``,
#: and each delay is jittered so that clients a shed or failover
#: synchronized do not retry in lockstep (docs/PROTOCOL.md §16).
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP = 2.0
#: Fraction of each retry delay randomized away (0 = deterministic timing).
BACKOFF_JITTER = 0.5
#: Base delay before resubmitting a commit a server refused with ``Busy``
#: (grows with the same multiplier and cap; the server's ``retry_after``
#: hint is honoured as a floor).
BUSY_BACKOFF_BASE = 0.05
#: ``Busy`` resubmissions for one commit before giving up and reporting
#: the transaction shed.
MAX_BUSY_RETRIES = 4
#: How long an unresponsive server stays suspected (skipped when choosing
#: read/commit targets) after a timeout fired against it.
SUSPECT_TTL = 5.0
#: A ``GetConfig`` unanswered for this long is presumed lost (crash, cut
#: link, dropped frame): the next newer-epoch read response pulls again.
CONFIG_PULL_RETRY = 1.0


@dataclass(frozen=True)
class Read:
    """Yield this to read one key; the yield evaluates to its value."""

    key: str


@dataclass(frozen=True)
class ReadMany:
    """Yield this to read keys in parallel; evaluates to ``{key: value}``."""

    keys: tuple[str, ...]


@dataclass(frozen=True)
class TxnResult:
    """What the application learns when a transaction completes."""

    tid: TxnId
    outcome: Outcome
    started: float
    finished: float
    is_global: bool
    read_only: bool
    partitions: tuple[str, ...]
    #: key -> version actually read (for the serializability checker).
    read_versions: dict[str, int] = field(default_factory=dict)
    writes: dict[str, Any] = field(default_factory=dict)
    abort_reason: str | None = None
    #: Label the workload attached (e.g. "post", "timeline").
    label: str = ""

    @property
    def latency(self) -> float:
        return self.finished - self.started

    @property
    def committed(self) -> bool:
        return self.outcome is Outcome.COMMIT


@dataclass(frozen=True)
class ClientConfig:
    """Client-side knobs."""

    #: Server near the client.  Commit requests go to the preferred
    #: server of its partition; reads go to the nearest replica.
    session_server: str
    #: Ship readsets as bloom digests instead of exact key sets.
    bloom_readsets: bool = False
    bloom_fp_rate: float = 0.001
    #: Re-send the commit request if no outcome arrives (failover);
    #: ``None`` disables.
    commit_timeout: float | None = None
    #: Re-issue an unanswered read to the next-nearest replica after this
    #: long (read failover across a partition's replicas); ``None`` disables.
    read_timeout: float | None = None


#: A transaction program: generator yielding Read/ReadMany operations.
TxnProgram = Callable[["Txn"], Generator[Any, Any, None]]


class Txn:
    """Handle passed to transaction programs."""

    def __init__(self, owner: "_ActiveTxn") -> None:
        self._owner = owner

    @property
    def tid(self) -> TxnId:
        return self._owner.tid

    def write(self, key: str, value: Any) -> None:
        """Buffer a write; shipped to servers only at commit."""
        self._owner.record_write(key, value)


@dataclass
class _ReadOp:
    """One read request in flight — one partition's keys: what its
    answers, its re-sends and its cancellation all need, in one place."""

    op_id: int
    #: The keys not answered yet.  A server whose newer map moved some of
    #: them forwards those, and their partition answers under the same
    #: op id, so one request can take more than one answer.
    keys: list[str]
    #: Re-sends so far: picks the replica (rank rotation) and the step
    #: of the timeout's backoff.
    attempt: int = 0
    #: The armed read timeout.
    timer: TimerHandle | None = None


class _ActiveTxn:
    """Book-keeping for one in-flight transaction at the client."""

    def __init__(
        self,
        tid: TxnId,
        program: TxnProgram,
        on_done: Callable[[TxnResult], None],
        read_only: bool,
        started: float,
        label: str,
        epoch_restarts: int = 0,
    ) -> None:
        self.tid = tid
        #: Kept so the transaction can restart under a fresh id when the
        #: directory changes mid-flight (programs must be re-runnable).
        self.program = program
        self.on_done = on_done
        self.read_only = read_only
        self.started = started
        self.label = label
        self.epoch_restarts = epoch_restarts
        self.gen = program(Txn(self))
        self.rs_keys: set[str] = set()
        self.read_versions: dict[str, int] = {}
        #: key -> partition that actually served the read.  Compared to
        #: the *current* map at commit time: if a split moved the key in
        #: between, certifying at the new partition with this read would
        #: miss pre-split conflicts, so the client restarts instead.
        self.read_partitions: dict[str, str] = {}
        self.ws: dict[str, Any] = {}
        #: partition -> pinned snapshot (Algorithm 1's ``t.st``).
        self.st: dict[str, int] = {}
        #: A multi-partition read-only transaction reads at a snapshot
        #: vector (§III-A), which the answer to its first read brings.
        self.needs_vector = False
        self.vector: dict[str, int] | None = None
        #: Keys of other partitions, held back until that answer arrives.
        self.held: list[str] = []
        self.next_op = 0
        #: The yielded ``Read`` / ``ReadMany`` being served, the reads it
        #: still waits for (by op id) and the values it has so far.
        self.op: Read | ReadMany | None = None
        self.reads: dict[int, _ReadOp] = {}
        self.values: dict[str, Any] = {}
        self.resend_count = 0
        #: The built request, from the moment it is first sent: kept for
        #: idempotent re-sending (same tid; delivery-side dedup absorbs races).
        self.commit_request: CommitRequest | None = None
        #: The one armed timer: the commit timeout, or a ``Busy`` backoff.
        self.commit_timer: TimerHandle | None = None
        self.busy_retries = 0

    def record_write(self, key: str, value: Any) -> None:
        if self.read_only:
            raise ProtocolError(f"{self.tid}: write in a read-only transaction")
        if key not in self.rs_keys:
            raise ProtocolError(
                f"{self.tid}: blind write to {key!r} (paper assumes ws ⊆ rs; "
                f"read the key first)"
            )
        self.ws[key] = value


class ClientStats:
    """Per-client counters."""

    def __init__(self) -> None:
        self.started = 0
        self.committed = 0
        self.aborted = 0
        self.commit_resends = 0
        #: Transactions restarted because the directory changed under them.
        self.epoch_retries = 0
        #: Commit requests refused with ``Busy`` (§16).
        self.busy_replies = 0
        #: Commits abandoned after exhausting ``MAX_BUSY_RETRIES``.
        self.shed_aborts = 0


class SdurClient:
    """Algorithm 1: the client side of geo-SDUR."""

    def __init__(
        self,
        runtime: Runtime,
        directory: ClusterDirectory,
        partition_map: PartitionMap,
        config: ClientConfig,
        routing: VersionedRouting | None = None,
    ) -> None:
        self.runtime = runtime
        self._obs = getattr(runtime, "obs", NULL_RECORDER)
        #: Epoch-versioned view of the directory; ``routing`` supersedes
        #: the plain ``directory``/``partition_map`` arguments.
        self.routing = routing or VersionedRouting(directory, partition_map)
        self.config = config
        self._seq = 0
        # Transaction ids must be unique across client incarnations:
        # servers de-duplicate deliveries by id, so a restarted client
        # reusing ids would have its transactions silently dropped as
        # replays of their recovered namesakes.
        self._incarnation = runtime.rng("txn-id").getrandbits(32)
        self._id_namespace = f"{runtime.node_id}~{self._incarnation:08x}"
        self._active: dict[TxnId, _ActiveTxn] = {}
        #: No new GetConfig before this time: debounces the requests
        #: triggered by epoch sniffing on read responses, yet expires, so
        #: a lost request or reply does not silence later ones.
        self._config_quiet_until = 0.0
        #: Unresponsive servers -> suspicion expiry time (client-side
        #: failure detection: a suspected server is deprioritized for
        #: reads and commit resends until the suspicion expires).
        self._suspected: dict[str, float] = {}
        self._backoff_rng = runtime.rng("backoff")

        def policy(base: float) -> BackoffPolicy:
            return BackoffPolicy(
                base=base,
                cap=max(BACKOFF_CAP, base),
                multiplier=BACKOFF_MULTIPLIER,
                jitter=BACKOFF_JITTER,
            )

        self._busy_backoff = policy(BUSY_BACKOFF_BASE)
        self._read_backoff = (
            policy(config.read_timeout) if config.read_timeout is not None else None
        )
        self._commit_backoff = (
            policy(config.commit_timeout) if config.commit_timeout is not None else None
        )
        self.stats = ClientStats()

    @property
    def node_id(self) -> str:
        return self.runtime.node_id

    @property
    def directory(self) -> ClusterDirectory:
        return self.routing.directory

    @property
    def partition_map(self) -> PartitionMap:
        return self.routing.partition_map

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        program: TxnProgram,
        on_done: Callable[[TxnResult], None],
        read_only: bool = False,
        label: str = "",
    ) -> TxnId:
        """Run one transaction program; ``on_done`` gets the result."""
        self._seq += 1
        tid = TxnId(client=self._id_namespace, seq=self._seq)
        state = _ActiveTxn(
            tid=tid,
            program=program,
            on_done=on_done,
            read_only=read_only,
            started=self.runtime.now(),
            label=label,
        )
        self._active[tid] = state
        self.stats.started += 1
        self._launch(state)
        return tid

    def _launch(self, state: _ActiveTxn) -> None:
        if self._obs.enabled:
            self._obs.event(
                "client.start",
                self.node_id,
                state.tid,
                label=state.label,
                read_only=state.read_only,
            )
        state.needs_vector = state.read_only and len(self.directory.partition_ids) > 1
        self._advance(state, None)

    # ------------------------------------------------------------------
    # Message entry point
    # ------------------------------------------------------------------
    def handle(self, src: str, msg: Any) -> bool:
        if isinstance(msg, ReadResponse):
            self._on_read_response(src, msg)
        elif isinstance(msg, OutcomeNotice):
            self._on_outcome(msg)
        elif isinstance(msg, Busy):
            self._on_busy(msg)
        elif isinstance(msg, StaleEpochNotice):
            self._on_stale_epoch(msg)
        elif isinstance(msg, ConfigSnapshot):
            self._on_config_snapshot(msg)
        else:
            return False
        return True

    # ------------------------------------------------------------------
    # Client-side failure suspicion
    # ------------------------------------------------------------------
    def _suspect(self, server: str) -> None:
        now = self.runtime.now()
        self._suspected[server] = now + SUSPECT_TTL
        # Prune expired suspicions while we are here: the dict only grows
        # on this path, so a long-lived client otherwise accumulates an
        # entry for every server it ever timed out against.
        expired = [s for s, until in self._suspected.items() if until <= now]
        for server in expired:
            del self._suspected[server]

    def _responsive(self, servers: list[str]) -> list[str]:
        """``servers`` with suspected ones moved to the back (never empty)."""
        now = self.runtime.now()
        alive = [s for s in servers if self._suspected.get(s, 0.0) <= now]
        dead = [s for s in servers if s not in alive]
        return alive + dead if alive else list(servers)

    # ------------------------------------------------------------------
    # Program driving
    # ------------------------------------------------------------------
    def _advance(self, state: _ActiveTxn, send_value: Any) -> None:
        try:
            op = state.gen.send(send_value)
        except StopIteration:
            self._commit(state)
            return
        if not isinstance(op, (Read, ReadMany)):
            raise ProtocolError(f"{state.tid}: program yielded {op!r}")
        # ``Read(k)`` is a ``ReadMany`` of one whose result is unwrapped.
        state.op = op
        remote = []
        for key in dict.fromkeys((op.key,) if isinstance(op, Read) else op.keys):
            state.rs_keys.add(key)
            if key in state.ws:
                # Read-your-writes from the local buffer (Algorithm 1 lines 7–8).
                state.values[key] = state.ws[key]
            else:
                remote.append(key)
        if remote:
            self._issue_reads(state, remote)
        else:
            self._resume(state)

    def _resume(self, state: _ActiveTxn) -> None:
        """Every key of the yielded read is in: hand the program its value."""
        values, state.values = state.values, {}
        self._advance(state, values[state.op.key] if isinstance(state.op, Read) else values)

    def _issue_reads(self, state: _ActiveTxn, keys: list[str]) -> None:
        """One request per partition of ``keys``.  Still without the
        vector it needs, a transaction sends one partition's keys — its
        session server's, if it reads there — and holds the rest back
        until the answer brings the vector."""
        groups: dict[str, list[str]] = {}
        for key in keys:
            groups.setdefault(self.partition_map.partition_of(key), []).append(key)
        if state.needs_vector and state.vector is None:
            first = self.directory.partition_of_server(self.config.session_server)
            if first not in groups:
                first = next(iter(groups))
            state.held = [key for p, group in groups.items() if p != first for key in group]
            groups = {first: groups[first]}
        for group in groups.values():
            op = state.reads[state.next_op] = _ReadOp(state.next_op, group)
            state.next_op += 1
            self._send_read(state, op)

    def _send_read(self, state: _ActiveTxn, op: _ReadOp) -> None:
        """Send ``op``'s unanswered keys to the replica its attempt count
        selects and arm its timeout: the one way a read is re-sent is
        after that timeout, to the next-nearest replica."""
        partition = self.partition_map.partition_of(op.keys[0])
        if state.vector is not None:
            snapshot: int | None = state.vector.get(partition, 0)
        else:
            snapshot = state.st.get(partition)
        ranked = self._responsive(self.directory.ranked_servers(partition, self.node_id))
        target = ranked[op.attempt % len(ranked)]
        self.runtime.send(
            target,
            ReadRequest(
                tid=state.tid,
                op_id=op.op_id,
                keys=tuple(op.keys),
                snapshot=snapshot,
                reply_to=self.node_id,
                want_vector=state.needs_vector and state.vector is None,
            ),
        )
        if self._read_backoff is None:
            return

        def fire() -> None:
            if state.reads.get(op.op_id) is not op:
                return  # answered (or the transaction ended) in the meantime
            self._suspect(target)
            op.attempt += 1
            self._send_read(state, op)

        # Successive waits grow exponentially (capped, jittered): fast
        # first failover, no retry storm against a slow partition.
        op.timer = self.runtime.set_timer(
            self._read_backoff.delay(op.attempt, self._backoff_rng), fire
        )

    def _on_read_response(self, src: str, msg: ReadResponse) -> None:
        if msg.epoch > self.routing.epoch:
            # The serving server runs a newer configuration: fetch the
            # missing changes so commits route (and tag) correctly.
            self._request_config(src)
        state = self._active.get(msg.tid)
        if state is None:
            return
        if msg.error is not None:
            self._finish(state, Outcome.ABORT, abort_reason=msg.error)
            return
        if msg.vector is not None and state.vector is None:
            state.vector = msg.vector
            held, state.held = state.held, []
            if held:
                self._issue_reads(state, held)
        if state.vector is not None:
            pinned = state.vector.get(msg.partition, 0)
        else:
            pinned = state.st.setdefault(msg.partition, msg.snapshot)  # Algorithm 1 line 13
        op = state.reads.get(msg.op_id)
        if op is None:
            return  # duplicate/stale response; ignore
        items = [item for item in msg.items() if item[0] in op.keys]
        if not items:
            return  # another answer to the same keys came first
        answered = [key for key, _, _ in items]
        op.keys = [key for key in op.keys if key not in answered]
        if not op.keys:
            del state.reads[msg.op_id]
            if op.timer is not None:
                op.timer.cancel()  # answered: nothing left to retry
        if msg.snapshot != pinned:
            # A request's keys are read at one snapshot, so a partition's
            # answers disagree only when a server forwarded keys that a
            # split or merge moved into a partition this transaction had
            # pinned already.  Certification starts from the pin and would
            # miss a writer in between: re-read those keys at the pin.
            self._issue_reads(state, answered)
            return
        for key, value, version in items:
            state.read_partitions[key] = msg.partition
            state.read_versions[key] = version
            state.values[key] = value
        if not state.reads:
            self._resume(state)

    # ------------------------------------------------------------------
    # Termination (Algorithm 1 lines 17–20)
    # ------------------------------------------------------------------
    def _commit(self, state: _ActiveTxn) -> None:
        if not state.ws:
            # Read-only: commits without certification (§III-A).
            self._finish(state, Outcome.COMMIT)
            return
        # Pick the target first: the projections name it as coordinator,
        # which determines which server answers the client (Figure 1 ⑦).
        target = self._commit_target_for(state)
        request = self._build_commit_request(state, coordinator=target)
        if request is None:
            # A split moved some key this transaction read: the pinned
            # snapshots no longer match the current routing, so restart
            # with fresh reads rather than certify an unsound mix.
            self._restart(state)
            return
        state.commit_request = request
        if self._obs.enabled:
            self._obs.event("client.commit", self.node_id, state.tid, target=target)
        self._send_commit(state, target)

    def _build_commit_request(
        self, state: _ActiveTxn, coordinator: str
    ) -> CommitRequest | None:
        keys = state.rs_keys | set(state.ws)
        for key in keys:
            served_by = state.read_partitions.get(key)
            if served_by is not None and served_by != self.partition_map.partition_of(key):
                # The key moved partitions since it was read: its pinned
                # snapshot belongs to the old partition's history, which
                # the new partition's certification window cannot check.
                return None
        partitions = self.partition_map.partitions_of(keys)
        projections: dict[str, TxnProjection] = {}
        for partition in partitions:
            rs_p = [k for k in state.rs_keys if self.partition_map.partition_of(k) == partition]
            ws_p = {
                k: v
                for k, v in state.ws.items()
                if self.partition_map.partition_of(k) == partition
            }
            snapshot = state.st.get(partition)
            if snapshot is None:
                raise ProtocolError(
                    f"{state.tid}: no snapshot for partition {partition!r} "
                    f"(blind write slipped through?)"
                )
            if self.config.bloom_readsets:
                digest = ReadsetDigest.bloomed(rs_p, fp_rate=self.config.bloom_fp_rate)
            else:
                digest = ReadsetDigest.exact(rs_p)
            projections[partition] = TxnProjection(
                tid=state.tid,
                partition=partition,
                readset=digest,
                writeset=ws_p,
                snapshot=snapshot,
                partitions=partitions,
                coordinator=coordinator,
                client=self.node_id,
                epoch=self.routing.epoch,
            )
        return CommitRequest(tid=state.tid, projections=projections)

    def _commit_target_for(self, state: _ActiveTxn) -> str:
        """The preferred server of the session server's partition (Figure
        1's coordinator: a follower would forward to the leader and learn
        the outcome a relay later), or the session server itself if it
        replicates no partition.  A suspected target gives way to the
        nearest responsive server of the first involved partition."""
        target = self.config.session_server
        try:
            target = self.directory.preferred_of(self.directory.partition_of_server(target))
        except ConfigurationError:
            pass
        if self._suspected.get(target, 0.0) <= self.runtime.now():
            return target
        keys = state.rs_keys | set(state.ws)
        partitions = self.partition_map.partitions_of(keys)
        ranked = self.directory.ranked_servers(partitions[0], self.node_id)
        return self._responsive(ranked)[0]

    def _send_commit(self, state: _ActiveTxn, target: str) -> None:
        """Send the built request to ``target`` and arm its timeout."""
        self.runtime.send(target, state.commit_request)
        if self._commit_backoff is not None:
            delay = self._commit_backoff.delay(state.resend_count, self._backoff_rng)
            self._arm_commit(state, delay, suspect=target)

    def _arm_commit(self, state: _ActiveTxn, delay: float, suspect: str | None) -> None:
        """The one way a commit is re-sent: the *same* request after
        ``delay`` (delivery-side tid dedup makes that idempotent).
        ``suspect`` is the server that let a timeout pass: the request
        fails over to another server of the involved partitions.  One
        that said ``Busy`` answered, so the request goes wherever a fresh
        commit would."""

        def fire() -> None:
            if state.tid not in self._active:
                return
            if suspect is not None:
                self._suspect(suspect)
                partitions = sorted(state.commit_request.projections)
                servers = self._responsive(self.directory.servers_union(partitions))
                state.resend_count += 1
                self.stats.commit_resends += 1
                target = servers[(state.resend_count - 1) % len(servers)]
            else:
                target = self._commit_target_for(state)
            self._send_commit(state, target)

        if state.commit_timer is not None:
            state.commit_timer.cancel()
        state.commit_timer = self.runtime.set_timer(delay, fire)

    def _on_outcome(self, msg: OutcomeNotice) -> None:
        state = self._active.get(msg.tid)
        if state is not None:  # else a later replica's notice; finished
            self._finish(state, Outcome(msg.outcome))

    # ------------------------------------------------------------------
    # Overload sheds (docs/PROTOCOL.md §16)
    # ------------------------------------------------------------------
    def _on_busy(self, msg: Busy) -> None:
        state = self._active.get(msg.tid)
        if state is None:
            return  # shed raced the outcome of a resubmitted duplicate
        self.stats.busy_replies += 1
        # A busy server answered: it is loaded, not dead.
        self._suspected.pop(msg.server, None)
        if self._obs.enabled:
            self._obs.event(
                "client.busy", self.node_id, msg.tid, server=msg.server, reason=msg.reason
            )
        if state.commit_request is None:
            return  # stale shed: nothing of this transaction awaits an outcome
        state.busy_retries += 1
        if state.busy_retries > MAX_BUSY_RETRIES:
            self.stats.shed_aborts += 1
            self._finish(state, Outcome.ABORT, abort_reason=f"shed ({msg.reason})")
            return
        delay = max(
            msg.retry_after,
            self._busy_backoff.delay(state.busy_retries - 1, self._backoff_rng),
        )
        self._arm_commit(state, delay, suspect=None)

    # ------------------------------------------------------------------
    # Reconfiguration (epoch-versioned routing)
    # ------------------------------------------------------------------
    def _request_config(self, server: str) -> None:
        now = self.runtime.now()
        if now < self._config_quiet_until:
            return
        self._config_quiet_until = now + CONFIG_PULL_RETRY
        self.runtime.send(
            server, GetConfig(reply_to=self.node_id, since_epoch=self.routing.epoch)
        )

    def _on_config_snapshot(self, msg: ConfigSnapshot) -> None:
        self._config_quiet_until = 0.0
        self.routing.apply_all(msg.changes)

    def _on_stale_epoch(self, msg: StaleEpochNotice) -> None:
        # The notice carries every change the client is missing, so the
        # restart below already routes under the server's configuration.
        self.routing.apply_all(msg.changes)
        state = self._active.get(msg.tid)
        if state is None:
            return  # duplicate notice for an already-restarted txn
        self._restart(state)

    @staticmethod
    def _disarm(state: _ActiveTxn) -> None:
        """A transaction that left ``_active`` lets go of its timers —
        every one sits in a read's or the commit's slot: each closure
        pins the whole ``_ActiveTxn`` — generator, read/write sets, the
        built request — for a full timeout or backoff, only to find the
        transaction gone and return."""
        for op in state.reads.values():
            if op.timer is not None:
                op.timer.cancel()
        state.reads.clear()
        if state.commit_timer is not None:
            state.commit_timer.cancel()
            state.commit_timer = None

    def _restart(self, state: _ActiveTxn) -> None:
        """Re-run a transaction under a fresh id and the current routing.

        Servers de-duplicate deliveries by transaction id — a projection
        of the old attempt may already sit in some partition's log — so
        the restart must *not* reuse the id.
        """
        self._active.pop(state.tid, None)
        if state.epoch_restarts >= MAX_EPOCH_RETRIES:
            self._finish(
                state,
                Outcome.ABORT,
                abort_reason="stale configuration (epoch retry limit)",
            )
            return
        self._disarm(state)
        self.stats.epoch_retries += 1
        self._seq += 1
        tid = TxnId(client=self._id_namespace, seq=self._seq)
        fresh = _ActiveTxn(
            tid=tid,
            program=state.program,
            on_done=state.on_done,
            read_only=state.read_only,
            started=state.started,
            label=state.label,
            epoch_restarts=state.epoch_restarts + 1,
        )
        self._active[tid] = fresh
        if self._obs.enabled:
            self._obs.event(
                "client.epoch_restart", self.node_id, None,
                old=str(state.tid), new=str(tid), epoch=self.routing.epoch,
            )
        self._launch(fresh)

    def _finish(
        self, state: _ActiveTxn, outcome: Outcome, abort_reason: str | None = None
    ) -> None:
        self._active.pop(state.tid, None)
        self._disarm(state)
        if self._obs.enabled:
            self._obs.event(
                "client.done", self.node_id, state.tid, outcome=outcome.value
            )
        keys = state.rs_keys | set(state.ws)
        partitions = self.partition_map.partitions_of(keys) if keys else ()
        if outcome is Outcome.COMMIT:
            self.stats.committed += 1
        else:
            self.stats.aborted += 1
        result = TxnResult(
            tid=state.tid,
            outcome=outcome,
            started=state.started,
            finished=self.runtime.now(),
            is_global=len(partitions) > 1,
            read_only=not state.ws,
            partitions=partitions,
            read_versions=dict(state.read_versions),
            writes=dict(state.ws),
            abort_reason=abort_reason,
            label=state.label,
        )
        state.on_done(result)
