"""The SDUR server protocol core (Algorithm 2 of the paper).

One :class:`SdurServer` runs at every server node.  It owns the node's
slice of the database (the multiversion store of its partition), the
certification window (``DB``), the pending list (``PL``), the snapshot
counter (``SC``) and the delivered-transactions counter (``DC``), and
reacts to:

* client reads (serving snapshot reads, routing cross-partition ones),
* client commit requests (the ``submit`` procedure, including the
  *delaying* extension of §IV-D),
* atomic-broadcast deliveries of transaction projections (certification,
  the *reordering* extension of §IV-E, and completion),
* votes from other partitions (global-transaction termination),
* the recovery abort-request broadcast (§IV-F),
* snapshot-vector gossip for read-only transactions.

Determinism note: everything that affects commit *order* — certification,
reordering, threshold bookkeeping — must depend only on the delivery
sequence and on vote contents, never on vote arrival times; this is the
invariant behind the paper's correctness argument (§IV-G) and is
exercised by the ``test_determinism`` property tests.  For votes the
invariant is enforced structurally by the termination component
(``self.ledger``, :mod:`repro.termination`, docs/PROTOCOL.md §14): votes
are values ordered through the partition's own log and take effect only
at delivery.  This module decides verdicts (certification, deferral,
dooming) and completes the pending list's head — or, for a local that
meets an empty list, completes it at delivery (docs/PROTOCOL.md §18.2):
every delivered value takes the one path ``on_adeliver`` → ``_ingest`` →
``_deliver_txn``.  Two components own the rest and are called at fixed
points only.  *When a vote counts* is known
to the ledger alone — admit, cast, vote arrived, record delivered, abort
request delivered, partition learned.  *What a live split
or merge asks of this replica* is known to ``self.reconfig`` alone
(:mod:`repro.reconfig.participant`, whose docstring lists its points;
docs/PROTOCOL.md §13, §17).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import replace
from typing import Any

from repro.consensus.abcast import AbcastFabric
from repro.core.certifier import CertificationWindow, window_entry
from repro.core.certindex import IndexedCertifier
from repro.core.checkpoint import (
    CheckpointReply,
    CheckpointRequest,
    ServerCheckpoint,
    window_from_wire,
    window_to_wire,
)
from repro.core.config import DelayMode, SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.messages import (
    AbortRequest,
    Busy,
    CommitGossip,
    CommitRequest,
    GossipResync,
    NoopTick,
    OutcomeNotice,
    ReadRequest,
    ReadResponse,
    Vote,
)
from repro.core.partitioning import PartitionMap
from repro.core.pending import PendingList, PendingTxn
from repro.core.snapshots import GlobalSnapshotBuilder
from repro.core.transaction import Outcome, TxnId, TxnProjection
from repro.errors import ConfigurationError, ProtocolError, SnapshotTooOldError
from repro.obs.recorder import NULL_RECORDER
from repro.overload import admission as admission_policy
from repro.overload.admission import AdmissionController, AdmissionDecision, AdmitAll
from repro.reconfig.epochs import VersionedRouting
from repro.reconfig.messages import InstallMigration
from repro.reconfig.participant import ReconfigParticipant, replay
from repro.runtime.base import Runtime
from repro.storage.mvstore import MultiVersionStore
from repro.telemetry.wiring import ServerStats, build_server_registry
from repro.termination import VoteLedger, VoteRecord

#: Interval of no-op ticks while globals await their reorder threshold
#: (only armed when ``reorder_threshold > 0``).
NOOP_INTERVAL = 0.01
#: Re-proposal period of vote records not yet seen delivered: the
#: immediate proposal can die with a crashed or superseded leader.
LEDGER_RETRY_INTERVAL = 0.25
#: The row of a client the dedup table has no entry for; never written.
_NO_ROW: dict = {}


class SdurServer:
    """Algorithm 2: the server side of geo-SDUR for one partition replica."""

    def __init__(
        self,
        runtime: Runtime,
        partition: str,
        directory: ClusterDirectory,
        partition_map: PartitionMap,
        fabric: AbcastFabric,
        config: SdurConfig | None = None,
        initial_data: dict[str, Any] | None = None,
        routing: VersionedRouting | None = None,
    ) -> None:
        self.runtime = runtime
        #: Causal-tracing recorder; ``getattr`` so hand-rolled stub
        #: runtimes in unit tests need not know about repro.obs.
        self._obs = getattr(runtime, "obs", NULL_RECORDER)
        self.partition = partition
        #: Epoch-versioned view of the directory and key routing.  When a
        #: caller passes ``routing`` it supersedes the static
        #: ``directory``/``partition_map`` arguments (which remain for
        #: non-reconfiguring deployments and existing tests).
        self.routing = routing or VersionedRouting(directory, partition_map)
        self.fabric = fabric
        self.config = config or SdurConfig()
        self.store = MultiVersionStore()
        if initial_data:
            self.store.seed(initial_data)
        self.stats = ServerStats()
        #: Admission policy (docs/PROTOCOL.md §16), chosen once, here:
        #: without a configured bound every request is accepted and the
        #: queues are unbounded (the pre-§16 behavior, kept runnable as
        #: the O4 ablation baseline).
        self.admission: AdmissionController | AdmitAll = (
            AdmitAll()
            if self.config.admission is None
            else AdmissionController(self.config.admission)
        )
        self.window = CertificationWindow(self.config.history_window)
        self.pending = PendingList()
        #: Conflict checks over window + pending list: the key index
        #: (docs/PROTOCOL.md §15).
        self._attach_certifier()
        #: Delivered-transactions counter (Algorithm 2's ``DC``).
        self.dc = 0
        #: The reorder threshold (§IV-E), fixed for the server's life.
        self.reorder_threshold = self.config.reorder_threshold
        #: Recently completed transactions, ``client -> {seq: outcome}``,
        #: in two generations: when the current one reaches
        #: ``_completed_limit`` entries it becomes the old one and the
        #: old one is dropped.  So the last ``_completed_limit`` outcomes
        #: are always remembered, at most twice that many are held, and
        #: no entry has a tuple or a list node of its own; the rows hold
        #: only atoms, which the collector does not track
        #: (docs/PROTOCOL.md §15).
        self._completed: dict[str, dict[int, str]] = {}
        self._completed_old: dict[str, dict[int, str]] = {}
        self._completed_size = 0
        self._completed_limit = 4 * self.config.history_window
        #: Termination component (docs/PROTOCOL.md §14): owns every vote,
        #: the vote timeout, the abort-request branches and the set of
        #: transactions aborted before delivery.
        self.ledger = VoteLedger(
            runtime,
            partition,
            fabric.abcast,
            routing=self.routing,
            pending=self.pending,
            completed=self._completed_outcome,
            doom=self._doom_and_release,
            drain=self._drain,
            stats=self.stats,
            is_leader=lambda: self.is_partition_leader(),
            retry_interval=LEDGER_RETRY_INTERVAL,
            vote_timeout=self.config.vote_timeout,
            limit=self._completed_limit,
        )
        #: Completing at delivery applies at certification time, so it
        #: happens only where applying is free under the CPU model (§18.2).
        self._apply_is_free = not self.config.costs.apply
        #: Reads waiting for this replica to catch up to their snapshot.
        self._waiting_reads: list[tuple[int, ReadRequest]] = []
        #: Deliveries stalled behind a blocked head global (see _head_blocked).
        self._stalled: deque[Any] = deque()
        self._applying = False
        #: Deliveries handed to ``runtime.execute`` that ``_ingest`` has
        #: not yet taken: counted in ``_last_instance``, not yet applied.
        self._queued_for_cpu = 0
        self._noop_armed = False
        self.snapshot_builder = GlobalSnapshotBuilder(
            self.routing.directory.partition_ids, partition
        )
        #: Reconfiguration component (docs/PROTOCOL.md §13, §17): epoch
        #: switch, migration, config push / pull, wrong-epoch refusal.
        self.reconfig = ReconfigParticipant(
            runtime,
            partition,
            self.routing,
            self.store,
            self.pending,
            self.snapshot_builder,
            fabric,
            self.stats,
            replace_window=self._replace_window,
            partition_learned=lambda: self.ledger.on_partition_learned(),
            is_leader=lambda: self.is_partition_leader(),
            resubmit=self.submit,
            reroute_read=self._on_read,
            requeue_waiting_reads=lambda: replay(
                self._waiting_reads,
                lambda waiting: self._on_read(waiting[1].reply_to, waiting[1]),
            ),
            drain_waiting_reads=self._drain_waiting_reads,
            pump=self._pump,
            merge_hook=lambda: self.on_merge_hook,
        )
        #: Injected by the harness: is this node its partition's leader?
        self.is_partition_leader: Callable[[], bool] = lambda: True
        #: Optional hook ``(tid, partition, version, proj)`` called on every
        #: local commit; the history checker uses it.
        self.on_commit_hook: Callable[[TxnId, str, int, TxnProjection], None] | None = None
        #: Optional hook ``(partition, version, keys)`` fired when a merge
        #: install applies the absorbed state as one synthetic commit;
        #: the history checker records it as a virtual writer.
        self.on_merge_hook: Callable[[str, int, frozenset[str]], None] | None = None
        #: Called with the first uncovered instance after each checkpoint
        #: (the harness wires it to the Paxos replica's WAL compaction).
        self.checkpoint_hook: Callable[[int], None] | None = None
        #: Latest serialized checkpoint (served to state-transfer requests).
        self.latest_checkpoint: bytes | None = None
        #: Highest broadcast instance ingested (checkpoint coverage bound).
        self._last_instance = -1
        self._started = False
        #: §19 live telemetry.  The registry is always built — counters
        #: and gauges are *bound* readers over existing state, so
        #: declaring them costs nothing on the hot path — but the
        #: histogram only records when ``telemetry_enabled`` is set
        #: (``cluster.enable_telemetry()``), keeping the disabled path
        #: allocation-free (tests/telemetry/test_overhead.py).
        self.telemetry_enabled = False
        self.registry = build_server_registry(self)
        self._hist_commit_latency = self.registry.histogram(
            "sdur_commit_latency",
            unit="seconds",
            help="Delivery-to-commit latency per committed transaction.",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self.runtime.node_id

    @property
    def directory(self) -> ClusterDirectory:
        """The current epoch's cluster directory."""
        return self.routing.directory

    @property
    def partition_map(self) -> PartitionMap:
        """The current epoch's key routing."""
        return self.routing.partition_map

    @property
    def sc(self) -> int:
        """Snapshot counter (``SC``): version of the latest applied commit."""
        return self.store.current_version

    def await_migration(self) -> None:
        """The harness, on a replica of a freshly split-off partition:
        gate it until its state arrives (``reconfig.await_install``)."""
        self.reconfig.await_install()

    def start(self) -> None:
        """Arm periodic duties (snapshot gossip, version GC)."""
        if self._started:
            return
        self._started = True
        if self.config.gossip_interval is not None and len(self.directory.partition_ids) > 1:
            self.runtime.set_timer(self.config.gossip_interval, self._gossip_tick)
        if self.config.store_gc_interval is not None:
            self.runtime.set_timer(self.config.store_gc_interval, self._gc_tick)
        if self.config.checkpoint_interval is not None:
            self.runtime.set_timer(self.config.checkpoint_interval, self._checkpoint_tick)

    def close(self) -> None:
        """Teardown entry point for deployments (``benchmarks/e2e``
        calls it).  The server owns nothing outside the runtime today,
        so there is nothing to release."""

    def _gc_tick(self) -> None:
        """Drop versions older than the retention window (§V keeps only
        the last K certification records; the store mirrors that)."""
        horizon = self.sc - self.config.store_gc_keep
        if horizon > self.store.gc_horizon:
            dropped = self.store.collect_garbage(horizon)
            if self._obs.enabled:
                self._obs.event("server.gc", self.node_id, None, horizon=horizon, dropped=dropped)
        self.runtime.set_timer(self.config.store_gc_interval, self._gc_tick)

    def _gossip_tick(self) -> None:
        payload = self.snapshot_builder.next_delta()
        own = set(self.directory.servers_of(self.partition))
        for server in self.directory.all_servers():
            if server not in own:
                self.runtime.send(server, payload)
        self.runtime.set_timer(self.config.gossip_interval, self._gossip_tick)

    def _on_gossip(self, src: str, msg: CommitGossip) -> None:
        """Ingest a peer's delta; ask it to resync if one went missing.

        At most one request per received tick: a resync reply that still
        leaves a gap is not chased (docs/PROTOCOL.md §6).
        """
        have_through = self.snapshot_builder.on_gossip(msg)
        if have_through is not None and not msg.resync:
            self.stats.gossip_resyncs += 1
            self.runtime.send(
                src, GossipResync(partition=msg.partition, have_through=have_through)
            )

    # ------------------------------------------------------------------
    # Message entry point
    # ------------------------------------------------------------------
    def handle(self, src: str, msg: Any) -> bool:
        """Dispatch one SDUR message; False if the type is not ours."""
        if isinstance(msg, ReadRequest):
            self._on_read(src, msg)
        elif isinstance(msg, CommitRequest):
            if self._admit_commit(msg):
                self.submit(msg)
        elif isinstance(msg, Vote):
            self.ledger.on_vote(src, msg)
        elif isinstance(msg, CommitGossip):
            self._on_gossip(src, msg)
        elif isinstance(msg, GossipResync):
            if msg.partition == self.partition:
                self.runtime.send(
                    src, self.snapshot_builder.payload_since(msg.have_through, resync=True)
                )
        elif isinstance(msg, CheckpointRequest):
            self.runtime.send(
                msg.reply_to,
                CheckpointReply(partition=self.partition, blob=self.latest_checkpoint),
            )
        else:
            return self.reconfig.handle(msg)
        return True

    # ------------------------------------------------------------------
    # Admission control (docs/PROTOCOL.md §16)
    # ------------------------------------------------------------------
    def _queue_depth(self) -> int:
        """Delivery backlog gauge — delivered and not yet completed:
        stalled deliveries + pending entries."""
        depth = len(self._stalled) + len(self.pending)
        self.stats.queue_depth = depth
        if depth > self.stats.queue_depth_max:
            self.stats.queue_depth_max = depth
        return depth

    def _sync_admission_stats(self) -> None:
        self.stats.admitted = self.admission.admitted
        self.stats.shed_total = self.admission.shed_total

    def _admit_commit(self, request: CommitRequest) -> bool:
        """Admit or shed one commit request, before anything is broadcast.

        Shedding happens strictly on the ingress side: a refused
        transaction was never proposed to any partition's log, so every
        replica still delivers identical sequences.  The refusal is
        explicit — a :class:`Busy` reply — never a silent drop, so the
        client backs off instead of suspecting a crash.
        """
        decision = self.admission.admit_commit(
            request.tid, self.runtime.now(), self._queue_depth()
        )
        self._sync_admission_stats()
        if decision.admitted:
            return True
        # Every projection carries the same submitting client.
        client = next(iter(request.projections.values())).client
        self._send_busy(client, request.tid, decision)
        return False

    def _send_busy(self, reply_to: str, tid: TxnId, decision: AdmissionDecision) -> None:
        if self._obs.enabled:
            self._obs.event(
                "server.shed", self.node_id, tid, reason=decision.value
            )
        if reply_to:
            self.runtime.send(
                reply_to,
                Busy(
                    tid=tid,
                    server=self.node_id,
                    reason=decision.value,
                    retry_after=admission_policy.RETRY_AFTER,
                ),
            )

    # ------------------------------------------------------------------
    # Reads (Algorithm 2 lines 7–10)
    # ------------------------------------------------------------------
    def _on_read(self, src: str, msg: ReadRequest) -> None:
        if self.reconfig.park_read(msg):
            return
        own: list[str] = []
        elsewhere: dict[str, list[str]] = {}
        for key in msg.keys:
            partition = self.partition_map.partition_of(key)
            if partition == self.partition or self.reconfig.still_serves(key):
                own.append(key)
            else:
                elsewhere.setdefault(partition, []).append(key)
        # A read-only transaction's first read: the keys read here and
        # the keys forwarded are read at entries of this one vector.
        vector = self.snapshot_builder.vector() if msg.want_vector and own else None
        for partition, keys in elsewhere.items():
            # Keys a newer map moved: forward to the nearest replica of
            # their partition, under the same op id; it replies directly
            # to the client.
            self.stats.reads_routed += 1
            forward = msg if len(keys) == len(msg.keys) else replace(msg, keys=tuple(keys))
            if vector is not None:
                forward = replace(forward, snapshot=vector.get(partition, 0), want_vector=False)
            self.runtime.send(self.directory.nearest_server(partition, self.node_id), forward)
        if not own:
            return
        if elsewhere:
            msg = replace(msg, keys=tuple(own))
        # Reads are never shed, but each one samples the delivery backlog
        # into the ``queue_depth`` gauges.
        self._queue_depth()
        self.runtime.execute(
            self.config.costs.read * len(own), lambda: self._serve_read(msg, vector)
        )

    def _serve_read(self, msg: ReadRequest, vector: dict[str, int] | None = None) -> None:
        """Read every key of ``msg`` at one snapshot and answer in one
        response.  The snapshot is ``vector``'s own entry when the client
        asked for a vector, else the pinned one, else ``SC`` (Algorithm 2
        line 8).  A vector's own entry never exceeds ``SC``, so only a
        pinned snapshot can wait."""
        if vector is not None:
            snapshot = vector[self.partition]
        else:
            snapshot = msg.snapshot if msg.snapshot is not None else self.sc
        if snapshot > self.sc:
            # This replica lags the snapshot the client pinned elsewhere;
            # answer once the partition catches up.
            self._waiting_reads.append((snapshot, msg))
            return
        keys = msg.keys
        try:
            (version, value), *rest = [self.store.read(key, snapshot) for key in keys]
        except SnapshotTooOldError as exc:
            response = ReadResponse(
                tid=msg.tid,
                op_id=msg.op_id,
                key=keys[0],
                value=None,
                snapshot=snapshot,
                item_version=0,
                partition=self.partition,
                error=str(exc),
                epoch=self.routing.epoch,
            )
            self.runtime.send(msg.reply_to, response)
            return
        self.stats.reads_served += len(keys)
        self.runtime.send(
            msg.reply_to,
            ReadResponse(
                tid=msg.tid,
                op_id=msg.op_id,
                key=keys[0],
                value=value,
                snapshot=snapshot,
                item_version=version,
                partition=self.partition,
                epoch=self.routing.epoch,
                more=tuple(
                    (key, item_value, item_version)
                    for key, (item_version, item_value) in zip(keys[1:], rest)
                ),
                vector=vector,
            ),
        )

    def _drain_waiting_reads(self) -> None:
        if not self._waiting_reads:
            return
        sc = self.sc
        ready = [msg for snapshot, msg in self._waiting_reads if snapshot <= sc]
        self._waiting_reads = [
            (snapshot, msg) for snapshot, msg in self._waiting_reads if snapshot > sc
        ]
        for msg in ready:
            self._serve_read(msg)

    # ------------------------------------------------------------------
    # Submit (Algorithm 2 lines 41–45, with delaying)
    # ------------------------------------------------------------------
    def submit(self, request: CommitRequest) -> None:
        """Broadcast each projection to its partition, delaying the local
        broadcast of a global transaction when the technique is enabled."""
        obs = self._obs
        if obs.enabled:
            obs.event(
                "server.submit",
                self.node_id,
                request.tid,
                partitions=sorted(request.projections),
            )
        if not self.reconfig.screen(request):
            return  # parked until its epoch arrives, or rejected as stale
        projections = request.projections
        remote = [p for p in projections if p != self.partition]
        for partition in remote:
            self.fabric.abcast(partition, projections[partition])
        local_proj = projections.get(self.partition)
        if local_proj is None:
            return
        delay = self._local_broadcast_delay(remote) if remote else 0.0
        if delay > 0:
            if obs.enabled:
                obs.event("server.delay", self.node_id, request.tid, seconds=delay)
            self.runtime.set_timer(
                delay, lambda: self.fabric.abcast(self.partition, local_proj)
            )
        else:
            self.fabric.abcast(self.partition, local_proj)

    def _local_broadcast_delay(self, remote_partitions: list[str]) -> float:
        mode = self.config.delay_mode
        if mode is DelayMode.OFF:
            return 0.0
        if mode is DelayMode.FIXED:
            return self.config.delay_fixed
        # AUTO: max estimated delay to reach each remote coordinator
        # (Algorithm 2 line 44).
        return max(
            self.runtime.latency_estimate(self.directory.preferred_of(partition))
            for partition in remote_partitions
        )

    # ------------------------------------------------------------------
    # Delivery (Algorithm 2 lines 15–22)
    # ------------------------------------------------------------------
    def on_adeliver(self, instance: int, value: Any) -> None:
        """Callback wired to this partition's Paxos replica: each value is
        one CPU-model execution, charged the certify cost if it is a
        projection, that ingests it.  Grouping happens at the log: a
        loop turn's proposals share one Paxos instance (§4)."""
        self._last_instance = max(self._last_instance, instance)
        self._queued_for_cpu += 1
        cost = self.config.costs.certify if isinstance(value, TxnProjection) else 0.0
        self.runtime.execute(cost, lambda: self._ingest(value))

    def _gate_blocks(self, value: Any) -> bool:
        """Must this delivery wait for the store to reach its snapshot?

        Certification is deterministic only if, when a transaction is
        certified, everything its snapshot observed has already been
        applied here — otherwise one replica checks an old commit via the
        certification window while another still sees it pending, and
        their verdicts can diverge.  The gate only ever waits for
        transactions that are already globally decided (their commit was
        visible to the snapshot), so it cannot deadlock.

        A projection also waits while reconfiguration says so — a
        migrated state not installed yet, an epoch not learned yet
        (:meth:`ReconfigParticipant.must_wait` has the argument).
        """
        if not isinstance(value, TxnProjection):
            return False
        return self.reconfig.must_wait(value) or value.snapshot > self.sc

    def _ingest(self, value: Any) -> None:
        self._queued_for_cpu -= 1
        behind = self._applying or self._stalled or self._gate_blocks(value)
        # An install bypasses the stall queue: it is what clears the
        # migration gate the stalled transactions are waiting on.
        if behind and not isinstance(value, InstallMigration):
            self._stalled.append(value)
            if len(self._stalled) > self.stats.stall_depth_max:
                self.stats.stall_depth_max = len(self._stalled)
            self._queue_depth()
            self.reconfig.stalled_on(self._stalled[0])
            return
        self._process_value(value)
        self._pump()

    def _process_value(self, value: Any) -> None:
        """Take one ungated value in; the caller drains the pending list."""
        if isinstance(value, TxnProjection):
            self._deliver_txn(value)
        elif isinstance(value, NoopTick):
            self.dc += 1
        elif isinstance(value, AbortRequest):
            self.ledger.on_abort_request(value)
        elif isinstance(value, VoteRecord):
            self.ledger.deliver(value)
        elif not self.reconfig.deliver(value):
            raise ProtocolError(f"unexpected broadcast value {type(value).__name__}")

    def _pump(self) -> None:
        """Complete ready heads and flush gated deliveries, repeatedly."""
        while True:
            self._drain()
            if self._applying or not self._stalled:
                return
            if self._gate_blocks(self._stalled[0]):
                self.reconfig.stalled_on(self._stalled[0])
                return
            self._process_value(self._stalled.popleft())

    def _deliver_txn(self, proj: TxnProjection) -> None:
        self.dc += 1
        tid = proj.tid
        if self._completed_outcome(tid) is not None or tid in self.pending:
            return  # duplicate delivery (e.g. client retry); ignore
        obs = self._obs
        if obs.enabled:
            obs.event(
                "server.deliver",
                self.node_id,
                tid,
                partition=self.partition,
                dc=self.dc,
                is_global=proj.is_global,
            )
        if tid in self.ledger.aborted_early:
            # An abort-request won the race (§IV-F): never certify.
            self.ledger.discard(tid)
            self.stats.aborted_recovery += 1
            self._finish_aborted(proj, "recovery")
            return
        notice = self.reconfig.stale_at_delivery(proj)
        if notice is not None:
            # Routed under a superseded ownership epoch: abort, and
            # teach the client the changes it is missing.
            self._record_completed(tid, Outcome.ABORT)
            if proj.is_global:
                self.ledger.cast(proj, Outcome.ABORT)
            if proj.client and self._should_notify(proj):
                self.runtime.send(proj.client, notice)
            return
        rt = self.dc + self.reorder_threshold
        verdict = self.certifier.certify(proj)
        if obs.enabled:
            obs.event(
                "server.certify",
                self.node_id,
                tid,
                verdict=(
                    "stale" if verdict is None else ("commit" if verdict else "abort")
                ),
            )
        if not verdict:
            self._abort_uncertified(proj, verdict)
            return
        if self._completes_at_delivery(proj):
            self.stats.completed_at_delivery += 1
            self._commit(proj, self.runtime.now() if self.telemetry_enabled else 0.0)
            self._drain_waiting_reads()
            return
        deps = set(self.certifier.outcome_conflicts(proj))
        entry = PendingTxn(
            proj=proj, rt=rt, delivered_at=self.runtime.now(), deps=deps
        )
        if deps:
            # Verdict depends on whether the conflicting pending entries
            # commit; defer (append — no reorder leap for deferred txns).
            if obs.enabled:
                obs.event("server.defer", self.node_id, tid, deps=len(deps))
            self.stats.deferred += 1
        if deps or proj.is_global:
            self.pending.append(entry)
            self.ledger.admit(entry)
            if not deps:
                # Our COMMIT verdict lands in entry.votes when the ledger
                # lets it take effect, not here.
                self.ledger.cast(proj, Outcome.COMMIT)
            self._arm_noop_ticker()
        else:
            position = self.certifier.find_reorder_position(proj, self.dc)
            if position is None:
                self.stats.aborted_reorder += 1
                self._finish_aborted(proj, "reorder")
                return
            if position < len(self.pending):
                self.stats.reordered += 1
                if obs.enabled:
                    obs.event("server.reorder", self.node_id, tid, position=position)
            entry.votes[self.partition] = Outcome.COMMIT.value
            self.pending.insert(position, entry)

    def _completes_at_delivery(self, proj: TxnProjection) -> bool:
        """Is the pending list a detour for this certified projection?

        A local that meets an empty pending list has no pending conflict
        to defer on and nothing to leap: the general path inserts it at
        position 0 and ``_drain`` pops it again in the same call — when
        applying is free under the CPU model (docs/PROTOCOL.md §18.2);
        a charged apply holds ``_applying`` and replies once it is served,
        which only the pending list's head can do.  Reconfiguration
        misses nothing either: a write barrier's members are pending
        entries, so an empty list has no barrier to leave.  The sequential
        oracle (``tests/oracles/sequential_ingest.py``) answers False.
        """
        return proj.is_local and not self.pending and self._apply_is_free

    # ------------------------------------------------------------------
    # Deferred-verdict resolution
    # ------------------------------------------------------------------
    def _resolve_dependents(self, resolved_tid: TxnId, committed: bool) -> None:
        """Propagate the outcome of ``resolved_tid`` to entries deferred
        on it.  If it committed, their conflict is real and they are
        doomed; if it aborted, the dependency evaporates.  Doomed entries
        stay in the pending list until they reach the head, so relative
        commit order is independent of when votes arrive."""
        worklist: list[tuple[TxnId, bool]] = [(resolved_tid, committed)]
        while worklist:
            source_tid, source_committed = worklist.pop()
            for entry in list(self.pending):
                if source_tid not in entry.deps or entry.doomed:
                    continue
                entry.deps.discard(source_tid)
                if source_committed:
                    self._doom(entry)
                    worklist.append((entry.tid, False))
                elif not entry.deps:
                    self._decide_deferred(entry)

    def _doom(self, entry: PendingTxn) -> None:
        """Mark a pending entry as certain to abort; vote abort now."""
        entry.doomed = True
        entry.deps.clear()
        entry.votes[self.partition] = Outcome.ABORT.value
        if entry.proj.is_global:
            self.ledger.cast(entry.proj, Outcome.ABORT)

    def _doom_and_release(self, entry: PendingTxn) -> None:
        """Doom ``entry`` on the ledger's say-so (the §14.3 cycle rule)
        and release whatever deferred on it."""
        self._doom(entry)
        self._resolve_dependents(entry.tid, committed=False)

    def _decide_deferred(self, entry: PendingTxn) -> None:
        """All dependencies aborted: the deferred certification passes."""
        if entry.proj.is_global:
            self.ledger.cast(entry.proj, Outcome.COMMIT)
        else:
            entry.votes[self.partition] = Outcome.COMMIT.value

    def _abort_uncertified(self, proj: TxnProjection, verdict: bool | None) -> None:
        """Certification said no: ``None`` is a snapshot below the window
        floor, ``False`` a conflict with a committed transaction."""
        if verdict is None:
            self.stats.aborted_stale_snapshot += 1
            self._finish_aborted(proj, "stale")
        else:
            self.stats.aborted_certification += 1
            self._finish_aborted(proj, "certification")

    def _finish_aborted(self, proj: TxnProjection, reason: str) -> None:
        """Complete a transaction that failed before entering the pending list."""
        if self._obs.enabled:
            self._obs.event(
                "server.complete",
                self.node_id,
                proj.tid,
                outcome=Outcome.ABORT.value,
                reason=reason,
            )
        self._record_completed(proj.tid, Outcome.ABORT)
        if proj.is_global:
            self.ledger.cast(proj, Outcome.ABORT)
        self._notify_client(proj, Outcome.ABORT)

    # ------------------------------------------------------------------
    # Completion (Algorithm 2 lines 23–40)
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Complete head transactions while they are ready."""
        while not self._applying:
            head = self.pending.head()
            if head is None:
                return
            if head.doomed:
                self._begin_complete(head, Outcome.ABORT)
                continue
            if head.undecided:
                # Deps are always earlier entries; they must have resolved
                # by the time this one reaches the head.
                raise ProtocolError(f"{head.tid} at head with unresolved deps")
            if head.proj.is_local:
                self._begin_complete(head, Outcome.COMMIT)
                continue
            if head.has_all_votes() and self.dc >= head.rt:
                self._begin_complete(head, head.decided_outcome())
                continue
            return

    def _begin_complete(self, entry: PendingTxn, outcome: Outcome) -> None:
        """Apply-cost-aware completion of the pending-list head."""
        cost = self.config.costs.apply if outcome is Outcome.COMMIT else 0.0
        if cost > 0:
            self._applying = True

            def finish() -> None:
                self._applying = False
                self._complete(entry, outcome)
                self._pump()

            self.runtime.execute(cost, finish)
        else:
            self._complete(entry, outcome)

    def _complete(self, entry: PendingTxn, outcome: Outcome) -> None:
        """The ``complete`` function (Algorithm 2 lines 34–40)."""
        head = self.pending.head()
        if head is not entry:
            raise ProtocolError(f"completing {entry.tid} which is not the head")
        self.pending.pop_head()
        self.ledger.release(entry.tid)
        proj = entry.proj
        if outcome is Outcome.COMMIT:
            self._commit(proj, entry.delivered_at)
        else:
            if entry.cycle_victim:
                self.stats.vote_ledger_aborts += 1
            if entry.doomed:
                self.stats.aborted_deferred += 1
            else:
                self.stats.aborted_votes += 1
            if self._obs.enabled:
                self._obs.event(
                    "server.complete", self.node_id, proj.tid, outcome=outcome.value,
                    reason="deferred" if entry.doomed else "votes",
                )
            self._record_completed(proj.tid, outcome)
            self._notify_client(proj, outcome)
        self._resolve_dependents(proj.tid, committed=outcome is Outcome.COMMIT)
        self._drain_waiting_reads()
        self.reconfig.on_completed(proj.tid)

    def _commit(self, proj: TxnProjection, delivered_at: float) -> None:
        """Commit ``proj``: install it as the next version — store,
        certification window, snapshot gossip, hooks and counters — then
        record the outcome and answer the client."""
        if self._obs.enabled:
            self._obs.event(
                "server.complete", self.node_id, proj.tid, outcome=Outcome.COMMIT.value
            )
        tid = proj.tid
        is_global = proj.is_global
        version = self.sc + 1
        self.store.apply(proj.writeset, version)
        self.window.add(window_entry(tid, version, proj.readset, proj.writeset, is_global))
        self.snapshot_builder.on_local_commit(tid, version, proj.partitions, is_global)
        if self.on_commit_hook is not None:
            self.on_commit_hook(tid, self.partition, version, proj)
        if is_global:
            self.stats.committed_global += 1
        else:
            self.stats.committed_local += 1
        if self.telemetry_enabled:
            self._hist_commit_latency.observe(self.runtime.now() - delivered_at)
        self._record_completed(tid, Outcome.COMMIT)
        self._notify_client(proj, Outcome.COMMIT)

    def _completed_outcome(self, tid: TxnId) -> str | None:
        """The recorded outcome of a recently completed ``tid``, if any."""
        outcome = self._completed.get(tid.client, _NO_ROW).get(tid.seq)
        if outcome is None:
            outcome = self._completed_old.get(tid.client, _NO_ROW).get(tid.seq)
        return outcome

    def _record_completed(self, tid: TxnId, outcome: Outcome) -> None:
        row = self._completed.get(tid.client)
        if row is None:
            row = self._completed[tid.client] = {}
        if tid.seq not in row:
            self._completed_size += 1
        row[tid.seq] = outcome.value
        if self._completed_size >= self._completed_limit:
            self._completed_old, self._completed = self._completed, {}
            self._completed_size = 0
        self.admission.note_completed(tid)

    def _notify_client(self, proj: TxnProjection, outcome: Outcome) -> None:
        if proj.client and self._should_notify(proj):
            if self._obs.enabled:
                self._obs.event(
                    "server.notify", self.node_id, proj.tid, outcome=outcome.value
                )
            self.runtime.send(
                proj.client,
                OutcomeNotice(tid=proj.tid, outcome=outcome.value, partition=self.partition),
            )

    def _should_notify(self, proj: TxnProjection) -> bool:
        """Exactly one server answers the client (Figure 1's message ⑦).

        The coordinator (the server the client sent its commit to)
        replies when its own partition completes; if the coordinator
        replicates none of the involved partitions, the preferred server
        of the first involved partition replies instead.  With
        ``notify_all_replicas`` every completing server replies, which
        failure tests use so a crashed coordinator cannot mute outcomes.
        """
        if self.config.notify_all_replicas:
            return True
        coordinator = proj.coordinator
        if coordinator:
            try:
                coord_partition = self.directory.partition_of_server(coordinator)
            except ConfigurationError:
                coord_partition = None
            if coord_partition is not None and coord_partition in proj.partitions:
                return self.node_id == coordinator
        return self.node_id == self.directory.preferred_of(min(proj.partitions))

    # ------------------------------------------------------------------
    # Liveness: no-op ticks for the reorder threshold
    # ------------------------------------------------------------------
    def _threshold_blocked(self) -> bool:
        return any(entry.rt > self.dc for entry in self.pending.globals_pending())

    def _arm_noop_ticker(self) -> None:
        if self._noop_armed or self.reorder_threshold <= 0:
            return
        if not self._threshold_blocked():
            return
        self._noop_armed = True
        self.runtime.set_timer(NOOP_INTERVAL, self._noop_tick)

    def _noop_tick(self) -> None:
        self._noop_armed = False
        if not self._threshold_blocked():
            return
        if self.is_partition_leader():
            self.fabric.abcast(self.partition, NoopTick())
            self.stats.noops_sent += 1
        self._noop_armed = True
        self.runtime.set_timer(NOOP_INTERVAL, self._noop_tick)

    # ------------------------------------------------------------------
    # Checkpointing (bounded recovery; see repro.core.checkpoint)
    # ------------------------------------------------------------------
    def _checkpoint_blocker(self) -> str | None:
        """What keeps this replica from a quiescent point, if anything."""
        if self.pending:
            return f"{len(self.pending)} transaction(s) in the pending list"
        if self._stalled:
            return f"{len(self._stalled)} stalled delivery(ies)"
        if self._applying:
            return "a commit is being applied"
        # Un-ingested deliveries block quiescence: a checkpoint claims
        # coverage through _last_instance, which they count toward.
        if self._queued_for_cpu:
            return f"{self._queued_for_cpu} delivery(ies) queued for the CPU"
        return None

    def _checkpoint_tick(self) -> None:
        if self._checkpoint_blocker() is None and self.sc > 0:
            self.take_checkpoint()
        self.runtime.set_timer(self.config.checkpoint_interval, self._checkpoint_tick)

    def take_checkpoint(self) -> ServerCheckpoint:
        """Capture delivery-path state; requires a quiescent point."""
        blocker = self._checkpoint_blocker()
        if blocker is not None:
            raise ProtocolError(f"checkpoint requires a quiescent point: {blocker}")
        checkpoint = ServerCheckpoint(
            partition=self.partition,
            next_instance=self._last_instance + 1,
            sc=self.sc,
            dc=self.dc,
            chains={
                key: tuple(chain) for key, chain in self.store.dump().items()
            },
            gc_horizon=self.store.gc_horizon,
            window=window_to_wire(self.window),
            window_floor=self.window.floor,
        )
        self.latest_checkpoint = checkpoint.to_bytes()
        self.stats.checkpoints += 1
        if self._obs.enabled:
            self._obs.event(
                "server.checkpoint", self.node_id, None,
                next_instance=checkpoint.next_instance, sc=checkpoint.sc,
            )
        if self.checkpoint_hook is not None:
            self.checkpoint_hook(checkpoint.next_instance)
        return checkpoint

    def restore_checkpoint(self, checkpoint: ServerCheckpoint | bytes) -> None:
        """Install a checkpoint into a freshly constructed server.

        Must run before the Paxos replica replays its WAL suffix (the
        harness and tests order it so); the replica's delivery cursor
        must be advanced to ``checkpoint.next_instance`` separately when
        recovering without a compacted WAL (state transfer).
        """
        if isinstance(checkpoint, (bytes, bytearray)):
            checkpoint = ServerCheckpoint.from_bytes(bytes(checkpoint))
        if checkpoint.partition != self.partition:
            raise ProtocolError(
                f"checkpoint is for {checkpoint.partition!r}, not {self.partition!r}"
            )
        if self.sc != 0 or self.dc != 0 or len(self.pending):
            raise ProtocolError("restore_checkpoint requires a fresh server")
        self.store.restore(
            {key: list(chain) for key, chain in checkpoint.chains.items()},
            current_version=checkpoint.sc,
            gc_horizon=checkpoint.gc_horizon,
        )
        self.dc = checkpoint.dc
        self.window = window_from_wire(
            checkpoint.window, self.config.history_window, checkpoint.window_floor
        )
        self._attach_certifier()
        self._last_instance = checkpoint.next_instance - 1
        self.latest_checkpoint = checkpoint.to_bytes()

    def _attach_certifier(self) -> None:
        """(Re)bind the certifier to ``self.window``.

        Runs at construction and whenever the window is replaced
        wholesale (checkpoint restore, migration install): the key
        index is rebuilt from the window's records and the pending
        list, so verdicts keep matching the scan oracle's."""
        self.certifier = IndexedCertifier(self.window, self.pending, self.stats)

    def _replace_window(self, floor: int) -> None:
        """Start an empty window at ``floor`` (a migration installed
        state whose earlier commits this replica never certified)."""
        self.window = CertificationWindow(self.config.history_window, floor=floor)
        self._attach_certifier()
