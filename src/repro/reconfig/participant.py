"""The server side of a live split or merge: one state machine per replica.

One :class:`ReconfigParticipant` lives inside each ``SdurServer``
(``server.reconfig``) and owns everything docs/PROTOCOL.md §13 and §17
ask of a replica: the epoch switch at a log position, the write barrier
and key-range capture, the split and merge installs, eviction, the
``ConfigSnapshot`` push and ``GetConfig`` pull, and the refusal of
wrong-epoch work.  The server keeps what is Algorithm 2's — the stall
queue, the waiting reads, the certification window, the store — and
calls the participant at these fixed points and nowhere else:

==================  ====================================================
``submit``          :meth:`screen` — pass, park until the epoch arrives,
                    or reject a stale commit request
``_gate_blocks``    :meth:`must_wait` — install pending or epoch unlearned
``_deliver_txn``    :meth:`stale_at_delivery` — the notice for a
                    projection routed under a superseded ownership
``_ingest`` /       :meth:`deliver` — ``BeginSplit``, ``InstallMigration``
``_process_value``  (which ``_ingest`` lets bypass the stall queue: it is
                    what clears the gate) and ``FinishSplit``
``_ingest`` /       :meth:`stalled_on` — the stall queue's head; arms the
``_pump``           config pull while that head is epoch-gated
``_complete``       :meth:`on_completed` — one barrier member less
``_on_read``        :meth:`park_read` (the whole request) and, per key,
                    :meth:`still_serves` (a retiring merge source keeps
                    its keys until eviction)
``handle``          :meth:`handle` — ``GetConfig`` / ``ConfigSnapshot``
``await_migration`` :meth:`await_install` — the harness, on a split child
==================  ====================================================

Everything it needs arrives as a constructor argument, never the server,
so the state machine runs without one
(``tests/reconfig/test_participant.py``), exactly as the vote ledger does.
:mod:`repro.reconfig.messages` has the three log-ordered steps both
kinds of change share.  Every epoch switch of the own partition happens
inside :meth:`deliver`, at a position of the partition's own log (§IV-G's
invariant, extended); what arrives out of band (:meth:`handle`) only ever
teaches changes that leave the own keyspace alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.messages import CommitRequest, ReadRequest
from repro.core.partitioning import PartitionMap
from repro.core.pending import PendingList
from repro.core.snapshots import GlobalSnapshotBuilder
from repro.core.transaction import TxnId, TxnProjection
from repro.obs.recorder import NULL_RECORDER
from repro.reconfig.epochs import ConfigChange, VersionedRouting
from repro.reconfig.messages import (
    BeginSplit,
    ConfigSnapshot,
    FinishSplit,
    GetConfig,
    InstallMigration,
    StaleEpochNotice,
)
from repro.runtime.base import Runtime
from repro.storage.mvstore import MultiVersionStore

#: Period of the ``GetConfig`` pull while a delivery is stalled on an
#: epoch this replica has not learned (its push may have been lost).
CONFIG_CATCHUP_INTERVAL = 0.25

Chains = dict[str, list[tuple[int, object]]]


def moved_chains(dump: Chains, partition_map: PartitionMap, new_partition: str) -> Chains:
    """The subset of a store dump that routes to ``new_partition``."""
    return {
        key: chain
        for key, chain in dump.items()
        if partition_map.partition_of(key) == new_partition
    }


def flatten_chains(chains: Chains) -> dict[str, object]:
    """Latest value per key, dropping version history.

    Used by the merge install: the absorbed partition's version numbers
    are meaningless in the absorbing partition's counter sequence, so
    only the newest value of each chain survives the move (older
    snapshots abort conservatively behind the raised gc horizon).
    """
    return {key: chain[-1][1] for key, chain in chains.items() if chain}


def replay(parked: list, callback: Callable[[Any], None]) -> None:
    """Feed ``parked``'s items to ``callback``, emptying it first (the
    callback may park an item again)."""
    items = parked[:]
    parked.clear()
    for item in items:
        callback(item)


@dataclass
class SplitSource:
    """A source replica's in-flight migration (split *or* merge; for a
    merge ``moved_keys`` ends up covering the whole store)."""

    change: ConfigChange
    #: Transactions pending at ``BeginSplit`` delivery, not yet completed.
    barrier: set[TxnId] = field(default_factory=set)
    captured: bool = False
    #: Keys shipped to the new partition (evicted at ``FinishSplit``).
    moved_keys: frozenset[str] = frozenset()
    #: Merge only: the key routing as of the epoch *before* the change
    #: (see :meth:`ReconfigParticipant.still_serves`).
    retiring_map: PartitionMap | None = None


class ReconfigParticipant:
    """One replica's part in splits and merges (see the module docstring).

    ``fabric`` orders the protocol's values (``abcast``) and joins a split
    child's group (``add_group``); ``stats`` receives ``aborted_epoch``.
    ``replace_window(floor)`` installs an empty certification window
    floored at a version; ``partition_learned()`` tells the ledger the
    directory changed; ``resubmit`` / ``reroute_read`` run a parked
    request / read through the server again; ``requeue_waiting_reads()``
    re-routes the server's snapshot-waiting reads, ``drain_waiting_reads()``
    serves those the store caught up with; ``pump()`` retries the stall
    queue; ``merge_hook()`` returns the history checker's hook, if any.
    """

    def __init__(
        self,
        runtime: Runtime,
        partition: str,
        routing: VersionedRouting,
        store: MultiVersionStore,
        pending: PendingList,
        snapshot_builder: GlobalSnapshotBuilder,
        fabric: Any,
        stats: Any,
        *,
        replace_window: Callable[[int], None],
        partition_learned: Callable[[], None],
        is_leader: Callable[[], bool],
        resubmit: Callable[[CommitRequest], None],
        reroute_read: Callable[[str, ReadRequest], None],
        requeue_waiting_reads: Callable[[], None],
        drain_waiting_reads: Callable[[], None],
        pump: Callable[[], None],
        merge_hook: Callable[[], Callable[[str, int, frozenset[str]], None] | None],
    ) -> None:
        self.runtime = runtime
        self.node_id = runtime.node_id
        self._obs = getattr(runtime, "obs", NULL_RECORDER)
        self.partition = partition
        self.routing = routing
        self.store = store
        self.pending = pending
        self.snapshot_builder = snapshot_builder
        self.fabric = fabric
        self.stats = stats
        self._replace_window = replace_window
        self._partition_learned = partition_learned
        self._is_leader = is_leader
        self._resubmit = resubmit
        self._reroute_read = reroute_read
        self._requeue_waiting_reads = requeue_waiting_reads
        self._drain_waiting_reads = drain_waiting_reads
        self._pump = pump
        self._merge_hook = merge_hook
        #: Source side: the change in flight (barrier + captured range).
        self._migration: SplitSource | None = None
        #: Split-child side: nothing is processed until the migrated
        #: state is installed (:meth:`await_install`).
        self._awaiting_install = False
        #: Reads parked while awaiting the install.
        self._parked_reads: list[ReadRequest] = []
        #: Commit requests tagged with an epoch still in flight to this
        #: node; resubmitted once it arrives.
        self._premature: list[CommitRequest] = []
        #: The epoch-gated stall head the config pull is armed for.
        self._gated_head: TxnProjection | None = None

    def await_install(self) -> None:
        """A replica of a freshly split-off partition: deliveries stall and
        reads park until its ``InstallMigration`` is delivered."""
        self._awaiting_install = True

    # ------------------------------------------------------------------
    # Fixed points on the request and delivery paths
    # ------------------------------------------------------------------
    def screen(self, request: CommitRequest) -> bool:
        """May ``request`` be broadcast now?  If not it was dealt with."""
        routing = self.routing
        for proj in request.projections.values():
            if proj.epoch > routing.epoch:
                # The client routed under a directory change that has not
                # reached this node yet; resubmit once it arrives.
                self._premature.append(request)
                return False
            if proj.epoch < routing.ownership_epoch(proj.partition):
                # Stale routing: some key may have moved.  Reject before
                # anything is broadcast; one notice carries the fix.
                if proj.client:
                    self.runtime.send(proj.client, self._stale_notice(proj))
                if self._obs.enabled:
                    self._obs.event(
                        "reconfig.reject_epoch", self.node_id, None,
                        txn=str(proj.tid), epoch=proj.epoch,
                    )
                return False
        return True

    def must_wait(self, proj: TxnProjection) -> bool:
        """The reconfiguration arms of the delivery gate.

        A replica of a freshly split-off partition gates every
        transaction until its migrated state is installed — at the
        ``InstallMigration`` delivery, the same log position everywhere.
        A projection carrying an epoch this replica has not learned
        stalls too: the window must reflect every change the epoch
        implies *before* the transaction is checked (a merge install
        would bury an epoch-N write that committed ahead of it).  The
        stall is FIFO and cannot deadlock (docs/PROTOCOL.md §17.2): an
        affected partition's own change sits *earlier* in its log than
        any projection carrying the new epoch, ``InstallMigration``
        bypasses the stall queue, and unaffected replicas learn changes
        out of band (:meth:`stalled_on` pulls if the push was lost).
        """
        return self._awaiting_install or proj.epoch > self.routing.epoch

    def stale_at_delivery(self, proj: TxnProjection) -> StaleEpochNotice | None:
        """The notice for a delivered wrong-epoch projection, else None.

        Routed under an epoch older than this partition's last ownership
        change, the projection may misplace moved keys and must abort —
        deterministically: that epoch changes only at a position of this
        partition's own log.  The notice carries the changes the client is
        missing, so one retry suffices (under a fresh id: servers
        de-duplicate deliveries by tid, and the old one is burned).
        """
        if proj.epoch >= self.routing.ownership_epoch(self.partition):
            return None
        self.stats.aborted_epoch += 1
        return self._stale_notice(proj)

    def _stale_notice(self, proj: TxnProjection) -> StaleEpochNotice:
        return StaleEpochNotice(
            tid=proj.tid,
            partition=self.partition,
            epoch=self.routing.epoch,
            changes=self.routing.changes_since(proj.epoch),
        )

    def on_completed(self, tid: TxnId) -> None:
        """``tid`` left the pending list; the barrier may have drained."""
        migration = self._migration
        if migration is not None and not migration.captured:
            migration.barrier.discard(tid)
            self._maybe_capture()

    def still_serves(self, key: str) -> bool:
        """Is this a merging-away replica that still holds ``key``?

        Between ``BeginSplit`` and ``FinishSplit`` of a merge the key
        routes to the absorbing partition, which may not have installed
        the state yet; forwarding there would ping-pong the read back.
        The chains are still here — serve locally until eviction.
        """
        migration = self._migration
        return (
            migration is not None
            and migration.retiring_map is not None
            and migration.retiring_map.partition_of(key) == self.partition
        )

    def park_read(self, read: ReadRequest) -> bool:
        """Park ``read`` — all its keys, before any is routed — while the
        key range is still in flight from the source partition; the
        install replays it through the server, which then serves its own
        keys and forwards the rest.  False once the replica is open."""
        if self._awaiting_install:
            self._parked_reads.append(read)
        return self._awaiting_install

    # ------------------------------------------------------------------
    # Log-ordered steps
    # ------------------------------------------------------------------
    def deliver(self, value: Any) -> bool:
        """Apply one delivered protocol value; False if it is not ours."""
        if isinstance(value, BeginSplit):
            self._begin(value.change)
        elif isinstance(value, InstallMigration):
            self._install(value)
        elif isinstance(value, FinishSplit):
            self._finish(value.change)
        else:
            return False
        return True

    def _begin(self, change: ConfigChange) -> None:
        """Source-partition replicas switch epochs at this log position.

        From here on projections tagged with an older epoch abort (the
        per-range write fence) while new-epoch transactions on the
        retained range keep committing.  The barrier — what is pending at
        this position, carrying valid older epochs — may still write
        moving keys, so capture waits for exactly those to complete.
        """
        routing = self.routing
        pre_map = routing.partition_map
        if not routing.apply(change):
            return  # duplicate proposal of an already-applied change
        self._config_advanced(change)
        self._migration = SplitSource(
            change=change,
            barrier={entry.tid for entry in self.pending},
            retiring_map=pre_map if change.is_merge else None,
        )
        if self._obs.enabled:
            self._obs.event(
                "reconfig.begin_merge" if change.is_merge else "reconfig.begin_split",
                self.node_id, None, epoch=change.new_epoch,
                new_partition=change.new_partition, barrier=len(self._migration.barrier),
            )
        # Push the new directory to the other partitions (idempotent at
        # receivers).  A split child's members were constructed with it; a
        # merge's absorbing replicas apply it at their own InstallMigration.
        directory = routing.directory
        snapshot = ConfigSnapshot(epoch=routing.epoch, changes=tuple(routing.changes))
        skip = set(directory.servers_of(self.partition)) | set(change.new_members)
        if change.is_merge:
            skip |= set(directory.servers_of(change.new_partition))
        for server in directory.all_servers():
            if server not in skip:
                self.runtime.send(server, snapshot)
        # Snapshot-waiting reads for moved keys must re-route.
        self._requeue_waiting_reads()
        self._maybe_capture()

    def _maybe_capture(self) -> None:
        """Ship the moving key range once the write barrier drains.

        Every replica computes the same capture at the same store version
        (the barrier derives from the shared log); only the partition
        leader proposes the install, to avoid duplicate proposals.  The
        captured chains keep their original commit versions, so old
        snapshots remain readable at a split's new partition.
        """
        migration = self._migration
        if migration is None or migration.captured or migration.barrier:
            return
        migration.captured = True
        change = migration.change
        store = self.store
        chains = moved_chains(store.dump(), self.routing.partition_map, change.new_partition)
        migration.moved_keys = frozenset(chains)
        if self._obs.enabled:
            self._obs.event(
                "reconfig.capture_migration", self.node_id, None,
                keys=len(chains), source_sc=store.current_version,
            )
        if self._is_leader():
            # A merge ships the older changes too, so an absorbing
            # replica that missed their push can close the epoch gap.
            prior = tuple(c for c in self.routing.changes if c.new_epoch < change.new_epoch)
            self.fabric.abcast(
                change.new_partition,
                InstallMigration(
                    change=change,
                    chains=chains,
                    source_sc=store.current_version,
                    gc_horizon=store.gc_horizon,
                    prior_changes=prior if change.is_merge else (),
                ),
            )

    def _install(self, msg: InstallMigration) -> None:
        """Receiving replicas take over the moved range and open up.

        Either way the certification window floors where the store
        resumes: a snapshot predating the migration aborts conservatively
        (the source served its reads; this window never saw its commits).
        """
        change = msg.change
        store = self.store
        if change.is_merge:
            # This log position is where absorbing replicas apply the
            # merge change itself — like a split source's epoch bump at
            # ``BeginSplit`` — after closing any gap a lost push left.
            for prior in sorted(msg.prior_changes, key=lambda c: c.new_epoch):
                if prior.new_epoch < change.new_epoch and self.routing.apply(prior):
                    self._config_advanced(prior)
            if not self.routing.apply(change):
                return  # duplicate delivery
            # The absorbed versions come from another counter sequence:
            # flatten the chains into one synthetic commit above *both*
            # counters and raise the gc horizon to it, so an older snapshot
            # aborts rather than reading absorbed keys as absent.
            floor = max(store.current_version, msg.source_sc) + 1
            store.apply(flatten_chains(msg.chains), floor)
            store.collect_garbage(floor)
            hook = self._merge_hook()
            if hook is not None:
                hook(self.partition, floor, frozenset(msg.chains))
        else:
            if not self._awaiting_install:
                return  # duplicate delivery
            floor = msg.source_sc  # chains keep their commit versions
            store.restore(
                {key: list(chain) for key, chain in msg.chains.items()},
                current_version=floor,
                gc_horizon=msg.gc_horizon,
            )
        self._replace_window(floor)
        self.snapshot_builder.absorb_migration(floor)
        if change.is_merge:
            if self._obs.enabled:
                self._obs.event(
                    "reconfig.install_merge", self.node_id, None,
                    keys=len(msg.chains), version=floor, absorbed=change.source,
                )
            self._config_advanced(change)
            self._drain_waiting_reads()
        else:
            self._awaiting_install = False
            if self._obs.enabled:
                self._obs.event(
                    "reconfig.install_migration", self.node_id, None,
                    keys=len(msg.chains), source_sc=floor,
                )
            replay(self._parked_reads, lambda read: self._reroute_read(read.reply_to, read))
        if self._is_leader():
            self.fabric.abcast(change.source, FinishSplit(change=change))

    def _finish(self, change: ConfigChange) -> None:
        """Source replicas evict the migrated chains (now owned elsewhere)."""
        migration = self._migration
        if migration is None or migration.change.new_epoch != change.new_epoch:
            return  # duplicate or stale
        dropped = self.store.evict_keys(migration.moved_keys)
        self._migration = None
        is_merge = migration.change.is_merge
        if is_merge:
            # Everything is gone; reads waiting here now forward to the
            # absorbing partition, which has installed the state.
            self._requeue_waiting_reads()
        if self._obs.enabled:
            self._obs.event(
                "reconfig.finish_merge" if is_merge else "reconfig.finish_split",
                self.node_id, None, evicted=dropped,
            )

    def _config_advanced(self, change: ConfigChange) -> None:
        """Housekeeping common to every newly applied directory change.

        A merge creates no partition: there is no group to join and no
        snapshot-vector column to add (the directory keeps the absorbed
        partition addressable for in-flight votes).
        """
        if not change.is_merge:
            self.fabric.add_group(
                change.new_partition, list(change.new_members), change.new_preferred
            )
            self.snapshot_builder.add_partition(change.new_partition)
        self._partition_learned()
        replay(self._premature, self._resubmit)

    # ------------------------------------------------------------------
    # Changes learned outside the own log
    # ------------------------------------------------------------------
    def handle(self, msg: Any) -> bool:
        """Answer ``GetConfig``; learn the directory changes a
        ``ConfigSnapshot`` pushes or returns; False if ``msg`` is neither.

        Learning is safe for unaffected partitions: their ownership epoch
        is untouched, so verdicts cannot change — only routing metadata
        (vote fan-out, read forwarding) improves.  A change affecting
        *this* partition is never applied here: a source switches at its
        ``BeginSplit`` log position, a merge target at its
        ``InstallMigration``; applying early would fork the barrier (or the
        install point) across replicas.  The loop breaks instead of
        skipping — later changes would leave an epoch gap.
        """
        if isinstance(msg, GetConfig):
            changes = self.routing.changes_since(msg.since_epoch)
            self.runtime.send(msg.reply_to, ConfigSnapshot(self.routing.epoch, changes))
            return True
        if not isinstance(msg, ConfigSnapshot):
            return False
        for change in sorted(msg.changes, key=lambda c: c.new_epoch):
            if change.new_epoch <= self.routing.epoch:
                continue
            if change.source == self.partition or (
                change.is_merge and change.new_partition == self.partition
            ):
                break
            if self.routing.apply(change):
                self._config_advanced(change)
                if self._obs.enabled:
                    self._obs.event(
                        "reconfig.config_learned", self.node_id, None, epoch=change.new_epoch
                    )
        # Learned epochs may unblock the stall queue's head.
        self._pump()
        return True

    def stalled_on(self, head: Any) -> None:
        """The server's stall queue is headed by ``head``: pull missing
        directory changes while that head waits on an unlearned epoch.

        Normally the change arrives pushed (or, at an absorbing partition,
        as its own ``InstallMigration``); the timer is the backstop for a
        lost push.  An epoch-gated head cannot leave the queue before its
        epoch is learned, so the tick re-examines the value it was armed for.
        """
        if not isinstance(head, TxnProjection) or head.epoch <= self.routing.epoch:
            return
        if self._gated_head is None:  # else the timer is already armed
            self.runtime.set_timer(CONFIG_CATCHUP_INTERVAL, self._config_catchup_tick)
        self._gated_head = head

    def _config_catchup_tick(self) -> None:
        head, self._gated_head = self._gated_head, None
        if head.epoch <= self.routing.epoch:
            return
        directory = self.routing.directory
        request = GetConfig(reply_to=self.node_id, since_epoch=self.routing.epoch)
        own = set(directory.servers_of(self.partition))
        for server in directory.all_servers():
            if server not in own:
                self.runtime.send(server, request)
        if self._obs.enabled:
            self._obs.event(
                "reconfig.config_catchup", self.node_id, None, epoch=self.routing.epoch
            )
        self.stalled_on(head)
