"""Sharded certification executor: key-range conflict checks behind a
delivery-order merge.

Certification of a delivered batch is embarrassingly parallel *by key*:
every committed-window test is a disjunction of per-key predicates
("was key k written/read after the snapshot?"), so hash-partitioning
the key space into N shards and giving each shard its own
:class:`~repro.core.certindex.KeyConflictIndex` slice makes the checks
for one batch independent of each other — provided the *verdicts* are then
merged back in strict delivery order, so the state trajectory stays a
pure function of the log ("Parallel Deferred Update Replication",
PAPERS.md).

How the pieces fit (docs/PROTOCOL.md §19):

* **routing** — :func:`shard_of` maps a key to a shard with a seeded
  CRC-32 (``hash()`` is randomized per process, which would desync
  replicas).  Shard maps are a *disjoint partition* of the key space,
  so the union of per-shard answers equals the unsharded disjunction.
* **mirroring** — :class:`_ShardFanout` is the window's mutation
  listener: a committed record's write/read keys are sliced per shard;
  a *bloom* readset cannot be split by key, so the whole digest is
  owned by shard ``version % N`` and probed there with a transaction's
  full write set.
* **phase 1** — :meth:`ShardedCertifier.begin_run` builds per-shard
  task lists for a delivered run and probes every shard against the
  window as it stands *before* the run (read-only on the indices).
* **phase 2 (merge)** — the server replays the run in delivery order
  through :meth:`ShardedCertifier.certify`: a member commits iff no
  shard flagged it *and* the intra-run carry-forward set (PROTOCOL.md
  §18.3) does not hit its readset.  Window mutations happen only here,
  on the delivery path, so sharding is invisible to the protocol.

The shards run one after another on the calling thread.  A thread pool
of pure-Python dict probes under the GIL was timed and lost to this
loop by up to 2.3x (docs/PERFORMANCE.md §3), so it was deleted: the
executor is the deterministic *instrument* behind BENCH_shardcert and
ablation A8 — the CPU cost model (:meth:`ShardedCertifier.batch_cost`)
prices what key-range parallelism would be worth — not a multi-core
backend.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.core.certifier import CertificationWindow, CommittedRecord
from repro.core.certindex import (
    CertifierCounters,
    IndexedCertifier,
    KeyConflictIndex,
    PendingQueryMixin,
)
from repro.core.pending import PendingList
from repro.core.transaction import TxnId, TxnProjection
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ShardExecConfig:
    """Tuning for the sharded certification executor (PROTOCOL.md §19)."""

    #: Number of key-range shards (hash partitions of the key space).
    num_shards: int = 4
    #: Seed for the CRC-32 key router.  Must agree across replicas only
    #: in the sense that it is per-server-local state — verdicts do not
    #: depend on it — but keeping it in config makes runs reproducible.
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.hash_seed < 0:
            raise ConfigurationError(
                f"hash_seed must be >= 0, got {self.hash_seed}"
            )


def shard_of(key: str, num_shards: int, seed: int = 0) -> int:
    """Stable key → shard routing.

    Seeded CRC-32 rather than ``hash()``: Python randomizes string
    hashes per process, and the shard map must be identical across a
    checkpoint restore (the indices are rebuilt from the window, so a
    changed map would still be *correct*, just not reproducible).
    """
    return zlib.crc32(key.encode("utf-8"), seed) % num_shards


class _ShardFanout:
    """WindowListener that slices committed records across shard indices.

    Write and exact-read keys go to the shard that owns them; a bloom
    readset is routed whole to shard ``version % N`` (it cannot be
    split by key) and probed there with a transaction's full write set.
    Evictions mirror additions, so each shard slice retires with the
    record — a bloom digest is popped exactly when its own record
    leaves the window, because the window evicts in version order.

    While a pre-certified run is open, ``carry`` also collects the keys
    its commits write (the intra-run carry-forward set, PROTOCOL.md
    §19.2); it is ``None`` outside a run.
    """

    __slots__ = ("_shards", "_num", "_seed", "carry")

    def __init__(
        self, shards: list[KeyConflictIndex], num_shards: int, seed: int
    ) -> None:
        self._shards = shards
        self._num = num_shards
        self._seed = seed
        self.carry: set[str] | None = None

    def group(self, keys) -> dict[int, list[str]]:
        groups: dict[int, list[str]] = {}
        num = self._num
        seed = self._seed
        for key in keys:
            groups.setdefault(zlib.crc32(key.encode("utf-8"), seed) % num, []).append(key)
        return groups

    def record_added(self, record: CommittedRecord) -> None:
        version = record.version
        readset = record.readset
        if self.carry is not None:
            self.carry.update(record.ws_keys)
        ws_groups = self.group(record.ws_keys)
        if readset.is_exact:
            read_groups = self.group(readset.keys)
            for shard_id in ws_groups.keys() | read_groups.keys():
                self._shards[shard_id].add_committed_slice(
                    version,
                    ws_groups.get(shard_id, ()),
                    read_groups.get(shard_id, ()),
                    None,
                )
        else:
            bloom_shard = version % self._num
            for shard_id in ws_groups.keys() | {bloom_shard}:
                self._shards[shard_id].add_committed_slice(
                    version,
                    ws_groups.get(shard_id, ()),
                    None,
                    readset if shard_id == bloom_shard else None,
                )

    def record_evicted(self, record: CommittedRecord) -> None:
        version = record.version
        readset = record.readset
        ws_groups = self.group(record.ws_keys)
        if readset.is_exact:
            read_groups = self.group(readset.keys)
            for shard_id in ws_groups.keys() | read_groups.keys():
                self._shards[shard_id].evict_committed_slice(
                    version,
                    ws_groups.get(shard_id, ()),
                    read_groups.get(shard_id, ()),
                    drop_blooms=False,
                )
        else:
            bloom_shard = version % self._num
            for shard_id in ws_groups.keys() | {bloom_shard}:
                self._shards[shard_id].evict_committed_slice(
                    version,
                    ws_groups.get(shard_id, ()),
                    (),
                    drop_blooms=shard_id == bloom_shard,
                )


#: Task kinds for phase-1 shard probes.
_FWD_KEYS, _FWD_BLOOM, _BWD = 0, 1, 2


@dataclass(slots=True)
class ShardPlan:
    """Phase-1 result for one delivered run (pre-batch window state).

    ``conflicts[i]`` is True iff some shard flagged transaction *i*
    against the window as it stood when the batch started; intra-batch
    conflicts are the merge loop's carry-forward set.  ``shard_units``
    is the per-shard work (key probes) the plan executed — the
    imbalance gauge and the occupancy histogram come from it.
    ``merge_ns`` is the wall time phase 2 took, filled in when the run
    ends.
    """

    conflicts: list[bool]
    shard_units: list[int] = field(default_factory=list)
    total_units: int = 0
    merge_ns: int = 0


class ShardedCertifier(PendingQueryMixin):
    """Certification strategy that fans committed-window checks out over
    key-range shards.

    Single-transaction ``certify`` (the unbatched delivery path and the
    global-transaction path) probes only the shards a transaction's
    keys touch — it is already in delivery order, so there is nothing
    to merge.  A delivered local run is bracketed by ``begin_run`` /
    ``end_run``: phase 1 probes every shard once for the whole run, and
    ``certify`` then answers each member from that plan, the live floor
    and the carry-forward set.

    The pending list stays *unsharded* (``pending_index``): pending
    entries are few and churn on every delivery, so slicing them buys
    nothing; the :class:`PendingQueryMixin` queries are byte-identical
    to :class:`~repro.core.certindex.IndexedCertifier`'s.
    """

    def __init__(
        self,
        window: CertificationWindow,
        pending: PendingList,
        counters: CertifierCounters | None = None,
        *,
        config: ShardExecConfig,
    ) -> None:
        self.window = window
        self.pending = pending
        self.counters = counters if counters is not None else CertifierCounters()
        self.config = config
        self.num_shards = config.num_shards
        self.hash_seed = config.hash_seed
        self.shards = [
            KeyConflictIndex(window.capacity, floor=window.floor)
            for _ in range(config.num_shards)
        ]
        self._fanout = _ShardFanout(self.shards, config.num_shards, config.hash_seed)
        self.pending_index = KeyConflictIndex(window.capacity, floor=window.floor)
        # Rebuild from the (possibly restored) window and pending list —
        # the checkpoint carries no index state, sharded or otherwise.
        for record in window.records_after(-1):
            self._fanout.record_added(record)
        for entry in pending:
            self.pending_index.entry_added(entry)
        window.listener = self._fanout
        pending.listener = self.pending_index
        #: The open run's phase-1 plan and its verdicts by transaction
        #: id; ``None`` outside ``begin_run`` … ``end_run``.
        self._plan: ShardPlan | None = None
        self._run_conflicts: dict[TxnId, bool] | None = None
        self._merge_started = 0

    # ------------------------------------------------------------------
    # Algorithm 2 line 49
    # ------------------------------------------------------------------
    def certify(self, txn: TxnProjection) -> bool | None:
        # The floor is read live at each member's turn: a mid-run
        # eviction that invalidates a phase-1 verdict also drags the
        # floor past that member's snapshot, so it aborts *stale* —
        # exactly what the sequential path, hitting the same floor
        # first, reports.
        if txn.snapshot < self.window.floor:
            return None
        conflicts = self._run_conflicts
        if conflicts is not None:
            # Phase 2.  Reading a carried key *is* a forward conflict
            # against the in-run commit that wrote it: every in-run
            # version exceeds every member's snapshot (the server only
            # admits ``snapshot <= sc`` at run start).  Backward checks
            # need no replay — run members are local.
            carry = self._fanout.carry
            return not (
                conflicts[txn.tid] or (carry and txn.readset.contains_any(carry))
            )
        counters = self.counters
        fallbacks_before = counters.index_fallbacks
        verdict = not self._committed_conflict(txn)
        self._count_query(fallbacks_before)
        return verdict

    def _committed_conflict(self, txn: TxnProjection) -> bool:
        snapshot = txn.snapshot
        counters = self.counters
        shards = self.shards
        readset = txn.readset
        if readset.is_exact:
            for shard_id, keys in self._fanout.group(readset.keys).items():
                counters.shard_certify_calls += 1
                if shards[shard_id].forward_conflict_keys(keys, snapshot):
                    return True
        else:
            # A bloom readset may cover keys in any shard: probe every
            # shard's write segments (their union is every write).
            for shard in shards:
                counters.shard_certify_calls += 1
                if shard.bloom_forward_conflict(readset, snapshot):
                    return True
        if txn.is_global and txn.writeset:
            ws_keys = txn.ws_keys
            ws_groups = self._fanout.group(ws_keys)
            for shard_id, keys in ws_groups.items():
                counters.shard_certify_calls += 1
                if shards[shard_id].backward_conflict_keys(
                    keys, snapshot, counters, probe_keys=ws_keys
                ):
                    return True
            # Bloom-readset records live in one shard each, chosen by
            # version — a shard none of txn's own keys map to may still
            # hold a digest covering them.
            for shard_id, shard in enumerate(shards):
                if shard_id in ws_groups or not shard.has_bloom_records():
                    continue
                counters.shard_certify_calls += 1
                if shard.backward_conflict_keys(
                    (), snapshot, counters, probe_keys=ws_keys
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # A delivered run of fast-path locals (docs/PROTOCOL.md §19.2)
    # ------------------------------------------------------------------
    def begin_run(self, projs: list[TxnProjection]) -> None:
        """Phase 1 for ``projs``; ``certify`` answers from it until
        :meth:`end_run`."""
        plan = self.precertify_batch(projs)
        if plan.total_units:
            imbalance = max(plan.shard_units) * self.num_shards * 100 // plan.total_units
            if imbalance > self.counters.shard_imbalance_max:
                self.counters.shard_imbalance_max = imbalance
        self._plan = plan
        self._run_conflicts = dict(zip((proj.tid for proj in projs), plan.conflicts))
        self._fanout.carry = set()
        self._merge_started = perf_counter_ns()

    def end_run(self) -> ShardPlan:
        """Close the run; returns its plan with the merge time filled in."""
        plan = self._plan
        plan.merge_ns = perf_counter_ns() - self._merge_started
        self.counters.shard_merge_ns += plan.merge_ns
        self._plan = None
        self._run_conflicts = None
        self._fanout.carry = None
        return plan

    def precertify_batch(self, projs: list[TxnProjection]) -> ShardPlan:
        """Probe every shard against the *pre-batch* window.

        Read-only on the shard indices; results merge in shard order.
        In-batch effects are deliberately absent here — phase 2 replays
        them through the carry-forward set.
        """
        num = self.num_shards
        shards = self.shards
        counters = self.counters
        tasks: list[list[tuple]] = [[] for _ in range(num)]
        shard_units = [0] * num
        for index, proj in enumerate(projs):
            snapshot = proj.snapshot
            readset = proj.readset
            if readset.is_exact:
                for shard_id, keys in self._fanout.group(readset.keys).items():
                    tasks[shard_id].append((index, _FWD_KEYS, keys, snapshot, None))
                    shard_units[shard_id] += len(keys)
            else:
                for shard_id in range(num):
                    tasks[shard_id].append((index, _FWD_BLOOM, readset, snapshot, None))
                    shard_units[shard_id] += 1
            if proj.is_global and proj.writeset:
                ws_keys = proj.ws_keys
                ws_groups = self._fanout.group(ws_keys)
                for shard_id, keys in ws_groups.items():
                    tasks[shard_id].append((index, _BWD, keys, snapshot, ws_keys))
                    shard_units[shard_id] += len(keys)
                for shard_id in range(num):
                    if shard_id in ws_groups or not shards[shard_id].has_bloom_records():
                        continue
                    tasks[shard_id].append((index, _BWD, (), snapshot, ws_keys))
                    shard_units[shard_id] += 1

        conflicts = [False] * len(projs)
        for shard_id, shard in enumerate(shards):
            counters.shard_certify_calls += len(tasks[shard_id])
            for index, kind, payload, snapshot, probe in tasks[shard_id]:
                if kind == _FWD_KEYS:
                    hit = shard.forward_conflict_keys(payload, snapshot)
                elif kind == _FWD_BLOOM:
                    hit = shard.bloom_forward_conflict(payload, snapshot)
                else:
                    hit = shard.backward_conflict_keys(
                        payload, snapshot, counters, probe_keys=probe
                    )
                if hit:
                    conflicts[index] = True
        return ShardPlan(conflicts, shard_units, sum(shard_units))

    # ------------------------------------------------------------------
    # CPU model: what parallel certification is worth in simulated time
    # ------------------------------------------------------------------
    def txn_shard_units(self, proj: TxnProjection) -> list[int]:
        """Per-shard key-probe counts for one transaction."""
        num = self.num_shards
        seed = self.hash_seed
        units = [0] * num
        readset = proj.readset
        if readset.is_exact:
            for key in readset.keys:
                units[zlib.crc32(key.encode("utf-8"), seed) % num] += 1
        else:
            for shard_id in range(num):
                units[shard_id] += 1
        if proj.is_global and proj.writeset:
            for key in proj.ws_keys:
                units[zlib.crc32(key.encode("utf-8"), seed) % num] += 1
        return units

    def single_cost(self, proj: TxnProjection, certify_cost: float) -> float:
        """Simulated CPU for certifying one transaction: the critical
        path is the most loaded shard's share of the work."""
        units = self.txn_shard_units(proj)
        total = sum(units)
        if total == 0:
            return certify_cost
        return certify_cost * max(units) / total

    def batch_cost(self, projs: list[TxnProjection], certify_cost: float) -> float:
        """Simulated CPU for phase 1 over a run: each transaction's
        ``certify_cost`` splits across shards proportional to its key
        placement; the batch takes as long as its most loaded shard."""
        per_shard = [0.0] * self.num_shards
        for proj in projs:
            units = self.txn_shard_units(proj)
            total = sum(units)
            if total == 0:
                per_shard[0] += certify_cost
            else:
                for shard_id, count in enumerate(units):
                    if count:
                        per_shard[shard_id] += certify_cost * count / total
        return max(per_shard, default=0.0)


def build_certifier(
    window: CertificationWindow,
    pending: PendingList,
    counters: CertifierCounters | None,
    shardexec: ShardExecConfig | None,
) -> IndexedCertifier | ShardedCertifier:
    """The certification strategy ``SdurConfig.shardexec`` selects: the
    key index, sharded iff a :class:`ShardExecConfig` is given."""
    if shardexec is None:
        return IndexedCertifier(window, pending, counters)
    return ShardedCertifier(window, pending, counters, config=shardexec)
