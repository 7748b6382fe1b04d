"""Multiversion key-value store.

Each SDUR server keeps one store per replicated partition.  Values are
immutable versions tagged with the partition's snapshot counter at commit
time; reads ask for "the most recent version of ``key`` no newer than
``snapshot``", which is how the paper's clients obtain a consistent view
of a partition without locking (Section III-A).

Versions are appended in strictly increasing order — the SDUR server
applies writesets in commit order — so each key's version list is sorted
and reads are a binary search.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import SnapshotTooOldError, StorageError


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """One committed version of one key."""

    version: int
    value: Any


class MultiVersionStore:
    """Append-only multiversion map with snapshot reads.

    ``gc_horizon`` bounds how far back snapshots may reach once
    :meth:`collect_garbage` has run; reads below the horizon raise
    :class:`SnapshotTooOldError` so callers abort rather than read a
    reconstructed (possibly wrong) value.
    """

    def __init__(self) -> None:
        self._versions: dict[Any, list[VersionedValue]] = {}
        self._current_version = 0
        self._gc_horizon = 0

    @property
    def current_version(self) -> int:
        """Highest version applied so far (the partition's snapshot counter)."""
        return self._current_version

    @property
    def gc_horizon(self) -> int:
        """Oldest version that snapshot reads may still use."""
        return self._gc_horizon

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, key: Any) -> bool:
        return key in self._versions

    def keys(self) -> Iterator[Any]:
        return iter(self._versions)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply(self, writeset: dict[Any, Any], version: int) -> None:
        """Install ``writeset`` as ``version``; versions must increase.

        An empty writeset still advances the version (a committed
        transaction that wrote only to other partitions still bumps this
        partition's snapshot counter in SDUR).
        """
        if version <= self._current_version:
            raise StorageError(
                f"version {version} not greater than current {self._current_version}"
            )
        versions = self._versions
        for key, value in writeset.items():
            chain = versions.get(key)
            if chain is None:
                chain = versions[key] = []
            chain.append(VersionedValue(version, value))
        self._current_version = version

    def seed(self, items: dict[Any, Any]) -> None:
        """Load initial data as version 0 (before any transaction commits).

        Seeded values repeat — a benchmark seeds every key with ``0`` — so
        every key seeded with the same object shares one version-0 record
        (immutable, so sharing it changes no read, GC or checkpoint).
        """
        if self._current_version != 0:
            raise StorageError("seed() must run before any apply()")
        shared: dict[int, VersionedValue] = {}
        for key, value in items.items():
            base = shared.get(id(value))
            if base is None:
                base = shared[id(value)] = VersionedValue(0, value)
            self._versions.setdefault(key, []).append(base)

    def restore(
        self,
        chains: dict[Any, list[tuple[int, Any]]],
        current_version: int,
        gc_horizon: int = 0,
    ) -> None:
        """Install a checkpointed state into an empty store.

        ``chains`` maps each key to its retained ``(version, value)``
        pairs in ascending version order.
        """
        if self._versions or self._current_version != 0:
            raise StorageError("restore() requires an empty store")
        if gc_horizon > current_version:
            raise StorageError("gc horizon beyond current version")
        for key, chain in chains.items():
            versions = [v for v, _ in chain]
            if versions != sorted(versions) or len(set(versions)) != len(versions):
                raise StorageError(f"non-monotone version chain for {key!r}")
            self._versions[key] = [VersionedValue(v, value) for v, value in chain]
        self._current_version = current_version
        self._gc_horizon = gc_horizon

    def dump(self) -> dict[Any, list[tuple[int, Any]]]:
        """The inverse of :meth:`restore` (checkpoint creation)."""
        return {
            key: [(vv.version, vv.value) for vv in chain]
            for key, chain in self._versions.items()
        }

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key: Any, snapshot: int | None = None) -> VersionedValue:
        """Most recent version of ``key`` with ``version <= snapshot``.

        ``snapshot=None`` reads the latest committed version.  A key with
        no version at or below the snapshot reads as ``(0, None)`` — the
        paper's databases are pre-populated, so this models "not yet
        created in this snapshot".
        """
        if snapshot is None:
            snapshot = self._current_version
        if snapshot < self._gc_horizon:
            raise SnapshotTooOldError(
                f"snapshot {snapshot} below gc horizon {self._gc_horizon}"
            )
        chain = self._versions.get(key)
        if not chain:
            return VersionedValue(0, None)
        index = bisect_right(chain, snapshot, key=lambda vv: vv.version)
        if index == 0:
            return VersionedValue(0, None)
        return chain[index - 1]

    def read_latest(self, key: Any) -> VersionedValue:
        return self.read(key, None)

    def versions_of(self, key: Any) -> list[VersionedValue]:
        """All retained versions of ``key`` (oldest first); for tests."""
        return list(self._versions.get(key, ()))

    def evict_keys(self, keys: Iterator[Any] | list[Any] | frozenset[Any]) -> int:
        """Drop entire version chains (keys migrated to another partition).

        Unlike :meth:`collect_garbage` this removes keys wholesale: after
        a partition split the moved keys live (with their full chains) at
        the new partition, and the source must not serve them at any
        snapshot.  Returns the number of keys actually dropped.
        """
        dropped = 0
        for key in list(keys):
            if self._versions.pop(key, None) is not None:
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def collect_garbage(self, horizon: int) -> int:
        """Drop versions not visible to any snapshot ``>= horizon``.

        For each key, all versions strictly older than the newest version
        at-or-below ``horizon`` are removed.  Returns the number of
        versions dropped.
        """
        if horizon < self._gc_horizon:
            raise StorageError("gc horizon cannot move backwards")
        dropped = 0
        for key, chain in self._versions.items():
            index = bisect_right(chain, horizon, key=lambda vv: vv.version)
            if index > 1:
                dropped += index - 1
                self._versions[key] = chain[index - 1 :]
        self._gc_horizon = horizon
        return dropped
