"""Certification: the heart of deferred update replication.

The paper's conflict test and the window it runs over.  The queries —
``certify``, ``outcome_conflicts``, ``find_reorder_position`` — belong to
:class:`repro.core.certindex.IndexedCertifier`; Algorithm 2's O(window)
scan of the same three is the differential oracle
``tests/oracles/scan_certifier.py``.

* ``ctest(t, t')`` (Algorithm 2 lines 46–47)::

      (t.rs ∩ t'.ws = ∅) ∧ (t is local ∨ (t.ws ∩ t'.rs = ∅))

  Local transactions only need their reads to be fresh.  Global
  transactions are also checked writes-against-reads because partitions
  deliver concurrent globals in possibly different orders, and passing
  the symmetric test means the two transactions can be serialized in
  *either* order (§III-B).

* The certification window — the committed transactions a delivered
  transaction must be checked against (``DB[t.st[p] … SC]`` in
  Algorithm 2 line 49).  The window retains the last ``history_window``
  records, mirroring the paper's "last K bloom filters" (§V); snapshots
  older than the window abort conservatively.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Protocol

from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection


@dataclass(frozen=True, slots=True)
class CommittedRecord:
    """What certification remembers about one committed transaction.

    ``slots=True`` matters at scale: the window holds ``history_window``
    of these live (50k by default), and dropping the per-instance
    ``__dict__`` roughly halves the GC-tracked objects the collector
    re-scans on every full collection — measurable on the delivery hot
    path (benchmarks/bench_batch.py)."""

    tid: TxnId
    #: Partition snapshot counter after this transaction applied.
    version: int
    readset: ReadsetDigest
    ws_keys: frozenset[str]
    is_global: bool


def ctest(txn: TxnProjection, other_readset: ReadsetDigest, other_ws_keys: frozenset[str]) -> bool:
    """Does ``txn`` pass certification against one earlier transaction?

    Returns True when no conflict exists.  ``other_*`` describe a
    transaction delivered (and possibly committed) before ``txn``.
    """
    if other_ws_keys and txn.readset.contains_any(other_ws_keys):
        return False
    if txn.is_global and txn.writeset and other_readset.contains_any(txn.writeset.keys()):
        return False
    return True


class WindowListener(Protocol):
    """Observes window mutations (the key-conflict index mirrors them)."""

    def record_added(self, record: CommittedRecord) -> None: ...

    def record_evicted(self, record: CommittedRecord) -> None: ...


class CertificationWindow:
    """Sliding window of committed records, ordered by commit version."""

    def __init__(self, capacity: int, floor: int = 0) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self._records: deque[CommittedRecord] = deque()
        self._versions: list[int] = []
        #: Snapshots at or below the floor can no longer be certified
        #: (non-zero when restored from a checkpoint).
        self._floor = floor
        #: Mutation observer (``repro.core.certindex`` attaches here).
        self.listener: WindowListener | None = None

    @property
    def floor(self) -> int:
        return self._floor

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: CommittedRecord) -> None:
        """Append a committed record (versions must be increasing)."""
        if self._versions and record.version <= self._versions[-1]:
            raise ValueError(
                f"record version {record.version} not above {self._versions[-1]}"
            )
        self._records.append(record)
        self._versions.append(record.version)
        evicted = None
        if len(self._records) > self.capacity:
            evicted = self._records.popleft()
            del self._versions[0]
            self._floor = evicted.version
        if self.listener is not None:
            self.listener.record_added(record)
            if evicted is not None:
                self.listener.record_evicted(evicted)

    def records_after(self, snapshot: int) -> Iterator[CommittedRecord]:
        """Committed records with ``version > snapshot`` (oldest first).

        Returns an iterator: ``deque`` indexing is O(k) per access, so
        ``islice`` keeps the traversal linear instead of quadratic.
        """
        start = bisect_right(self._versions, snapshot)
        if start == 0:
            return iter(self._records)
        return islice(self._records, start, None)
