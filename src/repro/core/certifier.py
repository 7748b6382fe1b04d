"""Certification: the heart of deferred update replication.

The paper's conflict test and the window it runs over.  The queries —
``certify``, ``outcome_conflicts``, ``find_reorder_position`` — belong to
:class:`repro.core.certindex.IndexedCertifier`; Algorithm 2's O(window)
scan of the same three is the differential oracle
``tests/oracles/scan_certifier.py``.

* ``ctest(t, t')`` (Algorithm 2 lines 46–47; the oracle's per-pair
  test, which the index answers for the whole window at once)::

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

The window keeps each commit as one plain tuple of atoms (a
:data:`WindowEntry`), never as an object: CPython's collector stops
tracking an exact tuple of untracked items after one young collection,
so ``history_window`` retained commits cost full collections nothing
(docs/PROTOCOL.md §15).  :class:`repro.core.checkpoint.WindowRecord` is
the readable form, rebuilt only where a reader needs one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol

from repro.core.transaction import ReadsetDigest, TxnId

#: One committed transaction as the window keeps it:
#: ``(version, client, seq, readset, ws_keys, is_global)``.  ``version``
#: is the partition's snapshot counter after the commit; ``client`` and
#: ``seq`` are its :class:`TxnId`; ``readset`` is the exact keys as a
#: tuple, or the bloom digest's bytes; ``ws_keys`` is a tuple.
WindowEntry = tuple[int, str, int, "tuple[str, ...] | bytes", tuple[str, ...], bool]


def window_entry(
    tid: TxnId,
    version: int,
    readset: ReadsetDigest,
    ws_keys: Iterable[str],
    is_global: bool,
) -> WindowEntry:
    """Pack one committed transaction into a window entry."""
    keys = readset.keys
    return (
        version,
        tid.client,
        tid.seq,
        readset.bloom if keys is None else tuple(keys),
        tuple(ws_keys),
        is_global,
    )


def readset_digest(readset: tuple[str, ...] | bytes) -> ReadsetDigest:
    """The :class:`ReadsetDigest` an entry's readset was packed from."""
    if isinstance(readset, bytes):
        return ReadsetDigest(bloom=readset)
    return ReadsetDigest(keys=frozenset(readset))


class WindowListener(Protocol):
    """Observes window mutations (the key-conflict index mirrors them)."""

    def record_added(self, entry: WindowEntry) -> None: ...

    def record_evicted(self, entry: WindowEntry) -> None: ...


class CertificationWindow:
    """Sliding window of committed entries, ordered by commit version.

    One list holds the entries; evicting advances a head offset and
    clears the slot, and the list drops its evicted prefix once that
    passes half its length.  Eviction is O(1) amortized and the list
    never holds more than ``2 * capacity`` slots.
    """

    def __init__(self, capacity: int, floor: int = 0) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self._entries: list[WindowEntry | None] = []
        #: Index of the oldest live entry; the slots before it are evicted.
        self._head = 0
        #: Snapshots at or below the floor can no longer be certified
        #: (non-zero when restored from a checkpoint).
        self._floor = floor
        #: Mutation observer (``repro.core.certindex`` attaches here).
        self.listener: WindowListener | None = None

    @property
    def floor(self) -> int:
        return self._floor

    def __len__(self) -> int:
        return len(self._entries) - self._head

    def __iter__(self) -> Iterator[WindowEntry]:
        """Live entries, oldest first."""
        return iter(self._entries[self._head :])

    def add(self, entry: WindowEntry) -> None:
        """Append a committed entry (versions must be increasing)."""
        entries = self._entries
        version = entry[0]
        if len(entries) > self._head and version <= entries[-1][0]:
            raise ValueError(f"record version {version} not above {entries[-1][0]}")
        entries.append(entry)
        evicted = None
        if len(entries) - self._head > self.capacity:
            evicted = entries[self._head]
            entries[self._head] = None
            self._head += 1
            self._floor = evicted[0]
            if 2 * self._head >= len(entries):
                del entries[: self._head]
                self._head = 0
        if self.listener is not None:
            self.listener.record_added(entry)
            if evicted is not None:
                self.listener.record_evicted(evicted)
