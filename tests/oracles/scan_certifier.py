"""The O(window) certification scan (Algorithm 2 as written), kept as a
test oracle.

Until PR 13 this ran in production behind ``SdurConfig.certifier =
SCAN``.  The differential suites (``tests/properties/test_prop_certindex.py``,
``tests/integration/test_scan_oracle_cluster.py``) and
``benchmarks/bench_certification.py`` feed it the same histories as
:class:`~repro.core.certindex.IndexedCertifier`; verdicts must be
bit-identical on every one.  Assign an instance to ``server.certifier``
to drive a whole replica with it.  Imports nothing but ``repro``.
"""

from bisect import bisect_right

from repro.core.certifier import CertificationWindow, ctest
from repro.core.certindex import CertifierCounters
from repro.core.pending import PendingList
from repro.core.transaction import TxnId, TxnProjection


def span_after(window: CertificationWindow, snapshot: int) -> int:
    """How many committed records a scan from ``snapshot`` must check."""
    return len(window) - bisect_right(window._versions, snapshot)


def certify(window: CertificationWindow, txn: TxnProjection) -> bool | None:
    """Check ``txn`` against every commit it did not observe.

    Returns True (pass), False (conflict), or ``None`` when the
    snapshot predates the window and the outcome is unknowable —
    callers abort in that case, as the paper's prototype does when a
    transaction outlives the retained bloom filters.
    """
    if txn.snapshot < window.floor:
        return None
    for record in window.records_after(txn.snapshot):
        if not ctest(txn, record.readset, record.ws_keys):
            return False
    return True


def outcome_conflicts(txn: TxnProjection, pending: PendingList) -> list[TxnId]:
    """Pending transactions whose *outcome* decides ``txn``'s verdict.

    ``txn`` conflicts with pending ``e`` when ``txn.rs ∩ e.ws ≠ ∅`` (its
    reads are stale if ``e`` commits) or — for global ``txn`` — when
    ``txn.ws ∩ e.rs ≠ ∅`` (the symmetric test of §III-B).  The paper
    aborts immediately in these cases; a deterministic implementation
    must instead *defer* until each ``e`` resolves, because whether ``e``
    is still pending (vs already completed) at ``txn``'s delivery varies
    with vote-arrival timing across replicas.  Doomed entries are *not*
    skipped: deferring on them resolves to the same verdict when they
    abort, and skipping them would itself be timing-dependent.
    """
    conflicting: list[TxnId] = []
    for entry in pending:
        other = entry.proj
        if other.ws_keys and txn.readset.contains_any(other.ws_keys):
            conflicting.append(entry.tid)
            continue
        if txn.is_global and txn.writeset and other.readset.contains_any(txn.writeset.keys()):
            conflicting.append(entry.tid)
    return conflicting


def find_reorder_position(
    txn: TxnProjection, pending: PendingList, delivered_count: int
) -> int | None:
    """Leftmost pending-list slot for local ``txn``; ``None`` = abort.

    Position ``i`` is valid when (Algorithm 2 lines 55–60):

    a. no earlier entry's writes intersect ``txn``'s reads
       (its reads would be stale),
    b. every entry at or after ``i`` is global (locals are never
       reordered among themselves),
    c. no leaped global has reached its reorder threshold
       (``rt >= delivered_count``; ``IndexedCertifier.find_reorder_position``
       says why the comparison differs from the paper's literal line 58), and
    d. leaping must not invalidate votes already sent: ``txn``'s reads
       and writes must be disjoint from each leaped global's writes and
       reads.
    """
    entries = list(pending)
    total = len(entries)
    # suffix_ok[i]: conditions (b), (c), (d) hold for every k >= i.
    suffix_ok = [False] * (total + 1)
    suffix_ok[total] = True
    for index in range(total - 1, -1, -1):
        entry = entries[index]
        ok = (
            entry.proj.is_global
            and entry.rt >= delivered_count
            and not txn.readset.contains_any(entry.proj.ws_keys)
            and not entry.proj.readset.contains_any(txn.writeset.keys())
        )
        suffix_ok[index] = ok and suffix_ok[index + 1]
    # Scan left to right maintaining condition (a) incrementally.
    for position in range(total + 1):
        if suffix_ok[position]:
            return position
        if position < total and txn.readset.contains_any(entries[position].proj.ws_keys):
            # Condition (a) fails for every slot right of this entry.
            return None
    return None


class ScanCertifier:
    def __init__(
        self,
        window: CertificationWindow,
        pending: PendingList,
        counters: CertifierCounters | None = None,
    ) -> None:
        self.window = window
        self.pending = pending
        self.counters = counters if counters is not None else CertifierCounters()
        # A scan needs no mirror; detach any stale index.
        window.listener = None
        pending.listener = None

    def certify(self, txn: TxnProjection) -> bool | None:
        self.counters.ctest_calls += span_after(self.window, txn.snapshot)
        return certify(self.window, txn)

    def outcome_conflicts(self, txn: TxnProjection) -> list[TxnId]:
        self.counters.ctest_calls += len(self.pending)
        return outcome_conflicts(txn, self.pending)

    def find_reorder_position(self, txn: TxnProjection, delivered_count: int) -> int | None:
        self.counters.ctest_calls += len(self.pending)
        return find_reorder_position(txn, self.pending, delivered_count)
