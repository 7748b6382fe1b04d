"""The O(window) certification scan (Algorithm 2 as written), kept as a
test oracle.

Until PR 13 this ran in production behind ``SdurConfig.certifier =
SCAN``.  The differential suites (``tests/properties/test_prop_certindex.py``,
``tests/integration/test_scan_oracle_cluster.py``) and
``benchmarks/bench_certification.py`` feed it the same histories as
:class:`~repro.core.certindex.IndexedCertifier`; verdicts must be
bit-identical on every one.  Assign an instance to ``server.certifier``
to drive a whole replica with it.
"""

from repro.core.certifier import (
    CertificationWindow,
    certify_against_pending,
    find_reorder_position,
    outcome_conflicts,
)
from repro.core.certindex import CertifierCounters
from repro.core.pending import PendingList
from repro.core.transaction import TxnId, TxnProjection


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
        self.counters.ctest_calls += self.window.span_after(txn.snapshot)
        return self.window.certify(txn)

    def outcome_conflicts(self, txn: TxnProjection) -> list[TxnId]:
        self.counters.ctest_calls += len(self.pending)
        return outcome_conflicts(txn, self.pending)

    def certify_against_pending(self, txn: TxnProjection) -> bool:
        self.counters.ctest_calls += len(self.pending)
        return certify_against_pending(txn, self.pending)

    def find_reorder_position(self, txn: TxnProjection, delivered_count: int) -> int | None:
        self.counters.ctest_calls += len(self.pending)
        return find_reorder_position(txn, self.pending, delivered_count)
