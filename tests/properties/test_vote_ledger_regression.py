"""Deterministic regressions for vote-ledger termination (PROTOCOL.md §14).

Both examples below were found by hypothesis shrinking over the
end-to-end property space (tests/properties/test_prop_end_to_end.py) and
are promoted here as fixed, always-run regressions:

* **Reorder divergence** — WAN 1, reorder threshold 4: under optimistic
  (arrival-time) termination, two replicas of the same partition commit
  a pair of concurrent globals in opposite orders (swapped versions),
  because a vote arriving between one replica's reorder decision and
  the other's leaks timing into commit order.
* **Deferral deadlock** — WAN 1, reorder threshold 0: a cross-partition
  deferral cycle where each partition waits for the other's vote
  forever; the run completes 1 of 30 transactions.

The shapes are the shrunk ones; the seeds are not.  A change to the
message schedule moves where a seed's races fall: when one request per
partition replaced one per key, the shrunk seeds (13411 and 2) stopped
discriminating, and a sweep of seeds 0–999 over each unchanged shape
re-pinned the first seed on which the arrival-time oracle still fails
and the ledger is clean (23 of the 1 000 diverge, 137 deadlock).

The ledger (the termination protocol, ``repro.termination``) fixes both:
votes take effect only at their delivery position in the receiving
partition's own log, and abort requests break deferral cycles
deterministically (the cycle's minimal transaction id aborts).  The
guard tests pin that the arrival-time oracle
(``tests/oracles/optimistic_termination.py``, installed through
``server.ledger``) still exhibits each failure — if one starts passing,
the example no longer discriminates and should be re-shrunk.
"""

import pytest

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from tests.properties.test_prop_end_to_end import run_system

#: Falsifying example for the reorder-divergence manifestation.
REORDER_EXAMPLE = dict(
    num_partitions=2,
    wan=True,
    reorder_threshold=4,
    keyspace=6,
    global_p=0.507,
    seed=26,
    delay_fixed=0.0,
    bloom=False,
)

#: Falsifying example for the deferral-deadlock manifestation.
DEADLOCK_EXAMPLE = dict(
    num_partitions=2,
    wan=True,
    reorder_threshold=0,
    keyspace=4,
    global_p=0.55,
    seed=9,
    delay_fixed=0.0,
    bloom=False,
)


#: Known liveness gap of the ledger itself (PROTOCOL.md §14.3 "Known
#: gap"): a wait cycle through pending-list *order*, found with simulator
#: loop turns on by the end-to-end property from a fresh example
#: database; it wedges 0 of 30.  Three concurrent globals with
#: transaction delaying: B holds commit votes from both partitions but
#: sits behind A at p0 and behind C at p1.  A's verdict at p1 and C's at
#: p0 defer on B, and B has the smallest id, so the cycle rule dooms
#: neither.
#:
#: The first example of the class (WAN 1, reorder threshold 4, keyspace
#: 4, seed 193) wedged only on a schedule without loop turns, and stopped
#: wedging on that one too when a partition's keys came to share one read
#: request.  It is retired: no replacement turned up in a sweep of seeds
#: 0–999 over its shape without turns, and over five neighbouring shapes
#: (``global_p`` 0.40 and 0.55, keyspace 3 and 6, reorder threshold 12;
#: 6 000 runs in all), nor in 300 calls of the end-to-end property from a
#: fresh example database.
ORDER_CYCLE_DELAYING_EXAMPLE = dict(
    num_partitions=2,
    wan=True,
    reorder_threshold=0,
    keyspace=3,
    global_p=0.5625,
    seed=2082,
    delay_fixed=0.01,
    bloom=False,
)


def assert_sound(params):
    cluster, recorder, done = run_system(dict(params))
    assert len(done) >= 30, f"workload did not complete ({len(done)}/30)"
    check_serializability(recorder).raise_if_failed()
    replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()


class TestLedgerFixesKnownExamples:
    """The system as shipped: both examples must be clean."""

    def test_reorder_divergence_example(self):
        assert_sound(REORDER_EXAMPLE)

    def test_deferral_deadlock_example(self):
        assert_sound(DEADLOCK_EXAMPLE)


class TestKnownGap:
    @pytest.mark.xfail(
        strict=True,
        reason="order-edge wait cycle through a decided entry (ROADMAP item 0)",
    )
    def test_order_cycle_delaying_example(self):
        """Strict: the fix must promote this into TestLedgerFixesKnownExamples."""
        assert_sound(ORDER_CYCLE_DELAYING_EXAMPLE)


class TestOptimisticStillFails:
    """The oracle keeps the bugs — the examples stay discriminating."""

    def test_reorder_example_diverges_under_optimistic(self):
        cluster, recorder, done = run_system(
            dict(REORDER_EXAMPLE), optimistic_oracle=True
        )
        assert len(done) >= 30
        report = replica_agreement(recorder, cluster.replica_counts())
        assert not report.ok, (
            "the optimistic oracle no longer diverges on the shrunk example; "
            "re-shrink or retire the regression"
        )
        assert any("divergence" in issue for issue in report.issues)

    def test_deadlock_example_stalls_under_optimistic(self):
        _, _, done = run_system(dict(DEADLOCK_EXAMPLE), optimistic_oracle=True)
        assert len(done) < 30, (
            "the optimistic oracle no longer deadlocks on the shrunk example; "
            "re-shrink or retire the regression"
        )
