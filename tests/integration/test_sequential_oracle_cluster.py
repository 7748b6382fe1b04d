"""System-level differential: the shipped ingest path vs the sequential
oracle.

Two seed-matched WAN 1 runs (the deployment and workload of
``test_scan_oracle_cluster.py``) — one untouched (a local that meets an
empty pending list completes at delivery), one with
``tests.oracles.sequential_ingest.install`` applied before ``start()``
(every commit through the pending list) — must be
indistinguishable to clients, *finish times included*, and leave
byte-identical stores.  Finish times are the sharp part: a reply that
left one simulator event later, or two same-instant sends in the other
order, would shift the network's jitter draws and every latency after
it.  This is the cluster-wide form of the per-log equivalence
``tests/properties/test_batch_differential.py`` pins, and the tier-1
guard that completing a local at delivery changes nothing a client can
see.
"""

from tests.integration.test_scan_oracle_cluster import run
from tests.oracles import sequential_ingest


def test_sequential_oracle_cluster_matches_the_shipped_default():
    shipped_outcomes, shipped_stores, shipped = run(bloom=False)
    oracle_outcomes, oracle_stores, oracle = run(bloom=False, oracle=sequential_ingest.install)
    assert oracle_outcomes == shipped_outcomes
    assert oracle_stores == shipped_stores
    # The run must have exercised what it claims to compare: commits and
    # aborts, locals completed at delivery on one side only, globals and
    # reordered locals through the pending list on both.
    committed = sum(1 for _, outcome, _, _ in shipped_outcomes if outcome.value == "commit")
    assert 0 < committed < len(shipped_outcomes)
    assert shipped.counter("completed_at_delivery") > 0
    assert oracle.counter("completed_at_delivery") == 0
    assert shipped.counter("committed_global") == oracle.counter("committed_global") > 0
    assert shipped.counter("reordered") == oracle.counter("reordered") > 0
    assert shipped.counter("votes_ordered") == oracle.counter("votes_ordered") > 0
