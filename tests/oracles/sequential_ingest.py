"""One-value-at-a-time ingest (Algorithm 2 as written), kept as a test
oracle.

Every certified transaction enters the pending list — insert,
``_drain``, ``_complete`` — where the shipped server lets a local that
meets an empty pending list complete at delivery
(docs/PROTOCOL.md §18.2, ``SdurServer._completes_at_delivery``).  The
pending list itself is still production code — globals, deferrals,
locals behind a pending global and every run with a non-zero apply cost
go through it; the oracle is only the *configuration* that sends
everything through it, which no ``SdurConfig`` can express.

``tests/properties/test_batch_differential.py`` replays the same log
into a shipped server and an oracle and requires identical state;
``benchmarks/bench_batch.py`` prices the shortcut against it (cell 0).
Imports nothing but ``repro`` — the benchmark's CI job installs no test
dependencies.
"""


def sequential(server):
    """Make ``server`` complete nothing at delivery; returns it."""
    server._completes_at_delivery = lambda proj: False
    return server


def install(cluster):
    """Send every commit of every server through the pending list."""
    for handle in cluster.servers.values():
        sequential(handle.server)
