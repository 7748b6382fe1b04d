"""One-value-at-a-time ingest (Algorithm 2 as written), kept as a test
oracle.

Until PR 19 this was what ``SdurConfig(batching=None)`` selected: every
delivered value entered ``SdurServer._ingest`` — pending-list insert,
``_drain``, ``_complete`` — and the one-pass loop of
docs/PROTOCOL.md §18.2 (``_commit_local_run``) never ran.  Every
delivery now goes through the batcher and a local projection that
qualifies takes the loop even in a batch of one, so no ``SdurConfig``
can express "every value takes the general path" any more.  The general
path itself is still production code — globals, vote records,
deferrals, gated and reconfiguration values and every run with a
non-zero apply cost take it; the oracle is only the *configuration*
that sends everything down it.

``tests/properties/test_batch_differential.py`` replays the same log
into a shipped server and an oracle and requires identical state;
``benchmarks/bench_batch.py`` prices the loop against it (cell 0).
Imports nothing but ``repro`` — the benchmark's CI job installs no test
dependencies.
"""


def sequential(server):
    """Make ``server`` refuse the one-pass loop; returns it."""
    server._batch_fast_ok = lambda value: False
    return server


def install(cluster):
    """Send every delivery of every server down the general path."""
    for handle in cluster.servers.values():
        sequential(handle.server)
