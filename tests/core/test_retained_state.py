"""What a commit leaves behind is atoms (docs/PROTOCOL.md §15).

A replica keeps state for every committed transaction by design: a
version in the store's chains, an entry in the certification window
(``history_window`` of them, Algorithm 2's ``DB[st … SC]``) and a row in
the dedup table.  Held as plain tuples of ``str`` / ``int`` / ``bytes``,
CPython's collector stops tracking them after one young collection, so
full collections never walk them again.  This counts the gc-tracked
objects a commit leaves behind, on a raw server fed locals directly.
"""

import gc

from repro.core.config import SdurConfig
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from tests.properties.test_batch_differential import KEYS, build_server

COMMITS = 2_000


def commit_locals(server, start: int, count: int) -> None:
    """Deliver ``count`` two-key local updates that all commit."""
    for seq in range(start, start + count):
        server.on_adeliver(
            seq,
            TxnProjection(
                tid=TxnId("c", seq),
                partition="p0",
                readset=ReadsetDigest.exact([KEYS[seq % len(KEYS)]]),
                writeset={KEYS[(seq + 1) % len(KEYS)]: seq},
                snapshot=server.sc,
                partitions=("p0",),
                coordinator="s0",
            ),
        )


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_a_commit_retains_no_tracked_object():
    server = build_server(0, history_window=SdurConfig().history_window)
    commit_locals(server, 0, 200)  # every key has its chain
    before = tracked_objects()
    commit_locals(server, 200, COMMITS)
    retained = (tracked_objects() - before) / COMMITS
    assert server.stats.committed_local == 200 + COMMITS
    assert len(server.window) == 200 + COMMITS  # nothing evicted yet
    # Parent: 6.0 a commit (a version record, a window record with its
    # readset digest and two frozensets, and a TxnId dedup key).
    assert retained < 0.05, retained
