"""What a commit leaves behind is atoms, and few bytes (docs/PROTOCOL.md §15).

A replica keeps state for every committed transaction by design: a
version in the store's chains, an entry in the certification window
(``history_window`` of them, Algorithm 2's ``DB[st … SC]``) and a row in
the dedup table.  Held as plain tuples of ``str`` / ``int`` / ``bytes``,
CPython's collector stops tracking them after one young collection, so
full collections never walk them again.  The first test counts the
gc-tracked objects a commit leaves behind, on a raw server fed locals
directly; the second weighs the bytes, on three replicas that each
decode their own copy of every projection, as followers do.
"""

import gc
import tracemalloc

from repro.core.config import SdurConfig
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.net.codec import decode_packed, encode_packed
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


#: Keys and clients shaped like the e2e rig's (``"0/obj17"``, ``"c3"``).
RIG_KEYS = [f"0/obj{i}" for i in range(1_000)]
RIG_CLIENTS = [f"c{i}" for i in range(8)]


def deliver_packed(replicas, start: int, count: int) -> None:
    """Encode ``count`` two-key local updates once each and deliver every
    one to each replica through its own ``decode_packed``."""
    for seq in range(start, start + count):
        key_a, key_b = RIG_KEYS[seq * 7 % 1_000], RIG_KEYS[(seq * 7 + 1) % 1_000]
        frame = encode_packed(
            TxnProjection(
                tid=TxnId(RIG_CLIENTS[seq % 8], seq),
                partition="p0",
                readset=ReadsetDigest.exact([key_a, key_b]),
                writeset={key_a: seq, key_b: seq},
                snapshot=replicas[0].sc,
                partitions=("p0",),
                coordinator="s0",
            )
        )
        for replica in replicas:
            replica.on_adeliver(seq, decode_packed(frame))


def test_a_commit_retains_few_bytes():
    replicas = [build_server(0, history_window=SdurConfig().history_window) for _ in range(3)]
    deliver_packed(replicas, 0, 2_000)  # every key and client has been seen
    gc.collect()
    tracemalloc.start()
    try:
        deliver_packed(replicas, 2_000, COMMITS)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] / COMMITS
    finally:
        tracemalloc.stop()
    assert all(r.stats.committed_local == 2_000 + COMMITS for r in replicas)
    # Bytes allocated while committing and still held, per commit, for
    # all three replicas.  Before decoded names were interned and the
    # dedup table lost its per-entry tuples this read 2 976 B: each
    # replica kept its own decoded keys and client id (683 B of the
    # three), and a tuple and an ``OrderedDict`` node per dedup entry
    # (584 B).  After, 1 778 B: versions 432, window entries 600, dedup
    # rows 221 and the decoded ints the window keeps.
    assert retained < 2_300, retained
