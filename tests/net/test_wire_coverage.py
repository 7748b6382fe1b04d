"""Wire-format coverage: every protocol message round-trips the codecs.

The simulated transport only exercises serialization when
``codec_roundtrip`` is on; this test builds a representative instance of
*every* registered protocol message and proves it survives the JSON
codec (checkpoints, dumps — and the oracle ``tests/net/test_codec.py``
holds the wire codec against, sample by sample), and that the wire
codec's compiler understands every annotation the registry declares.
"""

import typing

import pytest

from repro.consensus.messages import (
    Accept,
    Accepted,
    Batch,
    Chosen,
    ClientPropose,
    CommitIndex,
    Heartbeat,
    LearnRequest,
    Nack,
    PaxosNoop,
    Prepare,
    Promise,
)
from repro.core.messages import (
    AbortRequest,
    Busy,
    CommitGossip,
    CommitRequest,
    GossipResync,
    NoopTick,
    OutcomeNotice,
    ReadRequest,
    ReadResponse,
    ThresholdChange,
    Vote,
)
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.net.message import roundtrip
from repro.reconfig.epochs import ConfigChange
from repro.reconfig.messages import (
    BeginSplit,
    ConfigSnapshot,
    FinishSplit,
    GetConfig,
    InstallMigration,
    StaleEpochNotice,
)
from repro.termination.messages import VoteRecord

TID = TxnId("c9", 42)
PROJ = TxnProjection(
    tid=TID,
    partition="p0",
    readset=ReadsetDigest.exact(["0/a", "0/b"]),
    writeset={"0/a": [1, "two", None]},
    snapshot=7,
    partitions=("p0", "p1"),
    coordinator="s1",
    client="c9",
)
BLOOM_PROJ = TxnProjection(
    tid=TID,
    partition="p1",
    readset=ReadsetDigest.bloomed(["1/x"], fp_rate=0.01),
    writeset={},
    snapshot=0,
    partitions=("p0", "p1"),
    coordinator="s1",
    client="c9",
)
CHANGE = ConfigChange(
    new_epoch=1,
    source="p0",
    new_partition="p2",
    new_members=("s7", "s8", "s9"),
    new_preferred="s7",
    split_salt="split-e1-p0",
)

SAMPLES = [
    # Paxos
    PaxosNoop(),
    Batch(values=(PROJ, NoopTick(), "opaque")),
    ClientPropose(group="p0", value=PROJ),
    Prepare(group="p0", ballot=(3, 1), from_instance=12),
    Promise(group="p0", ballot=(3, 1), accepted={5: ((2, 0), PROJ), 6: ((1, 1), "v")}),
    Accept(group="p0", ballot=(3, 1), instance=9, value=BLOOM_PROJ, floor=7),
    Accepted(group="p0", ballot=(3, 1), instance=9, value=BLOOM_PROJ, next_to_deliver=8),
    Chosen(group="p0", instance=9, value=PROJ),
    CommitIndex(group="p0", next_to_deliver=10),
    LearnRequest(group="p0", from_instance=3, to_instance=9),
    Nack(group="p0", rejected_ballot=(3, 1), promised_ballot=(4, 2)),
    Heartbeat(group="p0", leader_hint="s1"),
    # SDUR
    ReadRequest(tid=TID, op_id=3, keys=("0/a",), snapshot=None, reply_to="c9"),
    ReadRequest(tid=TID, op_id=3, keys=("0/a", "0/b"), snapshot=11, reply_to="c9"),
    ReadResponse(
        tid=TID, op_id=3, key="0/a", value={"nested": [1, 2]}, snapshot=11,
        item_version=4, partition="p0",
    ),
    ReadResponse(
        tid=TID, op_id=3, key="0/a", value=None, snapshot=1, item_version=0,
        partition="p0", error="snapshot 1 below gc horizon 5",
    ),
    # A read-only transaction's first read: one partition's keys, and the
    # vector (§III-A) the answer was read at.
    ReadRequest(
        tid=TID, op_id=0, keys=("0/a", "0/b"), snapshot=None, reply_to="c9", want_vector=True
    ),
    ReadResponse(
        tid=TID, op_id=0, key="0/a", value=7, snapshot=4, item_version=3, partition="p0",
        more=(("0/b", [1, None], 2),), vector={"p0": 4, "p1": 9},
    ),
    CommitRequest(tid=TID, projections={"p0": PROJ, "p1": BLOOM_PROJ}),
    OutcomeNotice(tid=TID, outcome="commit", partition="p0"),
    NoopTick(),
    AbortRequest(
        tid=TID, partition="p1", requester="p0", involved=("p0", "p1"), client="c9"
    ),
    ThresholdChange(value=16),
    # Admission control (docs/PROTOCOL.md §16): a shed commit with the
    # server's hint, and one with a zero hint.
    Busy(tid=TID, server="s1", reason="rate", retry_after=0.05),
    Busy(tid=TID, server="s1", reason="queue", retry_after=0.0),
    Vote(tid=TID, partition="p1", vote="abort"),
    # Vote ledger (docs/PROTOCOL.md §14): own verdict and relayed flavor.
    VoteRecord(tid=TID, partition="p0", vote="commit", involved=("p0", "p1")),
    VoteRecord(tid=TID, partition="p1", vote="abort"),
    CommitGossip(
        partition="p0",
        sc=9,
        globals_committed=((TID, 7, ("p0", "p1")),),
        complete_from=2,
    ),
    # Gossip gap repair (docs/PROTOCOL.md §6): the request and its reply.
    GossipResync(partition="p0", have_through=2),
    CommitGossip(
        partition="p0",
        sc=9,
        globals_committed=((TID, 7, ("p0", "p1")),),
        complete_from=2,
        resync=True,
    ),
    # Reconfiguration
    CHANGE,
    BeginSplit(change=CHANGE),
    InstallMigration(
        change=CHANGE,
        chains={"0/a": ((0, None), (4, "v")), "0/c": ((2, [1, 2]),)},
        source_sc=9,
        gc_horizon=2,
    ),
    FinishSplit(change=CHANGE),
    StaleEpochNotice(tid=TID, partition="p0", epoch=1, changes=(CHANGE,)),
    GetConfig(reply_to="c9", since_epoch=0),
    ConfigSnapshot(epoch=1, changes=(CHANGE,)),
]


@pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
def test_roundtrip(msg):
    decoded = roundtrip(msg)
    assert decoded == msg
    assert type(decoded) is type(msg)


#: The value-free forms Phase 2 actually sends (docs/PROTOCOL.md §4): a
#: point-to-point vote and the coordinator's relay name the value by
#: ``(ballot, instance)``.  (``SAMPLES`` keeps the value-bearing forms:
#: the broadcast-mode vote and the answer to a ``LearnRequest``.)
VALUE_FREE = [
    Accepted(group="p0", ballot=(3, 1), instance=9),
    Chosen(group="p0", instance=9, ballot=(3, 1)),
]


@pytest.mark.parametrize("msg", VALUE_FREE, ids=lambda m: type(m).__name__)
def test_value_free_phase2_messages_roundtrip_both_codecs(msg):
    from repro.net.codec import packed_roundtrip

    assert msg.value is None
    for decoded in (roundtrip(msg), packed_roundtrip(msg)):
        assert decoded == msg and type(decoded) is type(msg)
        assert decoded.value is None and decoded.ballot == (3, 1)


def test_bloom_digest_still_queries_after_roundtrip():
    decoded = roundtrip(BLOOM_PROJ)
    assert decoded.readset.contains_any(["1/x"])
    assert not decoded.readset.contains_any(["1/definitely-not-there"])


def test_every_registered_message_has_a_sample():
    """Keep this list honest: new protocol messages must be covered."""
    from repro.net.message import registry

    protocol_modules = (
        "repro.consensus.messages",
        "repro.core.messages",
        "repro.reconfig.epochs",
        "repro.reconfig.messages",
        "repro.termination.messages",
    )
    covered = {type(m).__name__ for m in SAMPLES}
    registered = {
        name
        for name, cls in registry.items()
        if cls.__module__ in protocol_modules
    }
    missing = registered - covered
    assert not missing, f"messages without wire-coverage samples: {missing}"


#: Fields that take the tagged path without being annotated ``Any``,
#: with the reason each may.  Empty: keep it that way if you can.
TAGGED_ALLOW_LIST: dict[tuple[str, str], str] = {}


def _mentions_any(tp) -> bool:
    return tp is typing.Any or any(_mentions_any(arg) for arg in typing.get_args(tp))


def test_only_any_annotated_fields_take_the_tagged_path():
    """A new message whose annotation the schema compiler does not
    understand must fail here, not silently run on the slow path."""
    import importlib
    import pkgutil

    import repro
    from repro.net.codec import tagged_fields
    from repro.net.message import registry

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)  # every @message in the tree
    tagged, declared = set(), set()
    for name, cls in registry.items():
        if not cls.__module__.startswith("repro."):
            continue  # test-local messages answer for themselves
        tagged |= {(name, field) for field in tagged_fields(cls)}
        declared |= {
            (name, field)
            for field, tp in typing.get_type_hints(cls).items()
            if _mentions_any(tp)
        }
    assert tagged - set(TAGGED_ALLOW_LIST) == declared
    assert not set(TAGGED_ALLOW_LIST) - tagged, "stale allow-list entries"
    # The hot ones, by name, so a refactor of this test cannot hollow it out.
    assert {("Accept", "value"), ("Envelope", "payload"), ("TxnProjection", "writeset")} <= declared
    assert ("TxnProjection", "readset") not in tagged and ("Accept", "ballot") not in tagged
