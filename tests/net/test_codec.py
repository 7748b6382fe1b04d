"""Tests of the schema-compiled binary codec (repro.net.codec).

The codec compiles every registered message class into a positional
encoder and decoder for its declared field types and keeps the tagged,
self-describing encoding only for ``Any`` positions.  The JSON codec of
``repro.net.message`` is the oracle: whatever it round-trips, this one
must round-trip to the same value, in fewer bytes.  Decoding is total
(any bytes -> a value or ``CodecError``) and encoding is honest about
annotations (a misfit value -> ``CodecError`` naming ``Class.field``).
"""

import enum
import sys
import sysconfig
from dataclasses import dataclass, field

import pytest

from repro.consensus.messages import Accept, PaxosNoop
from repro.core.messages import CommitGossip, OutcomeNotice, ReadRequest, ReadResponse
from repro.core.transaction import Outcome, ReadsetDigest, TxnId, TxnProjection
from repro.errors import CodecError
from repro.net.asyncio_transport import Envelope
from repro.net.codec import (
    CODECS,
    MAX_DEPTH,
    decode_packed,
    encode_packed,
    get_codec,
)
from repro.net.message import Message, decode_message, encode_message, message
from tests.conftest import packed_roundtrip
from tests.net.test_wire_coverage import (
    BLOOM_PROJ,
    PROJ,
    SAMPLES,
    TID,
    VALUE_FREE,
    tagged_fields,
)

SCALAR_EDGES = (
    None, True, False, 0, -1, 2**62, -(2**62), 2**63 - 1, -(2**63), 2**80, -(2**80),
    0.5, -1e300, "", "κλειδί", "x" * 300, b"", b"\x00\xff", b"y" * 300, [], {}, (),
    frozenset(), [1, [2, {"k": (3,)}]], {1: "a", (2, "b"): None}, frozenset({1, "a", (2,)}),
    PaxosNoop(), TID, [PROJ, {"nested": BLOOM_PROJ}],
)


def _edge(value):
    return ReadResponse(
        tid=TID, op_id=0, key="k", value=value, snapshot=0, item_version=0, partition="p0",
    )


# ----------------------------------------------------------------------
# Differential: JSON is the oracle
# ----------------------------------------------------------------------
def agrees_with_the_oracle(msg):
    packed = decode_packed(encode_packed(msg))
    oracle = decode_message(encode_message(msg))
    assert packed == oracle == msg
    assert type(packed) is type(oracle) is type(msg)


@pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
def test_every_protocol_message_roundtrips_packed(msg):
    agrees_with_the_oracle(msg)


def test_scalar_edge_values_roundtrip():
    for value in SCALAR_EDGES:
        agrees_with_the_oracle(_edge(value))
        decoded = packed_roundtrip(_edge(value)).value
        assert decoded == value and type(decoded) is type(value), value


def test_decoded_names_are_one_object_per_process():
    """Every schema-typed ``str`` is interned on decode: two decodes of
    one frame share each key and the client id, and a key the readset
    and the writeset both name is one object.  ``Any`` values are not
    names and stay as decoded."""
    msg = TxnProjection(
        tid=TxnId("client-7", 3),
        partition="p0",
        readset=ReadsetDigest.exact(["0/obj1", "0/obj2"]),
        writeset={"0/obj2": "value-2", "0/obj3": "value-3"},
        snapshot=5,
        partitions=("p0",),
        coordinator="s1",
        client="client-7",
    )
    agrees_with_the_oracle(msg)
    frame = encode_packed(msg)
    first, second = decode_packed(frame), decode_packed(frame)
    assert first.tid.client is second.tid.client is first.client
    assert first.partition is second.partition is first.partitions[0]
    for key in msg.readset.keys | msg.writeset.keys():
        keys = [k for d in (first, second) for k in (*d.readset.keys, *d.writeset) if k == key]
        assert len(keys) >= 2 and all(k is keys[0] for k in keys), key
    assert first.writeset["0/obj2"] == second.writeset["0/obj2"]
    assert first.writeset["0/obj2"] is not second.writeset["0/obj2"]


def test_interned_names_die_where_the_interpreter_lets_them():
    """The codec docstring's lifetime table: CPython 3.12 and free-threaded
    builds keep every interned string forever; elsewhere a decoded name
    is freed with its last reference, so interning cannot leak."""
    immortal = sys.version_info[:2] == (3, 12) or bool(sysconfig.get_config_var("Py_GIL_DISABLED"))
    client = "client-" + str(id(object()))  # a name no frame has carried yet
    name = decode_packed(encode_packed(TxnId(client, 1))).client
    assert name == client and name is not client
    assert (sys.getrefcount(name) > 1 << 28) is immortal


def test_packed_frames_are_smaller_than_json():
    for msg in [*SAMPLES, *VALUE_FREE, *map(_edge, SCALAR_EDGES)]:
        packed = len(encode_packed(msg))
        json_size = len(encode_message(msg))
        assert packed < json_size, (
            f"{type(msg).__name__}: packed {packed} >= json {json_size}"
        )


def test_top_level_values_need_not_be_messages():
    """Paxos values in the WAL are whatever was proposed."""
    for value in ("v0", 7, None, ("a", 1), [PROJ]):
        assert packed_roundtrip(value) == value


def test_bloom_digest_still_queries_after_packed_roundtrip():
    decoded = packed_roundtrip(BLOOM_PROJ)
    assert decoded.readset.contains_any(["1/x"])
    assert not decoded.readset.contains_any(["1/definitely-not-there"])


def test_envelope_roundtrips_with_nested_payload():
    envelope = Envelope(src="s1", payload=Accept("p0", (1, 0), 9, PROJ))
    assert packed_roundtrip(envelope) == envelope


def test_sets_have_one_wire_image():
    """Equal sets encode equally whatever their iteration order."""
    keys = [f"0/k{i}" for i in range(50)]
    forward = ReadsetDigest(keys=frozenset(keys))
    backward = ReadsetDigest(keys=frozenset(reversed(keys)))
    assert encode_packed(forward) == encode_packed(backward)
    # ... on the tagged path too, where members need not be comparable.
    mixed = [1, "a", (2,), None, b"z"]
    assert encode_packed(_edge(frozenset(mixed))) == encode_packed(_edge(frozenset(mixed[::-1])))


def test_subclasses_of_int_and_str_travel_as_their_base_value():
    class Level(enum.IntEnum):
        HIGH = 3

    notice = packed_roundtrip(OutcomeNotice(tid=TID, outcome=Outcome.COMMIT, partition="p0"))
    assert notice.outcome == "commit" and type(notice.outcome) is str
    request = packed_roundtrip(ReadRequest(TID, Level.HIGH, ("k",), None, "c9"))
    assert request.op_id == 3 and type(request.op_id) is int
    # The same on the tagged path.
    response = packed_roundtrip(_edge([Outcome.ABORT, Level.HIGH]))
    assert response.value == ["abort", 3]
    assert [type(item) for item in response.value] == [str, int]


def test_int_is_accepted_where_float_is_declared():
    from repro.core.messages import Busy

    busy = packed_roundtrip(Busy(tid=TID, server="s1", reason="shed", retry_after=2))
    assert busy.retry_after == 2.0 and type(busy.retry_after) is float


# ----------------------------------------------------------------------
# Decode is total
# ----------------------------------------------------------------------
def _tagged(name: str) -> bytes:
    return b"M" + bytes([len(name)]) + name.encode()


#: The four shapes ISSUE 21 showed leaking TypeError / ProtocolError /
#: RecursionError out of the previous decoder, in this format.
MALFORMED = {
    "dict keyed by a list": b"d\x01l\x00N",
    "set of lists": b"S\x01l\x00",
    "constructor rejects its fields": _tagged("ReadsetDigest") + b"\x00\x00",
    "nesting past the bound": b"l\x01" * 5000 + b"N",
    "empty": b"",
    "unknown message": _tagged("NoSuchMessage"),
    "message name is not UTF-8": b"M\x02\xff\xfe",
    "truncated int": b"i\x00\x00",
    "truncated string": b"s\x05ab",
    "invalid UTF-8": b"s\x02\xff\xfe",
    "count past the frame": b"l\xff\xff\xff\xff\x0f",
    "varint longer than 64 bits": b"l" + b"\xff" * 11,
    "presence byte of 2": _tagged("ReadsetDigest") + b"\x02\x00",
    "messages nested past the bound": (_tagged("ClientPropose") + b"\x01g") * 100 + b"N",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_raises_codec_error(data):
    with pytest.raises(CodecError):
        decode_packed(data)


def test_a_rejecting_constructor_is_chained():
    with pytest.raises(CodecError) as info:
        decode_packed(MALFORMED["constructor rejects its fields"])
    assert "exactly one of keys/bloom" in str(info.value.__cause__)


def test_a_count_never_outruns_the_frame():
    """A 2**35-item list in six bytes is refused before anything loops."""
    huge = b"t\x80\x80\x80\x80\x80\x01"
    with pytest.raises(CodecError, match="truncated"):
        decode_packed(huge)
    # The same inside a compiled body: CommitGossip.globals_committed
    # follows the tag, ``partition`` and the eight bytes of ``sc``.
    frame = encode_packed(CommitGossip(partition="p0", sc=1, globals_committed=()))
    at = len(_tagged("CommitGossip") + b"\x02p0") + 8
    assert frame[at] == 0  # the empty tuple's count
    with pytest.raises(CodecError, match="truncated"):
        decode_packed(frame[:at] + b"\xff\xff\xff\x7f" + frame[at + 1 :])


def test_trailing_bytes_rejected():
    for data in (encode_packed(PROJ) + b"\x00", b"N\x00"):
        with pytest.raises(CodecError, match="trailing"):
            decode_packed(data)


def test_truncated_frame_rejected():
    """At every length short of the whole frame."""
    for msg in (PROJ, BLOOM_PROJ, Envelope("s1", Accept("p0", (1, 0), 9, PROJ))):
        data = encode_packed(msg)
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_packed(data[:cut])


def test_unknown_type_tag_rejected():
    with pytest.raises(CodecError, match="unknown packed type tag 0xfe"):
        decode_packed(b"\xfe")


def test_nesting_is_bounded_the_same_on_both_sides():
    def nested(levels):
        value = 0
        for _ in range(levels):
            value = [value]
        return value

    # The message is level 0, so MAX_DEPTH - 1 lists fit inside it.
    deepest = _edge(nested(MAX_DEPTH - 1))
    assert packed_roundtrip(deepest) == deepest
    with pytest.raises(CodecError, match="nested deeper"):
        encode_packed(_edge(nested(MAX_DEPTH)))
    loop: list = []
    loop.append(loop)
    with pytest.raises(CodecError, match="nested deeper"):
        encode_packed(_edge(loop))


# ----------------------------------------------------------------------
# Encode is honest about annotations
# ----------------------------------------------------------------------
def _proj(**overrides):
    fields = dict(
        tid=TID, partition="p0", readset=ReadsetDigest.exact(["0/a"]),
        writeset={"0/a": 1}, snapshot=7, partitions=("p0",), coordinator="s1", client="c9",
    )
    return TxnProjection(**{**fields, **overrides})


MISFITS = {
    "TxnProjection.snapshot": _proj(snapshot="7"),
    "TxnProjection.epoch": _proj(epoch=2**63),
    "TxnProjection.writeset": _proj(writeset={7: "int key"}),
    "TxnProjection.partitions": _proj(partitions=["p0"]),
    "TxnProjection.coordinator": _proj(coordinator=b"s1"),
    "TxnProjection.tid": _proj(tid=("c9", 42)),
    "TxnProjection.readset": _proj(readset={"0/a"}),
    "TxnId.seq": _proj(tid=TxnId("c9", 4.5)),
    "TxnId.client": _proj(tid=TxnId(None, 1)),
    "ReadsetDigest.keys": _proj(readset=ReadsetDigest(keys={"0/a"})),
    "ReadsetDigest.bloom": _proj(readset=ReadsetDigest(bloom="filter")),
    "ReadRequest.snapshot": ReadRequest(TID, 0, ("k",), "latest", "c9"),
    "Accept.ballot": Accept("p0", (1, 0, 0), 9, None),
    "Accept.instance": Accept("p0", (1, 0), None, None),
    "CommitGossip.resync": CommitGossip(partition="p0", sc=1, resync=1),
    "CommitGossip.globals_committed": CommitGossip(
        partition="p0", sc=1, globals_committed=((TID, "4", ("p0",)),)
    ),
}


@pytest.mark.parametrize("where", MISFITS)
def test_a_misfit_value_names_its_field(where):
    with pytest.raises(CodecError, match=where.replace(".", r"\.")) as info:
        encode_packed(MISFITS[where])
    # Inside an Envelope, as the transport sends it, too.
    with pytest.raises(CodecError, match=where.replace(".", r"\.")):
        encode_packed(Envelope(src="s1", payload=MISFITS[where]))
    assert info.value.__cause__ is not None


def test_unencodable_values_raise_codec_error():
    @dataclass(frozen=True)
    class NotRegistered:
        x: int

    for value in (NotRegistered(1), object(), lambda: None, 1j, "\ud800"):
        with pytest.raises(CodecError):
            encode_packed(_edge(value))


# ----------------------------------------------------------------------
# Schemas the compiler refuses, and the ones it falls back on
# ----------------------------------------------------------------------
@message
@dataclass(frozen=True)
class _Tree(Message):
    children: "tuple[_Tree, ...]" = ()


@message
@dataclass(frozen=True)
class _Hollow(Message):
    noops: tuple[PaxosNoop, ...] = ()


@message
@dataclass(frozen=True)
class _Derived(Message):
    seq: int
    double: int = field(init=False, default=0)


@message
@dataclass(frozen=True)
class _Loose(Message):
    """Annotations outside the type table travel tagged, and say so."""

    items: list[int]
    table: dict
    pair: tuple[int, str] | None = None


@pytest.mark.parametrize(
    "msg, complaint",
    [(_Tree(), "recursive"), (_Hollow(), "zero-width"), (_Derived(1), "init=False")],
    ids=["recursive", "zero-width items", "init=False"],
)
def test_schemas_that_cannot_travel_are_refused_at_compile(msg, complaint):
    with pytest.raises(CodecError, match=complaint):
        encode_packed(msg)
    with pytest.raises(CodecError, match=complaint):
        decode_packed(_tagged(type(msg).__name__))


def test_unlisted_annotations_fall_back_to_the_tagged_path():
    assert tagged_fields(_Loose) == {"items", "table"}
    msg = _Loose(items=[1, 2], table={"k": (1,)}, pair=(3, "x"))
    assert packed_roundtrip(msg) == msg


# ----------------------------------------------------------------------
# The codec table
# ----------------------------------------------------------------------
def test_get_codec_returns_matching_pairs():
    for name in ("json", "packed"):
        encode, decode = get_codec(name)
        assert decode(encode(PROJ)) == PROJ
    assert get_codec("json") == CODECS["json"] == (encode_message, decode_message)
    assert get_codec("packed") == (encode_packed, decode_packed)


def test_get_codec_unknown_name_raises():
    with pytest.raises(CodecError, match="msgpack"):
        get_codec("msgpack")


def test_sim_network_roundtrips_through_packed_codec():
    from repro.runtime.sim import SimWorld

    world = SimWorld(codec_roundtrip=True)
    received = []
    world.network.register("a", lambda src, msg: None)
    world.network.register("b", lambda src, msg: received.append(msg))
    world.network.send("a", "b", PROJ)
    world.run_for(1.0)
    assert received == [PROJ] and received[0] is not PROJ
    assert world.network.bytes_sent == len(encode_packed(PROJ))
