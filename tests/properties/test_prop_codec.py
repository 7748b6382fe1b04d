"""Property tests of the wire codec (repro.net.codec).

Two properties, from the codec's contract:

* **Round trip, against the oracle.**  Arbitrary nested values in the
  ``Any`` positions of real messages survive the packed codec exactly as
  they survive the JSON one — same value, same types.
* **Decode is total.**  Any valid frame truncated, extended, with bytes
  flipped or with a piece of another frame spliced in either decodes to
  a value or raises ``CodecError`` — nothing else (the transport's
  blanket ``except`` hid the difference on TCP; WAL replay cannot).

The malformed inputs ISSUE 21 showed leaking other exceptions out of the
previous decoder are pinned as explicit examples.
"""

from dataclasses import fields, is_dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consensus.messages import Accept, Batch
from repro.core.messages import ReadResponse
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.errors import CodecError
from repro.net.asyncio_transport import Envelope
from repro.net.codec import decode_packed, encode_packed
from repro.net.message import decode_message, encode_message

keys = st.text(max_size=8)
tids = st.builds(TxnId, st.text(max_size=6), st.integers(-(2**63), 2**63 - 1))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    tids,
)
hashables = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), keys, st.binary(max_size=6)),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=5,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(hashables, inner, max_size=3),
        st.frozensets(hashables, max_size=3),
    ),
    max_leaves=12,
)
projections = st.builds(
    TxnProjection,
    tid=tids,
    partition=st.just("p0"),
    readset=st.one_of(
        st.builds(ReadsetDigest, keys=st.frozensets(keys, max_size=4)),
        st.builds(ReadsetDigest, bloom=st.binary(max_size=16)),
    ),
    writeset=st.dictionaries(keys, values, max_size=3),
    snapshot=st.integers(0, 2**40),
    partitions=st.just(("p0", "p1")),
    coordinator=keys,
    client=keys,
    epoch=st.integers(0, 9),
)
messages = st.one_of(
    st.builds(
        ReadResponse, tid=tids, op_id=st.integers(0, 99), key=keys, value=values,
        snapshot=st.integers(0, 99), item_version=st.integers(0, 99),
        partition=st.just("p0"), error=st.none() | keys,
    ),
    st.builds(
        Accept, group=st.just("p0"), ballot=st.tuples(st.integers(0, 9), st.integers(-1, 9)),
        instance=st.integers(0, 2**40), value=projections | values,
    ),
    st.builds(Batch, values=st.lists(projections | values, max_size=3).map(tuple)),
).map(lambda payload: Envelope(src="s1", payload=payload))


def typed(value):
    """``value`` with the type of every node made part of it (``==``
    alone lets ``True`` pass for ``1`` and a ``str`` for an ``Outcome``)."""
    name = type(value).__name__
    if isinstance(value, (list, tuple)):
        return name, [typed(item) for item in value]
    if isinstance(value, frozenset):
        return name, sorted((typed(item) for item in value), key=repr)
    if isinstance(value, dict):
        return name, [(typed(key), typed(item)) for key, item in value.items()]
    if is_dataclass(value):
        return name, [typed(getattr(value, field.name)) for field in fields(value)]
    return name, value


@settings(max_examples=150)
@given(messages)
def test_any_positions_roundtrip_like_the_oracle(msg):
    packed = decode_packed(encode_packed(msg))
    assert packed == msg
    assert typed(packed) == typed(decode_message(encode_message(msg))) == typed(msg)
    assert encode_packed(packed) == encode_packed(msg)  # one wire image


@st.composite
def mangled(draw) -> bytes:
    data = bytearray(encode_packed(draw(messages)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["truncate", "extend", "flip", "splice"]))
        at = draw(st.integers(0, len(data)))
        if how == "truncate":
            del data[at:]
        elif how == "extend":
            data += draw(st.binary(min_size=1, max_size=8))
        elif how == "flip" and data:
            data[at % len(data)] ^= 1 << draw(st.integers(0, 7))
        elif how == "splice":
            other = encode_packed(draw(messages))
            start = draw(st.integers(0, len(other)))
            data[at:at] = other[start : start + draw(st.integers(1, 24))]
    return bytes(data)


@settings(max_examples=300)
@given(mangled() | st.binary(max_size=64))
@example(b"d\x01l\x00N")  # a dict keyed by a list          (was TypeError)
@example(b"S\x01l\x00")  # a set of lists                   (was TypeError)
@example(b"M\x0dReadsetDigest\x00\x00")  # neither keys nor bloom (was ProtocolError)
@example(b"l\x01" * 5000 + b"N")  # nesting past the bound   (was RecursionError)
def test_decode_is_total(data):
    try:
        value = decode_packed(data)
    except CodecError:
        return
    encode_packed(value)  # what decodes is a value the codec owns
