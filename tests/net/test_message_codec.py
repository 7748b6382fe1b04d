"""Unit and property tests for the wire codec."""

from dataclasses import dataclass, field

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.message import (
    Message,
    decode_message,
    encode_message,
    message,
)
from tests.conftest import roundtrip


@message
@dataclass(frozen=True)
class _Ping(Message):
    seq: int
    note: str = ""


@message
@dataclass(frozen=True)
class _Blob(Message):
    data: bytes
    tags: frozenset = frozenset()
    pair: tuple = ()
    table: dict = field(default_factory=dict)


@message
@dataclass(frozen=True)
class _Nested(Message):
    inner: _Ping
    extras: list = field(default_factory=list)


class TestBasicRoundtrip:
    def test_simple_message(self):
        assert roundtrip(_Ping(seq=7, note="hi")) == _Ping(seq=7, note="hi")

    def test_scalars_survive(self):
        msg = _Nested(inner=_Ping(seq=0), extras=[None, True, False, 1, 2.5, "s"])
        assert roundtrip(msg) == msg

    def test_bytes(self):
        msg = _Blob(data=b"\x00\xff\x01binary")
        assert roundtrip(msg).data == b"\x00\xff\x01binary"

    def test_frozenset(self):
        msg = _Blob(data=b"", tags=frozenset({"a", "b", "c"}))
        assert roundtrip(msg).tags == frozenset({"a", "b", "c"})

    def test_tuple_stays_tuple(self):
        msg = _Blob(data=b"", pair=("x", 1, ("nested", 2)))
        decoded = roundtrip(msg)
        assert decoded.pair == ("x", 1, ("nested", 2))
        assert isinstance(decoded.pair, tuple)
        assert isinstance(decoded.pair[2], tuple)

    def test_dict_with_string_keys(self):
        msg = _Blob(data=b"", table={"k1": 1, "k2": [1, 2]})
        assert roundtrip(msg).table == {"k1": 1, "k2": [1, 2]}

    def test_dict_with_message_keys(self):
        key = _Ping(seq=1)
        msg = _Blob(data=b"", table={key: "value"})
        decoded = roundtrip(msg)
        assert decoded.table == {key: "value"}

    def test_dict_with_dunder_style_string_key_is_escaped(self):
        msg = _Blob(data=b"", table={"__msg__": "sneaky"})
        assert roundtrip(msg).table == {"__msg__": "sneaky"}

    def test_nested_messages(self):
        msg = _Nested(inner=_Ping(seq=3, note="n"), extras=[_Ping(seq=4)])
        decoded = roundtrip(msg)
        assert decoded.inner == _Ping(seq=3, note="n")
        assert decoded.extras == [_Ping(seq=4)]

    def test_wire_format_is_json_bytes(self):
        wire = encode_message(_Ping(seq=1))
        assert isinstance(wire, bytes)
        assert wire.startswith(b"{")


class TestErrors:
    def test_unregistered_dataclass_rejected(self):
        @dataclass(frozen=True)
        class NotRegistered:
            x: int

        with pytest.raises(CodecError):
            encode_message(NotRegistered(x=1))

    def test_unencodable_value_rejected(self):
        with pytest.raises(CodecError):
            encode_message(_Blob(data=b"", table={"fn": lambda: None}))

    def test_decode_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b'{"__msg__": "NoSuchMessage", "f": {}}')

    def test_decode_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"not json at all")

    def test_duplicate_tag_rejected(self):
        with pytest.raises(CodecError):

            @message
            @dataclass(frozen=True)
            class _Ping(Message):  # noqa: F811 - deliberate name collision
                other: int

    def test_non_dataclass_registration_rejected(self):
        with pytest.raises(CodecError):
            message(object)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=20),
)
values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.binary(max_size=16),
        st.tuples(children, children),
        st.frozensets(st.text(max_size=8), max_size=4),
    ),
    max_leaves=12,
)


class TestPropertyRoundtrip:
    @given(seq=st.integers(min_value=0, max_value=2**40), note=st.text(max_size=50))
    def test_ping_roundtrips(self, seq, note):
        assert roundtrip(_Ping(seq=seq, note=note)) == _Ping(seq=seq, note=note)

    @given(extras=st.lists(values, max_size=5))
    def test_arbitrary_payloads_roundtrip(self, extras):
        msg = _Nested(inner=_Ping(seq=0), extras=extras)
        assert roundtrip(msg) == msg

    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes_roundtrip(self, data):
        assert roundtrip(_Blob(data=data)).data == data
