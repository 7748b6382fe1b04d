"""Struct-packed binary wire codec.

The default codec (:mod:`repro.net.message`) serializes every message as
tagged JSON: each dataclass field travels with its *name*, sets and
tuples are wrapped in marker objects, and bytes are base64-inflated.
That is self-describing and diffable, but on the hot path the field
names dominate the frame — an ``OutcomeNotice`` is mostly the strings
``"tid"``, ``"outcome"``, ``"partition"`` repeated per message.

This module provides the packed alternative: a length-prefixed binary
format in which dataclass fields are encoded **positionally** (no
per-field names — the registered message class supplies the field order
at both ends), integers and floats travel as fixed-width struct packs,
and strings/bytes/collections carry varint length prefixes.  Compare
SNIPPETS-style compact Paxos framing: the wire carries values, not
schema.

Both codecs share the message registry of :mod:`repro.net.message`, so
anything the JSON codec can carry, this one can too — the wire-coverage
test round-trips every registered message through both.  Transports
select a codec by name (``codec="packed"`` on :class:`SimNetwork` and
:class:`AioTransport`); the JSON codec remains the default.

Format (one byte of type tag, then the payload):

====  ====================================================
tag   payload
====  ====================================================
``N``  None (empty)
``T``  True (empty)
``F``  False (empty)
``i``  int, 8-byte signed big-endian
``Z``  int outside 64 bits: varint byte-length + big-endian bytes
``f``  float, IEEE-754 double big-endian
``s``  str: varint byte-length + UTF-8 bytes
``b``  bytes: varint length + raw bytes
``l``  list: varint count + encoded items
``t``  tuple: varint count + encoded items
``S``  frozenset: varint count + items (sorted by encoding)
``d``  dict: varint count + alternating encoded keys/values
``M``  message: varint tag-length + tag UTF-8 + fields in
       dataclass declaration order, positionally
====  ====================================================
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable

from repro.errors import CodecError
from repro.net.message import decode_message, encode_message, field_names, registry

_INT64 = struct.Struct(">q")
_DOUBLE = struct.Struct(">d")
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (lengths and counts are never negative)."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(0x4E)  # N
    elif value is True:
        out.append(0x54)  # T
    elif value is False:
        out.append(0x46)  # F
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(0x69)  # i
            out += _INT64.pack(value)
        else:
            out.append(0x5A)  # Z
            length = (value.bit_length() + 8) // 8  # signed: one spare bit
            _write_varint(out, length)
            out += value.to_bytes(length, "big", signed=True)
    elif isinstance(value, float):
        out.append(0x66)  # f
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        raw = value.encode()
        out.append(0x73)  # s
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(value, bytes):
        out.append(0x62)  # b
        _write_varint(out, len(value))
        out += value
    elif (names := field_names.get(type(value))) is not None:
        raw = type(value).__name__.encode()
        out.append(0x4D)  # M
        _write_varint(out, len(raw))
        out += raw
        for name in names:
            _encode_into(out, getattr(value, name))
    elif isinstance(value, (list, tuple)):
        out.append(0x6C if isinstance(value, list) else 0x74)  # l / t
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, (set, frozenset)):
        # Sort by encoding for a deterministic wire image (sets hash-order
        # differently across processes; the JSON codec sorts by repr).
        encoded = sorted(encode_packed_value(item) for item in value)
        out.append(0x53)  # S
        _write_varint(out, len(encoded))
        for item in encoded:
            out += item
    elif isinstance(value, dict):
        out.append(0x64)  # d
        _write_varint(out, len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(f"dataclass {type(value).__name__} is not a registered message")
    else:
        raise CodecError(
            f"cannot encode value of type {type(value).__name__}: {value!r}"
        )


def encode_packed_value(value: Any) -> bytes:
    """Encode one value (not necessarily a registered message)."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def encode_packed(msg: Any) -> bytes:
    """Serialize a registered message to packed wire bytes."""
    try:
        return encode_packed_value(msg)
    except (struct.error, OverflowError, UnicodeError) as exc:
        raise CodecError(f"failed to encode {msg!r}") from exc


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, length: int) -> bytes:
        end = self.pos + length
        if end > len(self.data):
            raise CodecError("truncated packed frame")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def varint(self) -> int:
        value = 0
        shift = 0
        data = self.data
        while True:
            if self.pos >= len(data):
                raise CodecError("truncated varint")
            byte = data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == 0x4E:  # N
        return None
    if tag == 0x54:  # T
        return True
    if tag == 0x46:  # F
        return False
    if tag == 0x69:  # i
        return _INT64.unpack(reader.take(8))[0]
    if tag == 0x5A:  # Z
        return int.from_bytes(reader.take(reader.varint()), "big", signed=True)
    if tag == 0x66:  # f
        return _DOUBLE.unpack(reader.take(8))[0]
    if tag == 0x73:  # s
        return reader.take(reader.varint()).decode()
    if tag == 0x62:  # b
        return reader.take(reader.varint())
    if tag == 0x6C:  # l
        return [_decode_from(reader) for _ in range(reader.varint())]
    if tag == 0x74:  # t
        return tuple(_decode_from(reader) for _ in range(reader.varint()))
    if tag == 0x53:  # S
        return frozenset(_decode_from(reader) for _ in range(reader.varint()))
    if tag == 0x64:  # d
        return {
            _decode_from(reader): _decode_from(reader)
            for _ in range(reader.varint())
        }
    if tag == 0x4D:  # M
        name = reader.take(reader.varint()).decode()
        cls = registry.get(name)
        if cls is None:
            raise CodecError(f"unknown message tag {name!r}")
        return cls(**{field: _decode_from(reader) for field in field_names[cls]})
    raise CodecError(f"unknown packed type tag {tag:#x}")


def decode_packed(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`encode_packed`."""
    try:
        reader = _Reader(data)
        value = _decode_from(reader)
    except (struct.error, UnicodeError) as exc:
        raise CodecError(f"failed to decode {data[:80]!r}") from exc
    if reader.pos != len(data):
        raise CodecError(f"{len(data) - reader.pos} trailing bytes in packed frame")
    return value


def packed_roundtrip(msg: Any) -> Any:
    """Encode then decode (used by the paranoid simulated transport)."""
    return decode_packed(encode_packed(msg))


#: Codec name -> (encoder, decoder).  Transports resolve this once.
CODECS: dict[str, tuple[Callable[[Any], bytes], Callable[[bytes], Any]]] = {
    "json": (encode_message, decode_message),
    "packed": (encode_packed, decode_packed),
}


def get_codec(name: str) -> tuple[Callable[[Any], bytes], Callable[[bytes], Any]]:
    """Resolve a codec by name (``"json"`` or ``"packed"``)."""
    try:
        return CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(CODECS)}"
        ) from None
