"""The message registry, and the tagged-JSON codec over it.

Every protocol message in the system is a frozen dataclass registered with
the :func:`message` decorator.  Registration assigns a tag (the class
name) that both codecs put on the wire.  What travels between nodes and
into the WAL is the schema-compiled binary encoding of
:mod:`repro.net.codec`, compiled from the registry on first use; this
module's JSON encoding is self-describing and diffable, and stays for
what that is worth: the checkpoint format (:mod:`repro.core.checkpoint`),
a readable dump of any message, ``get_codec("json")``, and the oracle the
binary codec is tested against.  It round-trips the value types messages
use:

* dataclass messages (nested arbitrarily),
* ``bytes`` (base64), ``frozenset``/``set``, ``tuple``,
* dicts with non-string keys,
* ``None``, ``bool``, ``int``, ``float``, ``str``, lists.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from typing import Any, Type, TypeVar

from repro.errors import CodecError


class Message:
    """Marker base class for protocol messages (all are dataclasses)."""

    __slots__ = ()


_T = TypeVar("_T")

#: Wire tag -> message class.
registry: dict[str, type] = {}

#: Registered message class -> its field names in declaration order,
#: resolved once at registration.  The JSON codec walks a message
#: through this table instead of asking :mod:`dataclasses` per object;
#: the binary codec reads it to know a registered class when it sees one.
field_names: dict[type, tuple[str, ...]] = {}


def message(cls: Type[_T]) -> Type[_T]:
    """Class decorator registering a dataclass as a wire message.

    The class must already be a dataclass (apply ``@dataclass(frozen=True)``
    below this decorator) and its name must be unique across the process.
    """
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls.__name__} must be a dataclass to be a message")
    tag = cls.__name__
    existing = registry.get(tag)
    if existing is not None and existing is not cls:
        raise CodecError(f"duplicate message tag {tag!r}")
    registry[tag] = cls
    field_names[cls] = tuple(field.name for field in dataclasses.fields(cls))
    return cls


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    names = field_names.get(type(value))
    if names is not None:
        fields = {name: _encode_value(getattr(value, name)) for name in names}
        return {"__msg__": type(value).__name__, "f": fields}
    if isinstance(value, bytes):
        return {"__b64__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (set, frozenset)):
        return {"__set__": [_encode_value(item) for item in sorted(value, key=repr)]}
    if isinstance(value, tuple):
        return {"__tup__": [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) and not key.startswith("__") for key in value):
            return {key: _encode_value(item) for key, item in value.items()}
        return {
            "__dict__": [
                [_encode_value(key), _encode_value(item)] for key, item in value.items()
            ]
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(f"dataclass {type(value).__name__} is not a registered message")
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    if isinstance(value, dict):
        if "__msg__" in value:
            tag = value["__msg__"]
            cls = registry.get(tag)
            if cls is None:
                raise CodecError(f"unknown message tag {tag!r}")
            fields = {key: _decode_value(item) for key, item in value["f"].items()}
            return cls(**fields)
        if "__b64__" in value:
            return base64.b64decode(value["__b64__"])
        if "__set__" in value:
            return frozenset(_decode_value(item) for item in value["__set__"])
        if "__tup__" in value:
            return tuple(_decode_value(item) for item in value["__tup__"])
        if "__dict__" in value:
            return {
                _decode_value(key): _decode_value(item) for key, item in value["__dict__"]
            }
        return {key: _decode_value(item) for key, item in value.items()}
    return value


def encode_message(msg: Any) -> bytes:
    """Serialize a registered message to its JSON wire bytes."""
    try:
        return json.dumps(_encode_value(msg), separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise CodecError(f"failed to encode {msg!r}") from exc


def decode_message(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`encode_message`."""
    try:
        return _decode_value(json.loads(data))
    except (TypeError, ValueError, KeyError) as exc:
        raise CodecError(f"failed to decode {data[:80]!r}") from exc


def roundtrip(msg: Any) -> Any:
    """Encode then decode through JSON (a test helper)."""
    return decode_message(encode_message(msg))
