"""Schema-compiled binary wire codec — the one on TCP and in the WAL.

Every class the ``@message`` registry holds is compiled, once, on its
first use, into a positional encoder and decoder specialised to the
field types it declares: the wire carries values in a fixed layout and
the schema lives in code at both ends (the ``paxos_encode`` idiom of
SNIPPETS.md #3).  The compiler reads ``typing.get_type_hints`` and
writes Python source the way :mod:`dataclasses` writes ``__init__``:
one straight-line function per class, adjacent fixed-width fields
sharing one ``struct`` call, nested registered classes inlined.

What a declared type puts on the wire (integers big-endian):

===================  ================================================
declared type        wire image
===================  ================================================
``int``              8 bytes, signed
``float``            8 bytes, IEEE-754 double (an ``int`` is accepted
                     where ``float`` is declared and arrives a float)
``bool``             1 byte, 0 / 1
``str``              varint byte-length + UTF-8
``bytes``            varint length + raw bytes
``X | None``         1 presence byte (0 / 1), then ``X`` if present
``tuple[A, B]``      ``A`` then ``B`` — the arity is the schema's
``tuple[X, ...]``    varint count + items
``dict[K, V]``       varint count + key, value pairs in dict order
``frozenset[str]``   varint count + items **sorted**, so equal sets
                     have equal wire images in every process
registered class     its compiled body inline: no tag, no name
``Any``              one tagged value (below)
===================  ================================================

A schema cannot fix what is annotated ``Any`` (``Accept.value``,
``Envelope.payload``, ``ReadResponse.value``, writeset values) nor the
top-level value handed to :func:`encode_packed`; those stay
self-describing — one type byte, then the payload:

=====  ========================================================
tag    payload
=====  ========================================================
``N``  None (empty)
``T``  True (empty)
``F``  False (empty)
``i``  int, 8 bytes signed
``Z``  int outside 64 bits: varint byte-length + signed bytes
``f``  float, 8-byte double
``s``  str: varint byte-length + UTF-8
``b``  bytes: varint length + raw
``l``  list: varint count + tagged items
``t``  tuple: varint count + tagged items
``S``  frozenset: varint count + tagged items sorted by encoding
``d``  dict: varint count + alternating tagged keys / values
``M``  registered message: varint name-length + class name +
       the class's compiled body
=====  ========================================================

Encoding is honest about annotations: a value that does not fit its
field's declared type raises :class:`CodecError` naming ``Class.field``
(``int`` / ``str`` subclasses such as ``Outcome`` travel as their base
value).  Decoding is total: any byte string either decodes or raises
:class:`CodecError` — truncation, trailing bytes, unknown tags, a count
larger than the bytes left, nesting past :data:`MAX_DEPTH`, an
unhashable key, a constructor that rejects its fields.  Constructors
(and ``__post_init__``) run on decode.

Every string a schema types as ``str`` is a name — a key of a
``frozenset[str]`` or ``dict[str, ...]`` field, ``TxnId.client``, a
partition or node id — and is decoded through :func:`sys.intern`: a
process holds one object per distinct name however many frames carried
it, the windows, chains and dedup tables of every replica share it, and
dict lookups on it hit the identity fast path.  Strings on the tagged
``Any`` path are values (``ReadResponse.value``, writeset values) and
stay as decoded.  An interned string lives as long as the interpreter
lets it, and ``requires-python >= 3.11`` admits interpreters that
differ: CPython 3.11 frees an interned string with its last reference
(``tests/net/test_codec.py`` checks that), while CPython 3.12
makes every interned string immortal (PEP 683; gh-113601 made them
mortal again in the default build of later releases) and so does the
free-threaded build.  On an interpreter that keeps them, a keyspace that
grows without bound leaks one string per distinct key ever decoded.

The JSON codec of :mod:`repro.net.message` stays as the checkpoint
format, the readable dump, ``get_codec("json")`` and the oracle this
codec is tested against; it is not selectable on a transport.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
import types
import typing
from typing import Any, Callable

from repro.errors import CodecError
from repro.net.message import decode_message, encode_message, field_names, registry

#: Deepest nesting of containers and messages on the tagged path, on
#: encode and on decode alike (so what encodes, decodes).
MAX_DEPTH = 64

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_pack_q, _unpack_q = struct.Struct(">q").pack, struct.Struct(">q").unpack_from
_pack_d, _unpack_d = struct.Struct(">d").pack, struct.Struct(">d").unpack_from

#: What a generated encoder's operations raise on a value that does not
#: fit (``ValueError`` covers ``UnicodeError`` and a wrong tuple arity).
_ENCODE_ERRORS = (struct.error, TypeError, AttributeError, ValueError, OverflowError)


# ----------------------------------------------------------------------
# Shared helpers of the generated and the tagged code
# ----------------------------------------------------------------------
def _put_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (lengths and counts are never negative)."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _get_varint(data: bytes, pos: int) -> tuple[int, int]:
    """A varint of two or more bytes (callers inline the one-byte case)."""
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint longer than 64 bits")


def _truncated() -> CodecError:
    return CodecError("truncated packed frame")


def _too_deep() -> CodecError:
    return CodecError(f"value nested deeper than {MAX_DEPTH} levels")


def _bad_presence(byte: int) -> CodecError:
    return CodecError(f"presence byte must be 0 or 1, got {byte:#x}")


def _misfit(where: str, value: Any) -> CodecError:
    return CodecError(f"{where}: {value!r} does not fit the declared type")


def _run_misfit(wheres: tuple[str, ...], codes: str, values: tuple) -> CodecError:
    """Name the member of a fixed-width run that ``struct`` refused."""
    for where, code, value in zip(wheres, codes, values):
        try:
            struct.pack(">" + code, value)
        except (struct.error, TypeError, OverflowError):
            return _misfit(where, value)
    return CodecError(f"cannot pack {values!r} for {wheres}")  # pragma: no cover


# ----------------------------------------------------------------------
# Schema: a declared type -> the shape the compiler understands
# ----------------------------------------------------------------------
_SCALARS = {int: "int", float: "float", bool: "bool", str: "str", bytes: "bytes"}


def _shape(tp: Any, outer: tuple[type, ...], where: str) -> tuple:
    """The wire shape of one declared type; ``("any",)`` is the tagged
    fallback, for ``Any`` and for whatever the table above does not list.
    ``outer`` holds the classes this position is nested in."""
    if tp in _SCALARS:
        return (_SCALARS[tp],)
    if tp in field_names:
        return ("msg", tp, _field_shapes(tp, outer))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _shape(args[0] if args[1] is type(None) else args[1], outer, where)
        return inner if inner == ("any",) else ("opt", inner)
    if origin is tuple and args and Ellipsis not in args:
        return ("tuple", *(_shape(arg, outer, where) for arg in args))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        items = (_shape(args[0], outer, where),)
    elif origin is dict and len(args) == 2:
        items = (_shape(args[0], outer, where), _shape(args[1], outer, where))
    elif origin is frozenset and args == (str,):
        items = (("str",),)
    else:
        return ("any",)
    # A count is checked against the bytes left in the frame, which
    # bounds the decoder's work only if every item takes at least a byte.
    if not sum(map(_min_size, items)):
        raise CodecError(f"{where}: a collection of zero-width items cannot travel")
    return ({tuple: "seq", dict: "dict", frozenset: "strset"}[origin], *items)


def _field_shapes(cls: type, outer: tuple[type, ...] = ()) -> tuple[tuple[str, tuple], ...]:
    """``(field name, shape)`` of registered class ``cls``, in order."""
    if cls in outer:
        raise CodecError(f"recursive message schema at {cls.__name__}")
    try:
        hints = typing.get_type_hints(cls)
    except Exception as exc:
        raise CodecError(f"cannot resolve the field types of {cls.__name__}") from exc
    shapes = []
    for field in dataclasses.fields(cls):
        where = f"{cls.__name__}.{field.name}"
        if not field.init:
            raise CodecError(f"{where}: an init=False field cannot travel")
        shapes.append((field.name, _shape(hints[field.name], (*outer, cls), where)))
    return tuple(shapes)


def _min_size(shape: tuple) -> int:
    """Fewest bytes a value of ``shape`` can occupy."""
    kind = shape[0]
    if kind in ("int", "float"):
        return 8
    if kind == "tuple":
        return sum(map(_min_size, shape[1:]))
    if kind == "msg":
        return sum(_min_size(item) for _, item in shape[2])
    return 1


# ----------------------------------------------------------------------
# The compiler: one encoder and one decoder function per class
# ----------------------------------------------------------------------
_CONTAINERS = {"seq": "tuple", "strset": "frozenset", "dict": "dict"}
_STRUCT_CODES = {"int": "q", "float": "d", "bool": "?"}


class _Emitter:
    """Source of one generated function, and the names it refers to."""

    def __init__(self, namespace: dict[str, Any]) -> None:
        self.lines: list[str] = []
        self.level = 1
        self.namespace = namespace
        self.temps = 0
        #: Pending fixed-width items, written or read by one struct call.
        self.run: list[tuple] = []

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def temp(self) -> str:
        self.temps += 1
        return f"v{self.temps}"

    def struct_fn(self, codes: str, method: str) -> str:
        name = f"_{method}_{codes.replace('?', 'b')}"
        self.namespace.setdefault(name, getattr(struct.Struct(">" + codes), method))
        return name

    def class_name(self, cls: type) -> str:
        name = f"_cls_{cls.__name__}"
        self.namespace[name] = cls
        return name


class _EncoderSource(_Emitter):
    """Emits the body of ``encode(o, out, depth)``."""

    def flush(self) -> None:
        if not self.run:
            return
        codes = "".join(code for code, _, _ in self.run)
        values = ", ".join(expr for _, expr, _ in self.run)
        wheres = tuple(where for _, _, where in self.run)
        self.run = []
        self.emit("try:")
        self.emit(f"    out += {self.struct_fn(codes, 'pack')}({values})")
        self.emit("except _ENCODE_ERRORS as exc:")
        self.emit(f"    raise _run_misfit({wheres!r}, {codes!r}, ({values},)) from exc")

    def length(self, expr: str) -> None:
        self.emit(f"n = {expr}")
        self.emit("if n < 128: out.append(n)")
        self.emit("else: _put_varint(out, n)")

    def fields(self, cls: type, shapes: tuple, obj: str) -> None:
        """Encode every field of ``obj``, a local holding a ``cls``."""
        for name, shape in shapes:
            where = f"{cls.__name__}.{name}"
            if shape[0] in ("int", "float"):  # joins the run as it stands
                self.value(shape, f"{obj}.{name}", where)
                continue
            value = self.temp()
            self.emit(f"{value} = {obj}.{name}")
            self.emit("try:")
            self.level += 1
            self.value(shape, value, where)
            self.level -= 1
            self.emit("except _ENCODE_ERRORS as exc:")
            self.emit(f"    raise _misfit({where!r}, {value}) from exc")

    def value(self, shape: tuple, value: str, where: str) -> None:
        """Encode ``value`` (a local, or for a fixed-width shape any
        expression); a guard that fails raises one of ``_ENCODE_ERRORS``,
        which the enclosing field names."""
        kind = shape[0]
        if kind in ("int", "float"):
            self.run.append((_STRUCT_CODES[kind], value, where))
        elif kind == "bool":
            self.emit(f"if {value} is not True and {value} is not False: raise TypeError")
            self.run.append(("?", value, where))
        elif kind == "str":
            self.flush()
            self.emit(f"raw = {value}.encode()")
            self.length("len(raw)")
            self.emit("out += raw")
        elif kind == "bytes":
            self.flush()
            self.emit(f"if {value}.__class__ is not bytes: raise TypeError")
            self.length(f"len({value})")
            self.emit(f"out += {value}")
        elif kind == "opt":
            self.flush()
            self.emit(f"if {value} is None: out.append(0)")
            self.emit("else:")
            self.level += 1
            self.emit("out.append(1)")
            self.value(shape[1], value, where)
            self.flush()
            self.level -= 1
        elif kind == "tuple":
            self.emit(f"if {value}.__class__ is not tuple: raise TypeError")
            items = [self.temp() for _ in shape[1:]]
            self.emit(f"{', '.join(items)}, = {value}")
            for item_shape, item in zip(shape[1:], items):
                self.value(item_shape, item, where)
        elif kind in _CONTAINERS:
            self.flush()
            self.emit(f"if {value}.__class__ is not {_CONTAINERS[kind]}: raise TypeError")
            self.length(f"len({value})")
            items = [self.temp() for _ in shape[1:]]
            source = {"seq": value, "strset": f"sorted({value})", "dict": f"{value}.items()"}[kind]
            self.emit(f"for {', '.join(items)} in {source}:")
            self.level += 1
            for item_shape, item in zip(shape[1:], items):
                self.value(item_shape, item, where)
            self.flush()
            self.level -= 1
        elif kind == "msg":
            self.emit(f"if {value}.__class__ is not {self.class_name(shape[1])}: raise TypeError")
            self.fields(shape[1], shape[2], value)
        else:
            self.flush()
            self.emit(f"_encode_any({value}, out, inner)")


class _DecoderSource(_Emitter):
    """Emits the body of ``decode(data, pos, size, depth)``; ``value``
    returns an expression that holds once the pending run is flushed."""

    def flush(self) -> None:
        if not self.run:
            return
        codes = "".join(code for code, _ in self.run)
        targets = ", ".join(name for _, name in self.run)
        self.run = []
        self.emit(f"{targets}, = {self.struct_fn(codes, 'unpack_from')}(data, pos)")
        self.emit(f"pos += {struct.calcsize('>' + codes)}")

    def length(self) -> str:
        """Read a varint into a fresh variable; returns its name."""
        self.flush()
        count = self.temp()
        self.emit(f"{count} = data[pos]")
        self.emit("pos += 1")
        self.emit(f"if {count} > 127: {count}, pos = _get_varint(data, pos - 1)")
        return count

    def value(self, shape: tuple) -> str:
        kind = shape[0]
        target = self.temp()
        if kind in _STRUCT_CODES:
            self.run.append((_STRUCT_CODES[kind], target))
        elif kind in ("str", "bytes"):
            self.emit(f"end = pos + {self.length()}")
            self.emit("if end > size: raise _truncated()")
            if kind == "bytes":
                self.emit(f"{target} = data[pos:end]")
            else:
                self.emit(f"{target} = _intern(str(data[pos:end], 'utf-8'))")
            self.emit("pos = end")
        elif kind == "opt":
            self.flush()
            present = self.temp()
            self.emit(f"{present} = data[pos]")
            self.emit("pos += 1")
            self.emit(f"if {present} == 1:")
            self.level += 1
            inner = self.value(shape[1])
            self.flush()
            self.emit(f"{target} = {inner}")
            self.level -= 1
            self.emit(f"elif {present} == 0: {target} = None")
            self.emit(f"else: raise _bad_presence({present})")
        elif kind == "tuple":
            return "(" + "".join(self.value(item) + ", " for item in shape[1:]) + ")"
        elif kind in _CONTAINERS:
            count = self.length()
            self.emit(f"if {count} > size - pos: raise _truncated()")
            self.emit(f"{target} = {'{}' if kind == 'dict' else '[]'}")
            self.emit(f"for _ in range({count}):")
            self.level += 1
            items = [self.value(item) for item in shape[1:]]
            self.flush()
            if kind == "dict":
                self.emit(f"{target}[{items[0]}] = {items[1]}")
            else:
                self.emit(f"{target}.append({items[0]})")
            self.level -= 1
            return target if kind == "dict" else f"{_CONTAINERS[kind]}({target})"
        elif kind == "msg":
            args = [self.value(field_shape) for _, field_shape in shape[2]]
            return f"{self.class_name(shape[1])}({', '.join(args)})"
        else:
            self.flush()
            self.emit(f"{target}, pos = _decode_any(data, pos, size, inner)")
        return target


def _compile(cls: type) -> tuple[Callable, Callable]:
    """Generate, once, the encoder and decoder of registered class ``cls``:
    ``encode`` appends tag, class name and compiled body to ``out``;
    ``decode`` reads the body and returns the message and the new ``pos``."""
    shapes = _field_shapes(cls)
    namespace = dict(_GENERATED_GLOBALS)
    name = cls.__name__.encode()
    prefix = bytearray(b"M")
    _put_varint(prefix, len(name))
    namespace["_prefix"] = bytes(prefix + name)

    encoder = _EncoderSource(namespace)
    encoder.emit("if depth >= MAX_DEPTH: raise _too_deep()")
    encoder.emit("inner = depth + 1")
    encoder.emit("out += _prefix")
    encoder.fields(cls, shapes, "o")
    encoder.flush()

    decoder = _DecoderSource(namespace)
    decoder.emit("inner = depth + 1")
    built = decoder.value(("msg", cls, shapes))
    decoder.flush()
    decoder.emit(f"return {built}, pos")

    source = "\n".join(
        ["def encode(o, out, depth):", *encoder.lines,
         "def decode(data, pos, size, depth):", *decoder.lines]
    )
    exec(compile(source, f"<repro.net.codec schema of {cls.__name__}>", "exec"), namespace)
    return namespace["encode"], namespace["decode"]


# ----------------------------------------------------------------------
# The tagged path: what a schema cannot fix
# ----------------------------------------------------------------------
def _encode_none(value: Any, out: bytearray, depth: int) -> None:
    out.append(0x4E)  # N


def _encode_bool(value: Any, out: bytearray, depth: int) -> None:
    out.append(0x54 if value else 0x46)  # T / F


def _encode_int(value: Any, out: bytearray, depth: int) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(0x69)  # i
        out += _pack_q(value)
    else:
        out.append(0x5A)  # Z
        length = (value.bit_length() + 8) // 8  # signed: one spare bit
        _put_varint(out, length)
        out += value.to_bytes(length, "big", signed=True)


def _encode_float(value: Any, out: bytearray, depth: int) -> None:
    out.append(0x66)  # f
    out += _pack_d(value)


def _encode_str(value: Any, out: bytearray, depth: int) -> None:
    raw = value.encode()
    out.append(0x73)  # s
    _put_varint(out, len(raw))
    out += raw


def _encode_bytes(value: Any, out: bytearray, depth: int) -> None:
    out.append(0x62)  # b
    _put_varint(out, len(value))
    out += value


def _encode_items(tag: int) -> Callable[[Any, bytearray, int], None]:
    def encode(value: Any, out: bytearray, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise _too_deep()
        out.append(tag)
        _put_varint(out, len(value))
        for item in value:
            _encode_any(item, out, depth + 1)

    return encode


def _encode_set(value: Any, out: bytearray, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise _too_deep()
    # Sorted by encoding: sets iterate in a different order in every
    # process, and their members need not be comparable.
    encoded = []
    for item in value:
        chunk = bytearray()
        _encode_any(item, chunk, depth + 1)
        encoded.append(chunk)
    encoded.sort()
    out.append(0x53)  # S
    _put_varint(out, len(encoded))
    for chunk in encoded:
        out += chunk


def _encode_dict(value: Any, out: bytearray, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise _too_deep()
    out.append(0x64)  # d
    _put_varint(out, len(value))
    for key, item in value.items():
        _encode_any(key, out, depth + 1)
        _encode_any(item, out, depth + 1)


#: Exact class -> tagged encoder.  Registered classes (compiled on first
#: use) and subclasses of the built-ins (``Outcome`` is a ``str``) are
#: added by :func:`_resolve_encoder` as they are met.
_ENCODERS: dict[type, Callable[[Any, bytearray, int], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    list: _encode_items(0x6C),  # l
    tuple: _encode_items(0x74),  # t
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
}
#: Class name, as on the wire -> decoder of that class's compiled body.
_DECODERS: dict[bytes, Callable[[bytes, int, int, int], tuple[Any, int]]] = {}


def _resolve_encoder(cls: type) -> Callable[[Any, bytearray, int], None]:
    if cls in field_names:
        encode, decode = _compile(cls)
        _DECODERS[cls.__name__.encode()] = decode
    else:
        for base in (bool, int, float, str, bytes, list, tuple, set, frozenset, dict):
            if issubclass(cls, base):
                encode = _ENCODERS[base]
                break
        else:
            if dataclasses.is_dataclass(cls):
                raise CodecError(f"dataclass {cls.__name__} is not a registered message")
            raise CodecError(f"cannot encode a value of type {cls.__name__}")
    _ENCODERS[cls] = encode
    return encode


def _resolve_decoder(name: bytes) -> Callable[[bytes, int, int, int], tuple[Any, int]]:
    cls = registry.get(name.decode("utf-8", "replace"))
    if cls is None:
        raise CodecError(f"unknown message tag {name!r}")
    _resolve_encoder(cls)
    return _DECODERS[name]


def _encode_any(value: Any, out: bytearray, depth: int) -> None:
    cls = value.__class__
    encode = _ENCODERS.get(cls)
    if encode is None:
        encode = _resolve_encoder(cls)
    encode(value, out, depth)


#: Tags whose payload starts with a varint: a byte length or an item count.
_COUNTED_TAGS = frozenset(b"sbZMltSd")


def _decode_any(data: bytes, pos: int, size: int, depth: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == 0x69:  # i
        return _unpack_q(data, pos)[0], pos + 8
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x66:  # f
        return _unpack_d(data, pos)[0], pos + 8
    if tag not in _COUNTED_TAGS:
        raise CodecError(f"unknown packed type tag {tag:#x}")
    count = data[pos]
    pos += 1
    if count > 127:
        count, pos = _get_varint(data, pos - 1)
    if count > size - pos:
        raise _truncated()
    if tag in (0x73, 0x62, 0x5A, 0x4D):  # s b Z M: that many bytes follow
        end = pos + count
        chunk = data[pos:end]
        if tag == 0x73:
            return str(chunk, "utf-8"), end
        if tag == 0x62:
            return chunk, end
        if tag == 0x5A:
            return int.from_bytes(chunk, "big", signed=True), end
        if depth >= MAX_DEPTH:
            raise _too_deep()
        decode = _DECODERS.get(chunk)
        if decode is None:
            decode = _resolve_decoder(chunk)
        return decode(data, end, size, depth)
    if depth >= MAX_DEPTH:  # l t S d: that many items follow
        raise _too_deep()
    depth += 1
    if tag == 0x64:
        table = {}
        for _ in range(count):
            key, pos = _decode_any(data, pos, size, depth)
            table[key], pos = _decode_any(data, pos, size, depth)
        return table, pos
    items = []
    for _ in range(count):
        item, pos = _decode_any(data, pos, size, depth)
        items.append(item)
    if tag == 0x6C:
        return items, pos
    return (tuple(items) if tag == 0x74 else frozenset(items)), pos


#: What generated code may name, besides its own structs and classes.
_GENERATED_GLOBALS: dict[str, Any] = {
    "MAX_DEPTH": MAX_DEPTH,
    "_ENCODE_ERRORS": _ENCODE_ERRORS,
    "_put_varint": _put_varint,
    "_get_varint": _get_varint,
    "_truncated": _truncated,
    "_too_deep": _too_deep,
    "_bad_presence": _bad_presence,
    "_misfit": _misfit,
    "_run_misfit": _run_misfit,
    "_encode_any": _encode_any,
    "_decode_any": _decode_any,
    "_intern": sys.intern,
}


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_packed(msg: Any) -> bytes:
    """Serialize a registered message (or any value the tagged path
    carries) to wire bytes."""
    out = bytearray()
    try:
        _encode_any(msg, out, 0)
    except _ENCODE_ERRORS as exc:
        raise CodecError(f"failed to encode {msg!r}") from exc
    return bytes(out)


def decode_packed(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`encode_packed`.

    Total: whatever ``data`` holds, the result is a value or a
    :class:`CodecError` (with the cause chained), never another exception.
    """
    try:
        if data.__class__ is not bytes:
            data = bytes(data)  # slices of it become field values
        size = len(data)
        value, pos = _decode_any(data, 0, size, 0)
    except CodecError:
        raise
    except Exception as exc:  # a constructor may refuse its fields with anything
        raise CodecError(f"failed to decode {data[:80]!r}") from exc
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes in packed frame")
    return value


#: Codec name -> (encoder, decoder).  ``"packed"`` is what runs; JSON is
#: here for the dump, the microbenchmark and the differential tests.
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
