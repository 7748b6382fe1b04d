"""Real TCP transport for the asyncio runtime.

Frames are length-prefixed (4-byte big-endian) messages in the
schema-compiled binary encoding of :mod:`repro.net.codec` — the one
wire codec; there is nothing to select — wrapped in an
:class:`Envelope` carrying the sender's node id.

The send side has one writer per connection.  :meth:`AioTransport.post`
frames the message, appends the frame to its destination's outbox and
arms one flush for the current loop turn; the flush hands every
destination all it has queued as **one** ``write`` — no task, lock or
``drain()`` per message.  An :class:`Envelope` carries only the sender,
so a frame does not depend on where it goes: posting the *same message
object* to several peers in one turn (every ``for member in members:
send(member, msg)`` loop of Paxos, gossip and the ledger) encodes it
once.  A message addressed to this node never touches a socket: its
handler is scheduled with ``call_soon``, in FIFO order and never
re-entrantly.  :meth:`AioTransport.send` is the awaitable form of the
same path.  :meth:`AioTransport.at_flush` runs a callable at the start
of that flush, ahead of its writes — how
:meth:`~repro.runtime.aio.AioNodeRuntime.at_turn_end` closes a loop turn,
so what a turn-end hook posts (the leader's one ``Accept`` for the turn's
proposals) leaves in the turn it would have left in anyway.

Connections are opened lazily per destination, in the background, and
cached; links are quasi-reliable in the sense of the paper's model (TCP
delivers in order while both endpoints live; on connection failure what
was queued is dropped and higher layers — Paxos — recover).  Unsent
bytes are bounded: a destination whose outbox plus socket write buffer
passes :data:`_MAX_UNSENT` — a peer that stopped reading — is treated
as a failed connection (aborted, outbox dropped, ``sends_dropped``
counted, reconnected on the next send).

The receive side has no task per connection: each inbound connection is
an :class:`asyncio.Protocol` whose ``data_received`` appends the chunk to
what an earlier chunk left incomplete, then decodes and hands to the
handler every complete frame in it before it returns — frames are
delivered in the loop turn their bytes arrive in, where a reader task
would have been woken through a future one turn later, two
``readexactly`` calls per frame.  It fails loudly enough to be noticed:
an exception raised by the handler is counted (``handler_errors``) and
the rest of the chunk is still delivered — one bad message must not
silence a peer — while a frame that is well delimited but undecodable,
not an :class:`Envelope`, or oversized (refused from its header, before
any body arrives) is counted (``frames_rejected``) and closes the
connection, since the byte stream can no longer be trusted.
"""

from __future__ import annotations

import asyncio
import struct
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import TransportError
from repro.net.codec import decode_packed, encode_packed
from repro.net.message import Message, message
from repro.obs.recorder import NULL_RECORDER, ObsRecorder, traced_tid as _traced_tid

_LEN = struct.Struct(">I")
_LEN_BYTES = _LEN.size
_MAX_FRAME = 64 * 1024 * 1024
#: Most bytes one destination may have unsent (outbox + socket write
#: buffer) before its connection is given up on: room for the largest
#: legal frame behind another one.
_MAX_UNSENT = 2 * _MAX_FRAME
#: ``_last_msg`` when no message has been framed in this loop turn.
_NO_MESSAGE = object()


@message
@dataclass(frozen=True)
class Envelope(Message):
    """Wire wrapper adding the sender id to a payload message."""

    src: str
    payload: Any


def _frame(data: bytes) -> bytes:
    if len(data) > _MAX_FRAME:
        raise TransportError(f"frame too large: {len(data)} bytes")
    return _LEN.pack(len(data)) + data


class _Outbox:
    """Frames queued for one destination, and their total size."""

    __slots__ = ("frames", "size")

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.size = 0

    def clear(self) -> None:
        self.frames.clear()
        self.size = 0


class _Inbound(asyncio.Protocol):
    """One inbound connection, parsed where its bytes land: each
    ``data_received`` decodes and delivers every complete frame of the
    chunk before it returns and keeps only the incomplete tail."""

    def __init__(self, owner: "AioTransport") -> None:
        self._owner = owner
        self._conn: asyncio.Transport | None = None
        #: The start of a frame the previous chunks ended in.
        self._tail = bytearray()
        #: Bytes ``_tail`` must hold before a frame in it can be complete.
        self._wanted = _LEN_BYTES

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._conn = transport
        owner = self._owner
        owner._inbound[transport] = asyncio.get_running_loop().create_future()
        if owner._closed:
            transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self._owner._inbound.pop(self._conn).set_result(None)

    def data_received(self, data: bytes) -> None:
        tail = self._tail
        if tail:
            tail += data
            if len(tail) < self._wanted:
                return
            data = bytes(tail)
            tail.clear()
        owner = self._owner
        size = len(data)
        offset = 0
        wanted = _LEN_BYTES
        while size - offset >= _LEN_BYTES:
            start = offset + _LEN_BYTES
            (length,) = _LEN.unpack_from(data, offset)
            if length > _MAX_FRAME:
                self._reject(TransportError(f"peer announced oversized frame: {length} bytes"))
                return
            end = start + length
            if end > size:
                wanted = end - offset
                break
            offset = end
            try:
                # ``_decode`` is looked up per frame: benchmarks/e2e
                # replaces it on the instance to count and time decodes.
                envelope = owner._decode(data[start:end])
                if not isinstance(envelope, Envelope):
                    raise TransportError(f"expected Envelope, got {type(envelope).__name__}")
            except Exception as exc:
                self._reject(exc)
                return
            owner._deliver(envelope.src, envelope.payload)
        if offset < size:
            tail += memoryview(data)[offset:]
            self._wanted = wanted

    def _reject(self, exc: Exception) -> None:
        """The byte stream can no longer be trusted: count it, close it."""
        self._owner.frames_rejected += 1
        self._owner.last_error = exc
        self._tail.clear()
        self._conn.close()


class AioTransport:
    """One node's TCP endpoint: listens for peers and sends to a directory."""

    def __init__(
        self,
        node_id: str,
        directory: dict[str, tuple[str, int]],
        handler: Callable[[str, Any], None],
        obs: ObsRecorder | None = None,
    ) -> None:
        if node_id not in directory:
            raise TransportError(f"node {node_id!r} missing from directory")
        self.node_id = node_id
        self.directory = directory
        self.handler = handler
        self._encode, self._decode = encode_packed, decode_packed
        self.obs = obs if obs is not None else NULL_RECORDER
        self._server: asyncio.AbstractServer | None = None
        self._writers: dict[str, asyncio.StreamWriter] = {}
        #: Frames posted per destination since its last write.
        self._outbox: dict[str, _Outbox] = {}
        #: The outboxes this turn's posts made non-empty, in that order:
        #: the flush visits only these.  A backlog held while a connection
        #: opens is written by ``_connect``.
        self._posted: list[tuple[str, _Outbox]] = []
        #: Background connection attempts, by destination.
        self._connecting: dict[str, asyncio.Task] = {}
        self._flush_armed = False
        #: Callables to run at the next flush, before its writes.
        self._flush_hooks: list[Callable[[], None]] = []
        #: The message framed last in this loop turn, and its frame.
        self._last_msg: Any = _NO_MESSAGE
        self._last_frame = b""
        #: Live inbound connections -> a future resolved when each is lost.
        self._inbound: dict[asyncio.BaseTransport, asyncio.Future] = {}
        self._closed = False
        #: Exceptions raised by ``handler`` or a flush hook (the
        #: connection is kept, the flush still writes).
        self.handler_errors = 0
        #: Inbound frames refused — undecodable, not an Envelope, or
        #: oversized — each of which closed its connection.
        self.frames_rejected = 0
        #: The latest exception behind either counter, traceback attached.
        self.last_error: Exception | None = None
        #: Send side: frames handed to a socket, the ``write`` calls that
        #: carried them, their bytes, messages encoded (a broadcast counts
        #: once), and frames dropped with a failed or stalled connection.
        self.frames_sent = 0
        self.writes = 0
        self.bytes_sent = 0
        self.encodes = 0
        self.sends_dropped = 0

    async def start(self) -> None:
        """Bind and start accepting peer connections."""
        host, port = self.directory[self.node_id]
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Inbound(self), host, port)

    def _deliver(self, src: str, msg: Any) -> None:
        """Hand one received (or self-addressed) message to the handler."""
        if self._closed:
            return
        if self.obs.enabled:
            tid = _traced_tid(msg)
            if tid is not None:
                self.obs.event(
                    "net.recv", self.node_id, tid, src=src, msg=type(msg).__name__
                )
        try:
            self.handler(src, msg)
        except Exception as exc:
            self.handler_errors += 1
            self.last_error = exc

    def post(self, dst: str, msg: Any) -> None:
        """Queue ``msg`` for ``dst``; this loop turn's flush writes it.

        Never blocks and never delivers before it returns.  What is
        queued behind a connection that fails is dropped silently.
        """
        if self._closed:
            return
        if self.obs.enabled:
            tid = _traced_tid(msg)
            if tid is not None:
                self.obs.event(
                    "net.send", self.node_id, tid, dst=dst, msg=type(msg).__name__
                )
        if dst == self.node_id:
            asyncio.get_running_loop().call_soon(self._deliver, dst, msg)
            return
        outbox = self._outbox.get(dst)
        if outbox is None:
            if dst not in self.directory:
                raise TransportError(f"unknown destination {dst!r}")
            outbox = self._outbox[dst] = _Outbox()
        if msg is not self._last_msg:
            # ``_encode`` is looked up per call: benchmarks/e2e replaces
            # it on the instance to count and time encodes.
            self._last_frame = _frame(self._encode(Envelope(src=self.node_id, payload=msg)))
            self._last_msg = msg
            self.encodes += 1
        if not outbox.frames:
            self._posted.append((dst, outbox))
        outbox.frames.append(self._last_frame)
        outbox.size += len(self._last_frame)
        if not self._flush_armed:
            self._flush_armed = True
            asyncio.get_running_loop().call_soon(self._flush)

    def at_flush(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` when this loop turn's flush starts, before it
        writes: whatever ``fn`` posts leaves in the same writes."""
        if self._closed:
            return
        self._flush_hooks.append(fn)
        if not self._flush_armed:
            self._flush_armed = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """Run the flush hooks, then hand each destination everything
        queued for it as one ``write``."""
        hooks = self._flush_hooks
        while hooks and not self._closed:  # a hook may add one
            self._flush_hooks = []
            for fn in hooks:
                try:
                    fn()
                except Exception as exc:
                    self.handler_errors += 1
                    self.last_error = exc
            hooks = self._flush_hooks
        self._flush_armed = False
        self._last_msg = _NO_MESSAGE
        if self._closed:
            return
        posted, self._posted = self._posted, []
        for dst, outbox in posted:
            self._flush_to(dst, outbox)

    def _flush_to(self, dst: str, outbox: _Outbox) -> None:
        if not outbox.frames:
            return
        writer = self._writers.get(dst)
        unsent = outbox.size
        if writer is not None:
            if writer.is_closing():
                writer = None
            else:
                unsent += writer.transport.get_write_buffer_size()
        if unsent > _MAX_UNSENT:
            self._drop(dst)
        elif writer is not None:
            self.writes += 1
            self.frames_sent += len(outbox.frames)
            self.bytes_sent += outbox.size
            writer.write(b"".join(outbox.frames))
            outbox.clear()
        elif dst not in self._connecting:
            self._connecting[dst] = asyncio.get_running_loop().create_task(
                self._connect(dst)
            )

    async def _connect(self, dst: str) -> None:
        host, port = self.directory[dst]
        try:
            _, writer = await asyncio.open_connection(host, port)
        except OSError:
            self._drop(dst)  # Peer down: quasi-reliable link drops what was queued.
            return
        finally:
            del self._connecting[dst]
        self._writers[dst] = writer
        self._flush_to(dst, self._outbox[dst])

    def _drop(self, dst: str) -> None:
        """Give up on ``dst``'s connection and on everything queued for it."""
        outbox = self._outbox[dst]
        self.sends_dropped += len(outbox.frames)
        outbox.clear()
        writer = self._writers.pop(dst, None)
        if writer is not None:
            # abort(), not close(): close() waits for the peer to take
            # the buffered bytes, which is the thing that is not happening.
            writer.transport.abort()

    async def send(self, dst: str, msg: Any) -> None:
        """Awaitable :meth:`post`: queue, let this turn's flush run, then
        honour the socket's own flow control."""
        self.post(dst, msg)
        await asyncio.sleep(0)  # the flush armed by post() is ahead of us
        writer = self._writers.get(dst)
        if writer is not None:
            try:
                await writer.drain()
            except OSError:
                pass

    async def close(self) -> None:
        """Stop accepting and tear down all connections.

        Inbound connections are closed and awaited until each is lost;
        connection attempts still in flight are cancelled, which closes
        their sockets.  From here on :meth:`post`, the flush, its hooks
        and self-delivery do nothing.
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
        connecting = list(self._connecting.values())
        for task in connecting:
            task.cancel()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        self._outbox.clear()
        self._posted.clear()
        self._flush_hooks.clear()
        lost = list(self._inbound.values())
        for conn in list(self._inbound):
            conn.close()
        if lost or connecting:
            await asyncio.gather(*lost, *connecting, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
