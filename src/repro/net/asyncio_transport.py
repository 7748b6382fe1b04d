"""Real TCP transport for the asyncio runtime.

Frames are length-prefixed (4-byte big-endian) messages produced by the
selected wire codec — the JSON codec of :mod:`repro.net.message` by
default, or the struct-packed binary codec of :mod:`repro.net.codec`
(``codec="packed"``) — wrapped in an :class:`Envelope` carrying the
sender's node id.  Both endpoints must run the same codec; the frame
layout is codec-independent.  Connections are opened lazily per
destination and cached; links are quasi-reliable in the sense of the
paper's model (TCP delivers in order while both endpoints live; on
connection failure the message is dropped and higher layers — Paxos —
recover).

The receive side fails loudly enough to be noticed: an exception raised
by the handler is counted (``handler_errors``) and the connection lives
on — one bad message must not silence a peer — while a frame that is
well delimited but undecodable, not an :class:`Envelope`, or oversized
is counted (``frames_rejected``) and closes the connection, since the
byte stream can no longer be trusted.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import TransportError
from repro.net.codec import get_codec
from repro.net.message import Message, message
from repro.obs.recorder import NULL_RECORDER, ObsRecorder, traced_tid as _traced_tid

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024


@message
@dataclass(frozen=True)
class Envelope(Message):
    """Wire wrapper adding the sender id to a payload message."""

    src: str
    payload: Any


def _frame(data: bytes) -> bytes:
    if len(data) > _MAX_FRAME:
        raise TransportError(f"frame too large: {len(data)} bytes")
    return len(data).to_bytes(_LEN_BYTES, "big") + data


async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
    try:
        header = await reader.readexactly(_LEN_BYTES)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise TransportError(f"peer announced oversized frame: {length} bytes")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None


class AioTransport:
    """One node's TCP endpoint: listens for peers and sends to a directory."""

    def __init__(
        self,
        node_id: str,
        directory: dict[str, tuple[str, int]],
        handler: Callable[[str, Any], None],
        obs: ObsRecorder | None = None,
        codec: str = "json",
    ) -> None:
        if node_id not in directory:
            raise TransportError(f"node {node_id!r} missing from directory")
        self.node_id = node_id
        self.directory = directory
        self.handler = handler
        self.codec = codec
        self._encode, self._decode = get_codec(codec)
        self.obs = obs if obs is not None else NULL_RECORDER
        self._server: asyncio.AbstractServer | None = None
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._send_locks: dict[str, asyncio.Lock] = {}
        #: Live inbound connections: reader task -> the writer that ends it.
        self._inbound: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closed = False
        #: Exceptions raised by ``handler`` (the connection is kept).
        self.handler_errors = 0
        #: Inbound frames refused — undecodable, not an Envelope, or
        #: oversized — each of which closed its connection.
        self.frames_rejected = 0
        #: The latest exception behind either counter, traceback attached.
        self.last_error: Exception | None = None

    async def start(self) -> None:
        """Bind and start accepting peer connections."""
        host, port = self.directory[self.node_id]
        self._server = await asyncio.start_server(self._on_connection, host, port)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._inbound[task] = writer
        try:
            while not self._closed:
                try:
                    frame = await _read_frame(reader)
                    if frame is None:
                        break
                    envelope = self._decode(frame)
                    if not isinstance(envelope, Envelope):
                        raise TransportError(
                            f"expected Envelope, got {type(envelope).__name__}"
                        )
                except Exception as exc:
                    self.frames_rejected += 1
                    self.last_error = exc
                    break
                if self.obs.enabled:
                    tid = _traced_tid(envelope.payload)
                    if tid is not None:
                        self.obs.event(
                            "net.recv",
                            self.node_id,
                            tid,
                            src=envelope.src,
                            msg=type(envelope.payload).__name__,
                        )
                try:
                    self.handler(envelope.src, envelope.payload)
                except Exception as exc:
                    self.handler_errors += 1
                    self.last_error = exc
        finally:
            del self._inbound[task]
            writer.close()

    async def send(self, dst: str, msg: Any) -> None:
        """Send ``msg`` to ``dst``; drops silently on connection failure."""
        if self._closed:
            return
        if self.obs.enabled:
            tid = _traced_tid(msg)
            if tid is not None:
                self.obs.event(
                    "net.send", self.node_id, tid, dst=dst, msg=type(msg).__name__
                )
        frame = _frame(self._encode(Envelope(src=self.node_id, payload=msg)))
        lock = self._send_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            writer = self._writers.get(dst)
            if writer is None or writer.is_closing():
                try:
                    host, port = self.directory[dst]
                except KeyError:
                    raise TransportError(f"unknown destination {dst!r}") from None
                try:
                    _, writer = await asyncio.open_connection(host, port)
                except OSError:
                    return  # Peer down: quasi-reliable link drops the message.
                self._writers[dst] = writer
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                self._writers.pop(dst, None)

    async def close(self) -> None:
        """Stop accepting and tear down all connections.

        Inbound readers are ended by closing their connections — they
        see end-of-stream and return — rather than by cancellation,
        which asyncio's stream server reports as an error per task.
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        readers = list(self._inbound)
        for writer in self._inbound.values():
            writer.close()
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
