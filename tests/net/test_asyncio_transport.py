"""Integration tests for the real TCP transport (localhost)."""

import asyncio
from dataclasses import dataclass

import pytest

from repro.net.asyncio_transport import AioTransport
from repro.net.message import Message, message


@message
@dataclass(frozen=True)
class _Echo(Message):
    text: str
    payload: bytes = b""


def free_ports(n):
    import socket

    sockets, ports = [], []
    for _ in range(n):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


async def _start_nodes(names, handlers=None):
    """Started transports for ``names``, each with a recording inbox."""
    ports = free_ports(len(names))
    directory = {name: ("127.0.0.1", port) for name, port in zip(names, ports)}
    inboxes = {name: [] for name in names}
    transports = {}
    for name in names:
        handler = (handlers or {}).get(
            name, lambda src, msg, inbox=inboxes[name]: inbox.append((src, msg))
        )
        transports[name] = AioTransport(name, directory, handler)
        await transports[name].start()
    return transports, inboxes


async def _close_all(transports):
    for transport in transports.values():
        await transport.close()


async def _run_pair(test_body):
    transports, inboxes = await _start_nodes(["a", "b"])
    try:
        await test_body(transports["a"], transports["b"], inboxes["a"], inboxes["b"])
    finally:
        await _close_all(transports)


async def _drain(predicate, timeout=3.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0.01)


class TestAioTransport:
    def test_round_trip_message(self):
        async def body(ta, tb, inbox_a, inbox_b):
            await ta.send("b", _Echo(text="hello"))
            await _drain(lambda: inbox_b)
            assert inbox_b == [("a", _Echo(text="hello"))]
            await tb.send("a", _Echo(text="back"))
            await _drain(lambda: inbox_a)
            assert inbox_a == [("b", _Echo(text="back"))]

        asyncio.run(_run_pair(body))

    def test_many_messages_in_order_per_connection(self):
        async def body(ta, tb, inbox_a, inbox_b):
            for i in range(50):
                await ta.send("b", _Echo(text=str(i)))
            await _drain(lambda: len(inbox_b) == 50)
            assert [m.text for _, m in inbox_b] == [str(i) for i in range(50)]

        asyncio.run(_run_pair(body))

    def test_binary_payload(self):
        async def body(ta, tb, inbox_a, inbox_b):
            blob = bytes(range(256))
            await ta.send("b", _Echo(text="bin", payload=blob))
            await _drain(lambda: inbox_b)
            assert inbox_b[0][1].payload == blob

        asyncio.run(_run_pair(body))

    def test_send_to_down_peer_is_dropped_silently(self):
        async def body(ta, tb, inbox_a, inbox_b):
            await tb.close()
            await ta.send("b", _Echo(text="into the void"))  # must not raise

        asyncio.run(_run_pair(body))

    def test_unknown_destination_raises(self):
        async def body(ta, tb, inbox_a, inbox_b):
            from repro.errors import TransportError

            with pytest.raises(TransportError):
                await ta.send("ghost", _Echo(text="?"))

        asyncio.run(_run_pair(body))


class TestFailingLoudly:
    """The receive side counts what goes wrong instead of dying quietly
    (ROADMAP nemesis hole iii)."""

    def test_raising_handler_is_counted_and_the_next_frame_still_handled(self):
        async def body():
            port_a, port_b = free_ports(2)
            directory = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
            seen = []

            def handler(src, msg):
                if msg.text == "boom":
                    raise RuntimeError("handler bug")
                seen.append(msg.text)

            ta = AioTransport("a", directory, lambda src, msg: None)
            tb = AioTransport("b", directory, handler)
            await ta.start()
            await tb.start()
            try:
                await ta.send("b", _Echo(text="boom"))
                await ta.send("b", _Echo(text="after"))
                await _drain(lambda: seen)
                assert seen == ["after"]
                assert tb.handler_errors == 1 and tb.frames_rejected == 0
                assert isinstance(tb.last_error, RuntimeError)
                assert len(tb._inbound) == 1  # same connection, still open
            finally:
                await ta.close()
                await tb.close()

        asyncio.run(body())

    @pytest.mark.parametrize(
        "frame",
        [
            b"\x00\x00\x00\x07garbage",  # well delimited, undecodable
            (2**31).to_bytes(4, "big"),  # announces an oversized frame
        ],
        ids=["undecodable", "oversized"],
    )
    def test_garbage_frame_is_counted_and_closes_the_connection(self, frame):
        async def body(ta, tb, inbox_a, inbox_b):
            host, port = tb.directory["b"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(frame)
            await writer.drain()
            assert await reader.read() == b""  # b hung up on us
            writer.close()
            assert tb.frames_rejected == 1 and tb.handler_errors == 0
            assert tb.last_error is not None and not inbox_b
            # The listener itself is fine: a well-formed peer still gets through.
            await ta.send("b", _Echo(text="ok"))
            await _drain(lambda: inbox_b)

        asyncio.run(_run_pair(body))

    def test_non_envelope_message_is_rejected(self):
        async def body(ta, tb, inbox_a, inbox_b):
            from repro.net.codec import encode_packed

            host, port = tb.directory["b"]
            reader, writer = await asyncio.open_connection(host, port)
            data = encode_packed(_Echo(text="naked"))
            writer.write(len(data).to_bytes(4, "big") + data)
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            assert tb.frames_rejected == 1 and not inbox_b
            assert "expected Envelope, got _Echo" in str(tb.last_error)

        asyncio.run(_run_pair(body))

    def test_close_with_a_live_peer_connection_is_silent(self, capfd):
        async def body():
            port_a, port_b = free_ports(2)
            directory = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
            inbox_b = []
            ta = AioTransport("a", directory, lambda src, msg: None)
            tb = AioTransport("b", directory, lambda src, msg: inbox_b.append(msg))
            await ta.start()
            await tb.start()
            await ta.send("b", _Echo(text="hello"))
            await _drain(lambda: inbox_b)
            assert len(tb._inbound) == 1
            await tb.close()  # a's connection to b is still open
            assert not tb._inbound
            await ta.close()

        asyncio.run(body())
        out, err = capfd.readouterr()
        assert err == "" and out == ""


class TestOneWriterPerConnection:
    """The send path: an outbox per destination, one flush per loop turn."""

    def test_one_turn_of_sends_to_one_peer_is_one_write_in_order(self):
        async def body():
            transports, inboxes = await _start_nodes(["a", "b"])
            ta = transports["a"]
            try:
                await ta.send("b", _Echo(text="connect"))
                await _drain(lambda: inboxes["b"])
                writes, frames = ta.writes, ta.frames_sent
                for i in range(20):
                    ta.post("b", _Echo(text=str(i)))
                await _drain(lambda: len(inboxes["b"]) == 21)
                assert [m.text for _, m in inboxes["b"][1:]] == [str(i) for i in range(20)]
                assert ta.writes - writes == 1
                assert ta.frames_sent - frames == 20
                assert ta.bytes_sent > 20 * 4 and ta.sends_dropped == 0
            finally:
                await _close_all(transports)

        asyncio.run(body())

    def test_flush_hooks_post_into_the_same_write_and_a_raising_one_is_counted(self):
        async def body():
            transports, inboxes = await _start_nodes(["a", "b"])
            ta = transports["a"]
            try:
                await ta.send("b", _Echo(text="connect"))
                await _drain(lambda: inboxes["b"])
                writes = ta.writes

                def boom():
                    raise RuntimeError("hook bug")

                ta.at_flush(lambda: ta.post("b", _Echo(text="from a hook")))
                ta.at_flush(boom)
                ta.post("b", _Echo(text="posted"))
                await _drain(lambda: len(inboxes["b"]) == 3)
                assert [m.text for _, m in inboxes["b"]] == ["connect", "posted", "from a hook"]
                assert ta.writes - writes == 1
                assert ta.handler_errors == 1 and isinstance(ta.last_error, RuntimeError)
            finally:
                await _close_all(transports)

        asyncio.run(body())

    def test_one_message_object_to_three_peers_is_encoded_once(self):
        async def body():
            transports, inboxes = await _start_nodes(["a", "b", "c", "d"])
            ta = transports["a"]
            # Wrapped on the instance: the hook benchmarks/e2e/layers.py
            # installs, so this also pins that the hook is honoured.
            encoded = []
            encode = ta._encode

            def counting_encode(envelope):
                encoded.append(envelope.payload)
                return encode(envelope)

            ta._encode = counting_encode
            try:
                msg = _Echo(text="broadcast")
                for peer in "bcd":
                    ta.post(peer, msg)
                await _drain(lambda: all(inboxes[peer] for peer in "bcd"))
                assert encoded == [msg] and ta.encodes == 1
                assert all(inboxes[peer] == [("a", msg)] for peer in "bcd")
                # Equal is not identical: a distinct object is framed again,
                # and so is the same object on a later loop turn.
                ta.post("b", _Echo(text="broadcast"))
                ta.post("c", _Echo(text="broadcast"))
                await _drain(lambda: len(inboxes["c"]) == 2)
                assert len(encoded) == 3
                ta.post("b", msg)
                await _drain(lambda: len(inboxes["b"]) == 3)
                assert len(encoded) == 4 and ta.encodes == 4
            finally:
                await _close_all(transports)

        asyncio.run(body())

    def test_sends_reconnect_after_the_peer_restarts_on_its_port(self):
        async def body():
            transports, inboxes = await _start_nodes(["a", "b"])
            ta, tb = transports["a"], transports["b"]
            try:
                await ta.send("b", _Echo(text="first"))
                await _drain(lambda: inboxes["b"])
                await tb.close()
                reborn = []
                tb = transports["b"] = AioTransport(
                    "b", ta.directory, lambda src, msg: reborn.append(msg.text)
                )
                await tb.start()

                async def resend_until_heard():
                    # What was written into the dead connection is lost
                    # (quasi-reliable link); a later send finds it closed
                    # and opens a new one.
                    while not reborn:
                        ta.post("b", _Echo(text="again"))
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(resend_until_heard(), 3.0)
                assert set(reborn) == {"again"}
            finally:
                await _close_all(transports)

        asyncio.run(body())

    def test_gathered_awaited_sends_all_arrive(self):
        """The shape benchmarks/e2e/micro.py drives: 64 concurrent
        ``await transport.send`` of one message, before any connection."""

        async def body():
            transports, inboxes = await _start_nodes(["a", "b"])
            try:
                msg = _Echo(text="x")
                await asyncio.gather(
                    *(asyncio.ensure_future(transports["a"].send("b", msg)) for _ in range(64))
                )
                await _drain(lambda: len(inboxes["b"]) == 64)
                assert transports["a"].frames_sent == 64
            finally:
                await _close_all(transports)

        asyncio.run(body())

    def test_unreachable_peer_drops_the_outbox_and_counts_it(self):
        async def body():
            transports, inboxes = await _start_nodes(["a", "b"])
            ta = transports["a"]
            try:
                await transports["b"].close()
                for i in range(3):
                    ta.post("b", _Echo(text=str(i)))
                await _drain(lambda: ta.sends_dropped == 3)
                assert ta.frames_sent == 0 and "b" not in ta._writers
            finally:
                await _close_all(transports)

        asyncio.run(body())


class TestSelfAddressed:
    """A node does not TCP itself: the handler is scheduled, not called."""

    def test_self_send_is_deferred_fifo_and_opens_no_connection(self):
        async def body():
            transports, inboxes = await _start_nodes(["a", "b"])
            ta = transports["a"]
            try:
                ta.post("a", _Echo(text="1"))
                ta.post("a", _Echo(text="2"))
                assert inboxes["a"] == []  # not before post() returns
                ta.post("a", _Echo(text="3"))
                await _drain(lambda: len(inboxes["a"]) == 3)
                assert inboxes["a"] == [("a", _Echo(text=t)) for t in "123"]
                assert "a" not in ta._writers and not ta._inbound
                assert ta.encodes == 0 and ta.frames_sent == 0
            finally:
                await _close_all(transports)

        asyncio.run(body())

    def test_raising_handler_is_counted_and_the_next_self_send_still_handled(self):
        async def body():
            seen = []

            def handler(src, msg):
                if msg.text == "boom":
                    raise RuntimeError("handler bug")
                seen.append(msg.text)

            transports, _ = await _start_nodes(["a"], {"a": handler})
            ta = transports["a"]
            try:
                ta.post("a", _Echo(text="boom"))
                ta.post("a", _Echo(text="after"))
                await _drain(lambda: seen)
                assert seen == ["after"] and ta.handler_errors == 1
                assert isinstance(ta.last_error, RuntimeError)
            finally:
                await _close_all(transports)

        asyncio.run(body())


class TestBoundedUnsentBytes:
    """No ``drain()`` must not mean an unbounded buffer behind a peer that
    stopped reading: past the cap the link is treated as failed."""

    def test_stalled_peer_is_dropped_at_the_cap_and_then_reconnected(self, monkeypatch):
        from repro.net import asyncio_transport

        cap = 256 * 1024
        monkeypatch.setattr(asyncio_transport, "_MAX_UNSENT", cap)

        async def body():
            port_a, port_b = free_ports(2)
            directory = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
            accepted = []
            over = asyncio.Event()

            async def never_reads(reader, writer):
                accepted.append(writer)
                await over.wait()
                writer.close()

            stalled = await asyncio.start_server(never_reads, *directory["b"])
            ta = AioTransport("a", directory, lambda src, msg: None)
            await ta.start()
            try:
                await ta.send("b", _Echo(text="connect"))
                await _drain(lambda: accepted)
                first_writer = ta._writers["b"]
                chunk = _Echo(text="x", payload=bytes(48 * 1024))
                unsent_high = 0
                for _ in range(2000):  # ~130 MB of frames at most
                    ta.post("b", chunk)
                    await asyncio.sleep(0)
                    if ta.sends_dropped:
                        break
                    unsent_high = max(
                        unsent_high, first_writer.transport.get_write_buffer_size()
                    )
                assert ta.sends_dropped > 0, "the cap never tripped"
                assert first_writer.is_closing() and "b" not in ta._writers
                assert not ta._outbox["b"].frames
                # Queued bytes stopped growing at the cap (the check runs
                # before the write, hence one frame of slack).
                assert unsent_high <= cap + 2 * len(chunk.payload)
                assert first_writer.transport.get_write_buffer_size() == 0
                # The next send reconnects.
                ta.post("b", _Echo(text="hello again"))
                await _drain(lambda: len(accepted) == 2)
                assert not ta._writers["b"].is_closing()
            finally:
                await ta.close()
                over.set()
                stalled.close()
                await stalled.wait_closed()

        asyncio.run(body())


class _Conn:
    """The socket side of an inbound connection, for feeding it by hand."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def frames_of(*texts):
    from repro.net.asyncio_transport import Envelope, _frame
    from repro.net.codec import encode_packed

    return [_frame(encode_packed(Envelope(src="a", payload=_Echo(text=t)))) for t in texts]


def feed(chunks, handler=None):
    """Hand ``chunks`` to one inbound connection of node ``b``; returns
    the transport, the connection and what the handler received."""
    from repro.net.asyncio_transport import _Inbound

    seen = []

    async def body():
        transport = AioTransport(
            "b", {"b": ("127.0.0.1", 0)}, handler or (lambda src, msg: seen.append(msg.text))
        )
        conn = _Conn()
        protocol = _Inbound(transport)
        protocol.connection_made(conn)
        for chunk in chunks:
            if conn.closed:
                break
            protocol.data_received(bytes(chunk))
        return transport, conn

    transport, conn = asyncio.run(body())
    return transport, conn, seen


class TestFrameParser:
    """Frames are parsed and delivered in the ``data_received`` call their
    last byte arrives in, however the stream is cut into chunks."""

    def test_one_chunk_of_many_frames_delivers_them_all_in_order(self):
        texts = [str(i) for i in range(50)]
        transport, conn, seen = feed([b"".join(frames_of(*texts))])
        assert seen == texts and not conn.closed
        assert transport.frames_rejected == transport.handler_errors == 0

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 64])
    def test_frames_split_across_chunks_arrive_whole_and_in_order(self, size):
        texts = ["a", "bb" * 40, "", "ccc"]
        stream = b"".join(frames_of(*texts))
        chunks = [stream[i : i + size] for i in range(0, len(stream), size)]
        transport, conn, seen = feed(chunks)
        assert seen == texts and not conn.closed and transport.frames_rejected == 0

    def test_a_frame_is_delivered_in_the_call_that_completes_it(self):
        from repro.net.asyncio_transport import _Inbound

        first, second = frames_of("first", "second")
        seen = []

        async def body():
            transport = AioTransport("b", {"b": ("127.0.0.1", 0)}, lambda s, m: seen.append(m.text))
            protocol = _Inbound(transport)
            protocol.connection_made(_Conn())
            protocol.data_received(first[:-1])
            assert seen == []
            protocol.data_received(first[-1:] + second[:2])
            assert seen == ["first"]
            protocol.data_received(second[2:])
            assert seen == ["first", "second"]

        asyncio.run(body())

    @pytest.mark.parametrize("split", [4, 2], ids=["whole-header", "split-header"])
    def test_an_oversized_header_is_rejected_before_any_body(self, split):
        from repro.net.asyncio_transport import _MAX_FRAME

        header = (_MAX_FRAME + 1).to_bytes(4, "big")
        good = frames_of("before")[0]
        transport, conn, seen = feed([good + header[:split], header[split:], b"x" * 100])
        assert seen == ["before"] and conn.closed
        assert transport.frames_rejected == 1
        assert "oversized" in str(transport.last_error)

    def test_a_raising_handler_mid_chunk_spares_the_rest_of_the_chunk(self):
        seen = []

        def handler(src, msg):
            if msg.text == "boom":
                raise RuntimeError("handler bug")
            seen.append(msg.text)

        texts = ["a", "b", "boom", "c", "d"]
        transport, conn, _ = feed([b"".join(frames_of(*texts))], handler)
        assert seen == ["a", "b", "c", "d"] and not conn.closed
        assert transport.handler_errors == 1 and transport.frames_rejected == 0
        assert isinstance(transport.last_error, RuntimeError)

    def test_a_bad_frame_mid_chunk_closes_the_connection_after_the_good_ones(self):
        good = frames_of("a", "b", "never")
        garbage = b"\x00\x00\x00\x07garbage"
        transport, conn, seen = feed([good[0] + good[1] + garbage + good[2]])
        assert seen == ["a", "b"] and conn.closed and transport.frames_rejected == 1
