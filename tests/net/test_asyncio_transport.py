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


async def _run_pair(test_body):
    port_a, port_b = free_ports(2)
    directory = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
    inbox_a, inbox_b = [], []
    ta = AioTransport("a", directory, lambda src, msg: inbox_a.append((src, msg)))
    tb = AioTransport("b", directory, lambda src, msg: inbox_b.append((src, msg)))
    await ta.start()
    await tb.start()
    try:
        await test_body(ta, tb, inbox_a, inbox_b)
    finally:
        await ta.close()
        await tb.close()


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
            from repro.net.message import encode_message

            host, port = tb.directory["b"]
            reader, writer = await asyncio.open_connection(host, port)
            data = encode_message(_Echo(text="naked"))
            writer.write(len(data).to_bytes(4, "big") + data)
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            assert tb.frames_rejected == 1 and not inbox_b

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
