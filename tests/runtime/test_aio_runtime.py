"""Unit tests for the asyncio-backed runtime: self-delivery, timers, and
a closed node that stays quiet (ROADMAP hole iii-b, e2e finding 7)."""

import asyncio
import gc
import warnings
from dataclasses import dataclass

from repro.net.message import Message, message
from repro.runtime.aio import AioWorld
from tests.conftest import update_program
from tests.integration.test_asyncio_e2e import build_aio_cluster, execute, free_ports
from tests.net.test_asyncio_transport import _drain


@message
@dataclass(frozen=True)
class _AioPing(Message):
    n: int = 0


async def _pair():
    port_a, port_b = free_ports(2)
    world = AioWorld({"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)})
    inboxes = {"a": [], "b": []}
    for name, inbox in inboxes.items():
        world.runtime_for(name).listen(lambda src, msg, inbox=inbox: inbox.append((src, msg)))
    await world.start_all()
    return world, inboxes


class TestSend:
    def test_self_send_skips_the_socket_and_is_never_reentrant(self):
        async def body():
            world, inboxes = await _pair()
            a = world.runtime_for("a")
            try:
                a.send("a", _AioPing(n=1))
                a.send("b", _AioPing(n=2))
                a.send("a", _AioPing(n=3))
                assert inboxes["a"] == []  # scheduled, not called
                await _drain(lambda: len(inboxes["a"]) == 2 and inboxes["b"])
                assert inboxes["a"] == [("a", _AioPing(n=1)), ("a", _AioPing(n=3))]
                assert inboxes["b"] == [("a", _AioPing(n=2))]
                assert set(a._transport._writers) == {"b"}
            finally:
                await world.close_all()

        asyncio.run(body())

    def test_send_before_start_is_dropped(self):
        world = AioWorld({"a": ("127.0.0.1", 1)})
        world.runtime_for("a").send("a", _AioPing())  # no transport yet: no error


class TestTimers:
    def test_fired_and_cancelled_timers_are_forgotten(self):
        async def body():
            world, _ = await _pair()
            a = world.runtime_for("a")
            try:
                fired = []
                a.set_timer(0.01, lambda: fired.append("short"))
                long = a.set_timer(30.0, lambda: fired.append("long"))
                a.execute(0.01, lambda: fired.append("costed"))
                assert len(a._timers) == 3
                long.cancel()
                await _drain(lambda: len(fired) == 2)
                assert sorted(fired) == ["costed", "short"] and not a._timers
                long.cancel()  # idempotent
            finally:
                await world.close_all()

        asyncio.run(body())

    def test_finished_transactions_leave_no_client_timer_armed(self):
        """Two read retries and one commit retry are armed per update
        (1 s / 2 s here); an outcome must disarm them, not leave them —
        and the transaction state their closures hold — for the timeout."""

        async def body():
            world, client, _ = await build_aio_cluster()
            try:
                for _ in range(5):
                    result = await execute(client, update_program(["0/x", "0/y"]))
                    assert result.committed
                assert not client.runtime._timers  # parent: 3 per transaction
            finally:
                await world.close_all()

        asyncio.run(body())


class TestClosedNodeIsQuiet:
    def test_nothing_runs_is_sent_or_is_reported_after_close_all(self, capfd):
        """Gossip (50 ms), commit-index (500 ms) and client timers are all
        armed when the world closes; none may fire, and no coroutine, task
        or socket may be left for the loop or the collector to complain
        about."""
        reported = []

        async def body():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            world, client, servers = await build_aio_cluster()
            result = await execute(client, update_program(["0/x", "1/y"]))
            assert result.committed
            runtimes = list(world._runtimes.values())
            await world.close_all()
            # Hooked on the instances, the way benchmarks/e2e/layers.py does.
            after_close = []
            for runtime in runtimes:
                runtime.send = lambda dst, msg, send=runtime.send: (
                    after_close.append(f"send {type(msg).__name__}"),
                    send(dst, msg),
                )
                transport = runtime._transport
                transport.handler = lambda src, msg, handler=transport.handler: (
                    after_close.append(f"handle {type(msg).__name__}"),
                    handler(src, msg),
                )
            # Past six gossip intervals and the first commit-index tick.
            await asyncio.sleep(0.35)
            assert after_close == [], "timers outlived close_all()"
            assert not any(runtime._timers for runtime in runtimes)
            # A straggler that still holds the runtime gets no-ops, not errors.
            runtime = runtimes[0]
            runtime.send(runtimes[1].node_id, _AioPing())
            runtime.send(runtime.node_id, _AioPing())
            runtime.set_timer(0.0, lambda: reported.append("timer fired after close"))
            runtime.execute(0.001, lambda: reported.append("execute ran after close"))
            await asyncio.sleep(0.02)
            assert after_close == ["send _AioPing", "send _AioPing"]
            assert not runtime._timers and not runtime._transport._outbox

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            asyncio.run(body())
            gc.collect()
        out, err = capfd.readouterr()
        assert reported == []
        assert out == "" and err == ""

    def test_connect_in_flight_at_close_leaves_no_socket(self, capfd):
        async def body():
            world, inboxes = await _pair()
            a = world.runtime_for("a")
            a.send("b", _AioPing(n=1))
            await asyncio.sleep(0)  # the flush has started connecting
            assert a._transport._connecting
            await world.close_all()
            assert not a._transport._connecting and not a._transport._writers
            await asyncio.sleep(0.05)
            assert inboxes["b"] == []

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # ResourceWarning: unclosed socket
            asyncio.run(body())
            gc.collect()
        out, err = capfd.readouterr()
        assert out == "" and err == ""
