"""Asyncio-backed runtime: the same protocol cores over real sockets.

An :class:`AioWorld` holds the node directory (``node_id -> (host, port)``)
and mints :class:`AioNodeRuntime` instances.  Each node runtime owns an
:class:`~repro.net.asyncio_transport.AioTransport`; ``send`` posts the
message to the transport's outbox — written, with everything else bound
for the same peer, by one flush per loop turn — so protocol cores stay
non-blocking, matching the fire-and-forget semantics of the simulated
transport.  A message a node sends to itself skips the socket: its
handler runs on the next loop turn.  ``at_turn_end`` hooks run at that
same flush, before its writes.  A closed runtime is quiet: its timers
are cancelled and sends do nothing.

Integration tests build small clusters on localhost ports and verify that
the unmodified SDUR and Paxos cores commit transactions over real TCP.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Callable
from typing import Any

from repro.errors import ConfigurationError
from repro.net.asyncio_transport import AioTransport
from repro.obs.recorder import (
    NULL_RECORDER,
    ObsRecorder,
    default_tracing,
    register_recorder,
)
from repro.runtime.base import DEAD_TIMER, LiveTimer, Runtime, TimerHandle
from repro.sim.rng import RngRegistry


class AioWorld:
    """Directory and shared state for an asyncio deployment."""

    def __init__(
        self,
        directory: dict[str, tuple[str, int]],
        seed: int = 0,
        obs: ObsRecorder | None = None,
    ) -> None:
        self.directory = dict(directory)
        self.rng = RngRegistry(seed)
        self.obs: ObsRecorder = obs if obs is not None else NULL_RECORDER
        if self.obs.enabled:
            # Wall-clock tracing (the asyncio loop's clock is monotonic).
            self.obs.bind_clock(time.monotonic)
            if default_tracing():
                register_recorder(self.obs)
        self._runtimes: dict[str, AioNodeRuntime] = {}
        #: Optional static one-way delay estimates for the delaying technique.
        self.delay_estimates: dict[tuple[str, str], float] = {}

    def runtime_for(self, node_id: str) -> "AioNodeRuntime":
        if node_id not in self.directory:
            raise ConfigurationError(f"node {node_id!r} not in directory")
        runtime = self._runtimes.get(node_id)
        if runtime is None:
            runtime = AioNodeRuntime(self, node_id)
            self._runtimes[node_id] = runtime
        return runtime

    async def start_all(self) -> None:
        """Start the transports of every runtime created so far."""
        await asyncio.gather(*(runtime.start() for runtime in self._runtimes.values()))

    async def close_all(self) -> None:
        await asyncio.gather(*(runtime.close() for runtime in self._runtimes.values()))


class AioNodeRuntime(Runtime):
    """Per-node :class:`Runtime` over asyncio TCP."""

    def __init__(self, world: AioWorld, node_id: str) -> None:
        self.world = world
        self.node_id = node_id
        self.obs = world.obs
        self._handler: Callable[[str, Any], None] | None = None
        self._transport: AioTransport | None = None
        #: Timers armed and neither fired nor cancelled; ``close`` cancels them.
        self._timers: set[LiveTimer] = set()
        self._closed = False

    async def start(self) -> None:
        """Bind the TCP endpoint; requires :meth:`listen` to have been called."""
        if self._handler is None:
            raise ConfigurationError(f"{self.node_id}: listen() must be called before start()")
        self._transport = AioTransport(
            self.node_id, self.world.directory, self._handler, obs=self.obs
        )
        await self._transport.start()

    async def close(self) -> None:
        """Cancel every live timer and close the transport; afterwards no
        callback of this node runs and ``send`` / ``set_timer`` do nothing."""
        self._closed = True
        for timer in list(self._timers):
            timer.cancel()
        if self._transport is not None:
            await self._transport.close()

    # -- Runtime interface ---------------------------------------------
    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def send(self, dst: str, msg: Any) -> None:
        if self._transport is not None:
            self._transport.post(dst, msg)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if self._closed:
            return DEAD_TIMER
        return LiveTimer(self._timers, asyncio.get_running_loop().call_later, delay, callback)

    def listen(self, handler: Callable[[str, Any], None]) -> None:
        self._handler = handler

    def rng(self, name: str) -> random.Random:
        return self.world.rng.stream(f"{self.node_id}.{name}")

    def execute(self, cost: float, fn: Callable[[], None]) -> None:
        # Real nodes pay real CPU; an artificial cost is modelled as a delay.
        if cost <= 0:
            fn()
        else:
            self.set_timer(cost, fn)

    def latency_estimate(self, dst: str) -> float:
        return self.world.delay_estimates.get((self.node_id, dst), 0.0)

    def at_turn_end(self, fn: Callable[[], None]) -> None:
        # The flush that writes this turn's sends runs after every
        # callback already scheduled for the turn, so it closes the turn.
        if self._transport is None:
            fn()
        else:
            self._transport.at_flush(fn)
