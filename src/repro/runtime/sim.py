"""Simulation-backed runtime.

:class:`SimWorld` owns the shared simulation machinery — kernel, topology,
latency model, network, RNG registry, recorder — and mints one
:class:`SimNodeRuntime` per node.  Experiments build a world, create
protocol cores with per-node runtimes, then drive ``world.kernel``.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any

from repro.errors import ConfigurationError
from repro.net.sim_transport import SimNetwork
from repro.net.topology import DEFAULT_INTRA_REGION_DELAY, RegionLatencyModel, Topology
from repro.obs.recorder import (
    NULL_RECORDER,
    ObsRecorder,
    SpanRecorder,
    default_tracing,
    register_recorder,
)
from repro.runtime.base import DEAD_TIMER, LiveTimer, Runtime, TimerHandle
from repro.sim.kernel import Kernel
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import RngRegistry
from repro.sim.service import ServiceStation


class SimWorld:
    """Shared simulation state for one experiment."""

    def __init__(
        self,
        topology: Topology | None = None,
        latency: LatencyModel | None = None,
        seed: int = 0,
        codec_roundtrip: bool = False,
        loss_probability: float = 0.0,
        obs: ObsRecorder | None = None,
    ) -> None:
        self.kernel = Kernel()
        self.topology = topology if topology is not None else Topology()
        if latency is None:
            latency = ConstantLatency(0.001)
        self.latency = latency
        self.rng = RngRegistry(seed)
        # Causal tracing (repro.obs): a recorder can be passed in, or one
        # is created when the process-wide default is on (--trace).
        if obs is None and default_tracing():
            obs = SpanRecorder()
        self.obs: ObsRecorder = obs if obs is not None else NULL_RECORDER
        if self.obs.enabled:
            self.obs.bind_clock(lambda: self.kernel.now)
            if default_tracing():
                register_recorder(self.obs)  # the CLI exports these
        self.network = SimNetwork(
            self.kernel,
            latency,
            self.rng,
            codec_roundtrip=codec_roundtrip,
            loss_probability=loss_probability,
            obs=self.obs,
            # Worlds model real deployments: traffic to departed nodes
            # (e.g. clients of a previous incarnation during WAL
            # recovery) is dropped, not an error.
            strict=False,
        )
        self._runtimes: dict[str, SimNodeRuntime] = {}

    @classmethod
    def geo(
        cls,
        topology: Topology,
        intra_delay: float | None = None,
        jitter_fraction: float = 0.0,
        seed: int = 0,
        **kwargs: Any,
    ) -> "SimWorld":
        """A world whose latency model is region-aware with paper defaults."""
        latency = RegionLatencyModel.paper_defaults(
            topology,
            intra_delay=(
                intra_delay if intra_delay is not None else DEFAULT_INTRA_REGION_DELAY
            ),
            jitter_fraction=jitter_fraction,
        )
        return cls(topology=topology, latency=latency, seed=seed, **kwargs)

    def runtime_for(self, node_id: str) -> "SimNodeRuntime":
        """Create (or fetch) the runtime bound to ``node_id``."""
        runtime = self._runtimes.get(node_id)
        if runtime is None:
            runtime = SimNodeRuntime(self, node_id)
            self._runtimes[node_id] = runtime
        return runtime

    def crash(self, node_id: str) -> None:
        """Crash-stop a node: drop its traffic and cancel its timers."""
        self.network.crash(node_id)
        runtime = self._runtimes.get(node_id)
        if runtime is not None:
            runtime._crash()

    def run(self, until: float | None = None) -> None:
        """Drive the kernel (absolute-time bound)."""
        self.kernel.run(until=until)

    def run_for(self, duration: float) -> None:
        self.kernel.run_for(duration)

    @property
    def now(self) -> float:
        return self.kernel.now


class SimNodeRuntime(Runtime):
    """Per-node :class:`Runtime` over a :class:`SimWorld`."""

    def __init__(self, world: SimWorld, node_id: str) -> None:
        # Topology-less worlds (unit tests) accept any node id.
        if len(world.topology) > 0 and node_id not in world.topology:
            raise ConfigurationError(f"node {node_id!r} not in topology")
        self.world = world
        self.node_id = node_id
        self.obs = world.obs
        self._cpu = ServiceStation(world.kernel, name=f"{node_id}.cpu")
        self._crashed = False
        #: Timers armed and neither fired nor cancelled; a crash cancels them.
        self._timers: set[LiveTimer] = set()

    # -- Runtime interface ---------------------------------------------
    def now(self) -> float:
        return self.world.kernel.now

    def send(self, dst: str, msg: Any) -> None:
        if self._crashed:
            return
        self.world.network.send(self.node_id, dst, msg)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if self._crashed:
            return DEAD_TIMER
        return LiveTimer(self._timers, self.world.kernel.schedule, delay, callback)

    def listen(self, handler: Callable[[str, Any], None]) -> None:
        self.world.network.register(self.node_id, handler)

    def rng(self, name: str) -> random.Random:
        return self.world.rng.stream(f"{self.node_id}.{name}")

    def execute(self, cost: float, fn: Callable[[], None]) -> None:
        if self._crashed:
            return
        self._cpu.submit(cost, self._run_if_alive(fn))

    def _run_if_alive(self, fn: Callable[[], None]) -> Callable[[], None]:
        def runner() -> None:
            if not self._crashed:
                fn()

        return runner

    def latency_estimate(self, dst: str) -> float:
        return self.world.latency.expected(self.node_id, dst)

    def at_turn_end(self, fn: Callable[[], None]) -> None:
        # A zero-delay timer runs after every event already due at this
        # instant: the simulator's version of asyncio's call_soon flush.
        self.set_timer(0.0, fn)

    # -- Simulation extras ---------------------------------------------
    @property
    def cpu(self) -> ServiceStation:
        return self._cpu

    def _crash(self) -> None:
        self._crashed = True
        for timer in list(self._timers):
            timer.cancel()
