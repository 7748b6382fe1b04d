"""Unit tests for the simulation-backed runtime."""

from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.net.message import Message, message
from repro.net.topology import EU, US_EAST, Topology
from repro.runtime.sim import SimWorld


@message
@dataclass(frozen=True)
class _Msg(Message):
    n: int = 0


class TestSimNodeRuntime:
    def test_send_and_listen(self, world):
        a = world.runtime_for("a")
        b = world.runtime_for("b")
        inbox = []
        b.listen(lambda src, msg: inbox.append((src, msg)))
        a.listen(lambda src, msg: None)
        a.send("b", _Msg(n=1))
        world.run()
        assert inbox == [("a", _Msg(n=1))]

    def test_now_tracks_kernel(self, world):
        runtime = world.runtime_for("a")
        world.kernel.schedule(3.0, lambda: None)
        world.run()
        assert runtime.now() == 3.0

    def test_timer_fires_and_cancels(self, world):
        runtime = world.runtime_for("a")
        fired = []
        runtime.set_timer(1.0, lambda: fired.append("yes"))
        handle = runtime.set_timer(2.0, lambda: fired.append("no"))
        handle.cancel()
        world.run()
        assert fired == ["yes"]

    def test_rng_streams_scoped_per_node(self, world):
        a = world.runtime_for("a")
        b = world.runtime_for("b")
        assert a.rng("x").random() != b.rng("x").random()
        assert a.rng("x") is a.rng("x")

    def test_execute_charges_cpu_serially(self, world):
        runtime = world.runtime_for("a")
        done = []
        runtime.execute(1.0, lambda: done.append(runtime.now()))
        runtime.execute(0.5, lambda: done.append(runtime.now()))
        world.run()
        assert done == [1.0, 1.5]

    def test_latency_estimate_uses_model(self):
        topology = Topology()
        topology.add("a", EU)
        topology.add("b", US_EAST)
        world = SimWorld.geo(topology)
        runtime = world.runtime_for("a")
        assert runtime.latency_estimate("b") == pytest.approx(0.045)

    def test_unknown_node_in_topology_world_rejected(self):
        topology = Topology()
        topology.add("a", EU)
        world = SimWorld.geo(topology)
        with pytest.raises(ConfigurationError):
            world.runtime_for("ghost")

    def test_crash_silences_node(self, world):
        a = world.runtime_for("a")
        b = world.runtime_for("b")
        inbox = []
        b.listen(lambda src, msg: inbox.append(msg))
        a.listen(lambda src, msg: None)
        fired = []
        a.set_timer(1.0, lambda: fired.append("timer"))
        world.crash("a")
        a.send("b", _Msg())
        world.run()
        assert inbox == []
        assert fired == []

    def test_crashed_node_execute_is_noop(self, world):
        a = world.runtime_for("a")
        world.crash("a")
        done = []
        a.execute(0.0, lambda: done.append(1))
        world.run()
        assert done == []
