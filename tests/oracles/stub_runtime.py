"""The one hand-driven runtime for driving a protocol core without a
simulator: a server through ``on_adeliver`` (the differential suites,
``bench_batch``, ``bench_telemetry``), or a component — the vote ledger,
the reconfiguration participant — through its fixed points.

``execute`` runs inline, ``now()`` is a clock the test sets, and timers
are never fired: they are listed as ``(due, callback)`` for the test to
call.  It has no loop turns, so ``at_turn_end`` is the
:class:`~repro.runtime.base.Runtime` default (run now): a Paxos leader on
it opens one instance per proposal, where the simulator and the asyncio
runtime batch each turn's proposals into one.  Imports nothing
but the standard library and ``repro`` — the benchmarks' CI job installs
no test dependencies.
"""

import random

from repro.runtime.base import Runtime


class _DeadTimer:
    def cancel(self) -> None:
        return None


_DEAD_TIMER = _DeadTimer()


class StubRuntime(Runtime):
    def __init__(self, node_id: str = "s0", record: bool = True) -> None:
        self.node_id = node_id
        self.clock = 0.0
        #: ``record=False`` keeps neither list: a benchmark's runtime
        #: must not grow the heap it is timing.
        self._record = record
        self.sent: list[tuple[str, object]] = []
        self.timers: list[tuple[float, object]] = []

    def now(self) -> float:
        return self.clock

    def send(self, dst: str, msg) -> None:
        if self._record:
            self.sent.append((dst, msg))

    def set_timer(self, delay: float, callback):
        if self._record:
            self.timers.append((self.clock + delay, callback))
        return _DEAD_TIMER

    def listen(self, handler) -> None:
        return None

    def rng(self, name: str) -> random.Random:
        return random.Random(name)

    def execute(self, cost: float, fn) -> None:
        fn()

    def latency_estimate(self, dst: str) -> float:
        return 0.0


class DropFabric:
    """An abcast fabric that orders nothing: values reach a hand-driven
    server only as scripted deliveries."""

    def abcast(self, group: str, value) -> None:
        return None

    def add_group(self, name: str, members, preferred) -> None:
        return None
