"""The open-loop generator charges a stalled sender's delay to the
transactions it delayed, and spaces arrivals in calibrated seconds (stub
clock, stub clients)."""

import asyncio
from types import SimpleNamespace

from loadgen import LoadGen, WorkloadSpec

SERVICE_S = 0.001


class StubClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class InstantClient:
    """Completes every transaction ``SERVICE_S`` after it is issued."""

    def __init__(self, clock):
        self.clock = clock

    def execute(self, program, on_done, read_only=False, label=""):
        self.clock.now += SERVICE_S
        on_done(SimpleNamespace(tid=object(), committed=True, abort_reason=None))


def test_stall_is_charged_from_the_due_time():
    clock = StubClock()
    clients = [
        SimpleNamespace(name=f"c{i}", home=i % 2, client=InstantClient(clock)) for i in range(8)
    ]
    stall_at, stall_s = 101.0, 0.5
    stalled = []

    async def sleep(delay):
        # The loop wakes the sender on time, except once: a 0.5 s stall
        # (a gen-2 collection, say) while it sleeps across t=101.
        wake = clock.now + delay
        if not stalled and wake >= stall_at:
            stalled.append(wake)
            wake += stall_s
        clock.now = max(clock.now, wake)

    spec = WorkloadSpec("open", "test", open_rate=200.0)
    loadgen = LoadGen(SimpleNamespace(clients=clients), spec, seed=5, clock=clock, sleep=sleep)
    asyncio.run(loadgen.run(3.0))

    assert len(loadgen.records) > 400
    woke = stalled[0] + stall_s
    delayed = [r for r in loadgen.records if stalled[0] <= r.due < woke]
    on_time = [r for r in loadgen.records if r.due < stalled[0]]
    assert len(delayed) > 50  # ~100 transactions fell due during the stall
    # Each keeps its own due time: its latency is the rest of the stall
    # plus the backlog in front of it, never just the service time.
    for record in delayed:
        assert record.latency >= (woke - record.due) - 1e-9
        assert record.issued >= woke - 1e-9
    assert max(r.latency for r in on_time) < 0.01
    assert max(loadgen.sender_lateness) > stall_s * 0.9
    # Round-robin over the clients, closed-loop chaining off.
    assert loadgen.in_flight == 0 and loadgen.issued == len(loadgen.records)


def test_arrivals_are_spaced_in_calibrated_seconds():
    """On a machine twice as slow the same seed offers the same
    transactions at half the wall-clock rate."""
    issued = {}
    for pace in (1.0, 2.0):
        clock = StubClock()
        clients = [
            SimpleNamespace(name=f"c{i}", home=i % 2, client=InstantClient(clock)) for i in range(8)
        ]

        async def sleep(delay, clock=clock):
            clock.now += delay

        spec = WorkloadSpec("open", "test", open_rate=200.0)
        loadgen = LoadGen(
            SimpleNamespace(clients=clients), spec, seed=5, clock=clock, sleep=sleep,
            pace=lambda pace=pace: pace,
        )
        asyncio.run(loadgen.run(4.0))
        issued[pace] = [r.due - 100.0 for r in loadgen.records]
    slow, quick = issued[2.0], issued[1.0]
    assert 350 < len(slow) < 450 and 750 < len(quick) < 850
    for due_slow, due_quick in zip(slow, quick):
        assert abs(due_slow - 2.0 * due_quick) < 1e-9
