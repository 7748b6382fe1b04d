"""Span self-time arithmetic on hand-built nests (stub clock)."""

import asyncio

from spans import TimedCoroutine, Tracer, percentile


class StubClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = StubClock()
    tracer = Tracer(clock)
    tracer.enabled = True
    tracer.push("server.handle", "CommitRequest")  # t=0
    clock.now = 1.0
    tracer.push("paxos.propose", "TxnProjection")  # t=1
    clock.now = 2.0
    tracer.push("runtime.send", "Accept")  # t=2
    clock.now = 2.5
    tracer.pop()  # runtime.send: 0.5
    tracer.push("runtime.send", "Accept")  # t=2.5
    clock.now = 3.0
    tracer.pop()  # runtime.send: 0.5
    clock.now = 4.0
    tracer.pop()  # paxos.propose: 3.0 total, 1.0 in children
    clock.now = 6.0
    assert tracer.pop() == 6.0  # server.handle: 6.0 total, 3.0 in children

    assert tracer.self_seconds("runtime.send") == 1.0
    assert tracer.self_seconds("paxos.propose") == 2.0
    assert tracer.self_seconds("server.handle") == 3.0
    assert tracer.total_self_seconds() == 6.0  # self times partition the root span
    assert tracer.span_count("runtime.send", {"Accept"}) == 2
    # Records name the span that caused them.
    layers = [(r[0], r[4]) for r in tracer.records]
    assert layers == [("server.handle", -1), ("paxos.propose", 0), ("runtime.send", 1), ("runtime.send", 1)]


def test_kind_filters_and_disabled_spans():
    clock = StubClock()
    tracer = Tracer(clock)
    tracer.push("server.handle", "Vote")
    clock.now = 1.0
    tracer.pop()
    assert tracer.total_self_seconds() == 0.0  # not enabled: nothing recorded
    tracer.enabled = True
    for kind, length in (("Vote", 1.0), ("CommitGossip", 2.0), ("ReadRequest", 4.0)):
        tracer.push("server.handle", kind)
        clock.now += length
        tracer.pop()
    assert tracer.self_seconds("server.handle", {"Vote"}) == 1.0
    assert tracer.self_seconds("server.handle", {"Vote", "CommitGossip"}, exclude=True) == 4.0


def test_timed_coroutine_times_each_step_and_nests_cleanly():
    clock = StubClock()
    tracer = Tracer(clock)
    tracer.enabled = True
    elapsed = []

    async def work():
        clock.now += 1.0  # first step: 1 s of CPU
        await asyncio.sleep(0)
        clock.now += 2.0  # second step: 2 s of CPU
        return "sent"

    async def body():
        task = asyncio.get_running_loop().create_task(
            TimedCoroutine(work(), tracer, "transport.send", "Accept", elapsed.append)
        )
        await asyncio.sleep(0)  # the first step has run; the task is suspended
        tracer.push("paxos.handle", "Accepted")  # unrelated work in between
        clock.now += 10.0
        tracer.pop()
        return await task

    assert asyncio.run(body()) == "sent"
    assert tracer.self_seconds("transport.send") == 3.0
    assert tracer.self_seconds("paxos.handle") == 10.0
    assert tracer.span_count("transport.send") == 2  # one span per step
    assert elapsed == [13.0]  # creation to completion, waiting included


def test_percentile_reads_zero_without_samples():
    values = [float(v) for v in range(1, 102)]
    assert percentile(values, 0.5) == 51.0
    assert percentile(values, 0.9) == 91.0
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([], 0.5) == 0.0
