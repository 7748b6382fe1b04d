"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ClockError, SimulationError
from repro.sim.kernel import Kernel, Signal


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_callback_runs_at_scheduled_time(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(2.5, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [2.5]

    def test_callbacks_run_in_time_order(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(3.0, seen.append, "c")
        kernel.schedule(1.0, seen.append, "a")
        kernel.schedule(2.0, seen.append, "b")
        kernel.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        kernel = Kernel()
        seen = []
        for name in "abcde":
            kernel.schedule(1.0, seen.append, name)
        kernel.run()
        assert seen == list("abcde")

    def test_callback_args_are_passed(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(0.0, lambda a, b: seen.append((a, b)), 1, 2)
        kernel.run()
        assert seen == [(1, 2)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            Kernel().schedule(-0.1, lambda: None)

    def test_call_soon_runs_at_current_time(self):
        kernel = Kernel()
        times = []
        kernel.schedule(5.0, lambda: kernel.call_soon(lambda: times.append(kernel.now)))
        kernel.run()
        assert times == [5.0]

    def test_cancel_prevents_execution(self):
        kernel = Kernel()
        seen = []
        event = kernel.schedule(1.0, seen.append, "x")
        event.cancel()
        kernel.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        kernel = Kernel()
        event = kernel.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        kernel.run()

    def test_events_scheduled_during_run_execute(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(1.0, lambda: kernel.schedule(1.0, seen.append, "nested"))
        kernel.run()
        assert seen == ["nested"]
        assert kernel.now == 2.0


class TestRunBounds:
    def test_run_until_stops_the_clock_at_bound(self):
        kernel = Kernel()
        kernel.schedule(10.0, lambda: None)
        kernel.run(until=4.0)
        assert kernel.now == 4.0
        assert kernel.step() is True and kernel.now == 10.0

    def test_run_until_executes_events_at_exactly_the_bound(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(4.0, seen.append, "edge")
        kernel.run(until=4.0)
        assert seen == ["edge"]

    def test_run_for_is_relative(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.run_for(2.0)
        assert kernel.now == 2.0
        kernel.run_for(3.0)
        assert kernel.now == 5.0

    def test_run_advances_clock_to_until_even_with_empty_heap(self):
        kernel = Kernel()
        kernel.run(until=7.0)
        assert kernel.now == 7.0

    def test_max_events_bound(self):
        kernel = Kernel()
        seen = []
        for i in range(10):
            kernel.schedule(float(i), seen.append, i)
        kernel.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_run_is_not_reentrant(self):
        kernel = Kernel()

        def reenter():
            with pytest.raises(SimulationError):
                kernel.run()

        kernel.schedule(0.0, reenter)
        kernel.run()

    def test_step_returns_false_when_drained(self):
        kernel = Kernel()
        assert kernel.step() is False
        kernel.schedule(0.0, lambda: None)
        assert kernel.step() is True
        assert kernel.step() is False


class TestProcesses:
    def test_process_sleeps(self):
        kernel = Kernel()
        trace = []

        def proc():
            trace.append(kernel.now)
            yield 1.5
            trace.append(kernel.now)
            yield 0.5
            trace.append(kernel.now)

        kernel.spawn(proc())
        kernel.run()
        assert trace == [0.0, 1.5, 2.0]

    def test_spawn_with_delay(self):
        kernel = Kernel()
        trace = []

        def proc():
            trace.append(kernel.now)
            yield 0.0

        kernel.spawn(proc(), delay=3.0)
        kernel.run()
        assert trace == [3.0]

    def test_process_waits_on_signal(self):
        kernel = Kernel()
        signal = Signal()
        trace = []

        def waiter():
            value = yield signal
            trace.append((kernel.now, value))

        def firer():
            yield 2.0
            signal.fire("hello")

        kernel.spawn(waiter())
        kernel.spawn(firer())
        kernel.run()
        assert trace == [(2.0, "hello")]

    def test_fired_signal_wakes_late_waiter_immediately(self):
        kernel = Kernel()
        signal = Signal()
        signal.fire(42)
        trace = []

        def waiter():
            value = yield signal
            trace.append(value)

        kernel.spawn(waiter())
        kernel.run()
        assert trace == [42]

    def test_signal_wakes_multiple_waiters(self):
        kernel = Kernel()
        signal = Signal()
        trace = []

        def waiter(name):
            value = yield signal
            trace.append((name, value))

        kernel.spawn(waiter("a"))
        kernel.spawn(waiter("b"))
        kernel.schedule(1.0, signal.fire, "v")
        kernel.run()
        assert sorted(trace) == [("a", "v"), ("b", "v")]

    def test_signal_cannot_fire_twice(self):
        signal = Signal()
        signal.fire(1)
        with pytest.raises(SimulationError):
            signal.fire(2)

    def test_signal_value_before_fire_raises(self):
        with pytest.raises(SimulationError):
            Signal().value

    def test_process_yielding_garbage_raises(self):
        kernel = Kernel()

        def proc():
            yield object()

        kernel.spawn(proc())
        with pytest.raises(SimulationError):
            kernel.run()
