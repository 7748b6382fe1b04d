"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ClockError, SimulationError
from repro.sim.kernel import Kernel


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

