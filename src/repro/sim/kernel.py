"""The discrete-event simulation kernel.

The kernel maintains a virtual clock and a heap of scheduled callbacks.
Determinism is guaranteed by breaking time ties with a monotonically
increasing sequence number, so two runs with the same seed interleave
events identically.

Every event is a callback: ``kernel.schedule(delay, fn, *args)`` runs
``fn(*args)`` at ``now + delay`` and returns a cancellable handle.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import Any

from repro.errors import ClockError, SimulationError

class ScheduledEvent:
    """A callback scheduled on the kernel; cancellable handle."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly.
        The heap slot stays until popped, so what it would have run on is
        dropped here, not pinned until then (as ``asyncio.Handle.cancel``)."""
        self.cancelled = True
        self.callback = None
        self.args = ()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


class Kernel:
    """Deterministic discrete-event loop with a virtual clock in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ClockError(f"cannot schedule {delay!r} seconds in the past")
        event = ScheduledEvent(self._now + delay, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; return ``False`` if the heap is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time < self._now:
                raise ClockError("event heap produced an event in the past")
            self._now = event.time
            event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; the clock is advanced to
        exactly ``until`` when the bound is what stops the run.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                next_event = self._heap[0]
                if next_event.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and next_event.time > until:
                    self._now = until
                    return
                if max_events is not None and executed >= max_events:
                    return
                self.step()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from the current time."""
        self.run(until=self._now + duration)
