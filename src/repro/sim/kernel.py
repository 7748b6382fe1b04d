"""The discrete-event simulation kernel.

The kernel maintains a virtual clock and a heap of scheduled callbacks.
Determinism is guaranteed by breaking time ties with a monotonically
increasing sequence number, so two runs with the same seed interleave
events identically.

Two programming styles are supported:

* **Callbacks** — ``kernel.schedule(delay, fn, *args)`` runs ``fn`` at
  ``now + delay``.
* **Processes** — ``kernel.spawn(generator)`` runs a generator that yields
  either a ``float`` (sleep for that many simulated seconds) or a
  :class:`Signal` (park until the signal fires).  Signals carry a value,
  which becomes the result of the ``yield`` expression.

Example::

    kernel = Kernel()
    done = Signal()

    def worker():
        yield 1.5                  # sleep 1.5 simulated seconds
        done.fire("finished")

    def waiter():
        result = yield done        # parked until worker fires the signal
        assert result == "finished"

    kernel.spawn(worker())
    kernel.spawn(waiter())
    kernel.run()
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import ClockError, SimulationError

#: Type of the generators accepted by :meth:`Kernel.spawn`.
ProcessGen = Generator[Any, Any, None]


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


class Signal:
    """A one-to-many wake-up primitive for kernel processes.

    A process that yields a signal is parked until :meth:`fire` is called,
    at which point the fired value is sent into the generator.  A signal
    that has already fired wakes new waiters immediately (it latches).
    """

    __slots__ = ("_waiters", "_fired", "_value")

    def __init__(self) -> None:
        self._waiters: list[Callable[[Any], None]] = []
        self._fired = False
        self._value: Any = None

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("signal value read before fire()")
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all current and future waiters."""
        if self._fired:
            raise SimulationError("signal fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; called immediately if already fired."""
        if self._fired:
            callback(self._value)
        else:
            self._waiters.append(callback)


class Kernel:
    """Deterministic discrete-event loop with a virtual clock in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._running = False
        self._events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far (for tests/metrics)."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return sum(1 for event in self._heap if not event.cancelled)

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

    def call_soon(self, callback: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` at the current time, after pending events."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, generator: ProcessGen, delay: float = 0.0) -> ScheduledEvent:
        """Start a generator-based process after ``delay`` seconds.

        The generator may yield:

        * a non-negative ``float``/``int`` — sleep that many seconds;
        * a :class:`Signal` — park until it fires; the fired value becomes
          the result of the ``yield``.
        """
        return self.schedule(delay, self._step_process, generator, None)

    def _step_process(self, generator: ProcessGen, send_value: Any) -> None:
        try:
            yielded = generator.send(send_value)
        except StopIteration:
            return
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                generator.throw(ClockError(f"process slept {yielded!r} < 0"))
                return
            self.schedule(float(yielded), self._step_process, generator, None)
        elif isinstance(yielded, Signal):
            yielded.add_waiter(lambda value: self.call_soon(self._step_process, generator, value))
        else:
            generator.throw(
                SimulationError(f"process yielded unsupported value {yielded!r}")
            )

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
            self._events_executed += 1
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
