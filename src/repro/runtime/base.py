"""The abstract runtime interface protocol cores are written against."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import Any, Protocol

from repro.obs.recorder import NULL_RECORDER, ObsRecorder


class TimerHandle(Protocol):
    """Cancellable handle returned by :meth:`Runtime.set_timer`."""

    def cancel(self) -> None: ...


class _DeadTimer:
    """The handle a node that has crashed or closed hands out: nothing
    was armed, so there is nothing to cancel."""

    def cancel(self) -> None:
        return None


DEAD_TIMER = _DeadTimer()


class LiveTimer:
    """A cancellable timer that its runtime can find again: it sits in
    ``live`` from arming until it fires or is cancelled, so a runtime
    that stops can cancel what is still armed.  ``call_later`` is the
    scheduler's own (``loop.call_later``, ``kernel.schedule``)."""

    __slots__ = ("_live", "_callback", "_handle")

    def __init__(
        self,
        live: set["LiveTimer"],
        call_later: Callable[[float, Callable[[], None]], TimerHandle],
        delay: float,
        callback: Callable[[], None],
    ) -> None:
        self._live = live
        self._callback = callback
        self._handle: TimerHandle | None = call_later(delay, self._fire)
        live.add(self)

    def _fire(self) -> None:
        self._live.discard(self)
        # The handle holds this bound method: let go of it, or every
        # fired timer is a reference cycle for the collector to find.
        self._handle = None
        self._callback()

    def cancel(self) -> None:
        self._live.discard(self)
        if self._handle is not None:
            self._handle.cancel()


class Runtime(ABC):
    """Clock, timers, messaging, and randomness for one node.

    A protocol core receives exactly one runtime, bound to its node id.
    The core registers a message handler with :meth:`listen` and from then
    on reacts to messages and timers only — no blocking, no I/O.
    """

    #: The node this runtime is bound to.
    node_id: str

    #: Causal-tracing recorder (repro.obs).  The class-level default is
    #: the shared no-op recorder, so protocol cores can guard
    #: instrumentation with ``if self.runtime.obs.enabled`` against any
    #: runtime; worlds built with tracing enabled override it per node.
    obs: ObsRecorder = NULL_RECORDER

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or monotonic wall time)."""

    @abstractmethod
    def send(self, dst: str, msg: Any) -> None:
        """Fire-and-forget a message to node ``dst``."""

    @abstractmethod
    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` seconds; returns a cancellable handle."""

    @abstractmethod
    def listen(self, handler: Callable[[str, Any], None]) -> None:
        """Register the node's message handler: ``handler(src, msg)``."""

    @abstractmethod
    def rng(self, name: str) -> random.Random:
        """A named reproducible random stream scoped to this node."""

    @abstractmethod
    def execute(self, cost: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after charging ``cost`` seconds of CPU at this node.

        Work submitted through ``execute`` is serialized FIFO per node
        (one core).  A zero cost on an idle CPU runs immediately.
        """

    @abstractmethod
    def latency_estimate(self, dst: str) -> float:
        """Expected one-way message delay to ``dst`` in seconds.

        This models the operator-configured delay table the paper's
        *delaying* technique consults (``delay(x, p)`` in Algorithm 2).
        """

    def at_turn_end(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the work of the current event-loop turn is done
        — everything already delivered has been handled — and before
        what it sends leaves the node.

        This default runs ``fn`` now, for hand-driven runtimes that have
        no turns (the Paxos leader's turn group commit is then a batch of
        one).  :class:`~repro.runtime.aio.AioNodeRuntime` runs it at its
        transport's per-turn flush, ahead of the writes;
        :class:`~repro.runtime.sim.SimNodeRuntime` runs it on a zero-delay
        timer, after every event already due at this simulated instant.
        """
        fn()
