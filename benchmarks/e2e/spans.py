"""In-memory span recorder for the traced run.

Everything runs on one thread, so a stack is enough to attribute time:
a span's *self time* is its duration minus the time its child spans
cover.  Self time is aggregated per ``(layer, kind)`` for every span; a
bounded sample of full span records (name, kind, start, end, parent) is
kept for ``out/trace-<workload>.json``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable, Coroutine
from typing import Any

from repro.metrics import stats

#: Full span records kept for the trace file; later spans only aggregate.
MAX_SPAN_RECORDS = 20_000


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: Open spans: [layer, kind, start, child_seconds, record_index, tid].
        self._stack: list[list[Any]] = []
        #: (layer, kind) -> total self seconds / span count.
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.count: dict[tuple[str, str], int] = defaultdict(int)
        #: Free-form counters and sample lists the layer wrappers feed.
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: tid -> {stage: first timestamp} (the stage budget).
        self.stamps: dict[Any, dict[str, float]] = {}
        #: (layer, kind, start, end, parent_index, tid) for the first spans;
        #: spans of one transaction share its ``tid``.
        self.records: list[tuple[str, str, float, float, int, Any] | None] = []

    # -- spans ----------------------------------------------------------
    def push(self, layer: str, kind: str = "", tid: Any = None) -> None:
        index = -1
        if self.enabled and len(self.records) < MAX_SPAN_RECORDS:
            index = len(self.records)
            self.records.append(None)  # filled in by pop()
        self._stack.append([layer, kind, self.clock(), 0.0, index, tid])

    def pop(self, kind: str | None = None) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        layer, opened_kind, start, child_s, index, tid = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][4]
        if self.enabled:
            key = (layer, opened_kind if kind is None else kind)
            self.self_s[key] += duration - child_s
            self.count[key] += 1
        if index >= 0:
            self.records[index] = (layer, kind or opened_kind, start, end, parent, tid)
        return duration

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        kind_of: Callable[..., str] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` run inside a span; ``kind_of(*args)`` names its kind."""
        push, pop = self.push, self.pop

        def traced(*args: Any, **kwargs: Any) -> Any:
            push(layer, kind_of(*args) if kind_of is not None else "")
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return traced

    # -- stage stamps ---------------------------------------------------
    def stamp(self, tid: Any, stage: str) -> None:
        """First time ``tid`` reached ``stage`` (re-sends do not move it)."""
        if self.enabled:
            self.stamps.setdefault(tid, {}).setdefault(stage, self.clock())

    # -- aggregation ----------------------------------------------------
    def self_seconds(self, layer: str, kinds: set[str] | None = None, exclude: bool = False) -> float:
        """Total self time of ``layer``, optionally only for (or except) ``kinds``."""
        return sum(
            seconds
            for (name, kind), seconds in self.self_s.items()
            if name == layer and (kinds is None or (kind in kinds) != exclude)
        )

    def span_count(self, layer: str, kinds: set[str] | None = None) -> int:
        return sum(
            n
            for (name, kind), n in self.count.items()
            if name == layer and (kinds is None or kind in kinds)
        )

    def total_self_seconds(self) -> float:
        return sum(self.self_s.values())


class TimedCoroutine(Coroutine):
    """Runs ``coro`` with every step inside a span.

    A coroutine's CPU time is spread over the loop iterations that resume
    it; timing each ``send`` separately keeps the span stack well nested
    even when the coroutine suspends.  ``on_done(elapsed)`` receives the
    wall time from creation to completion (lock wait and drain included).
    """

    def __init__(
        self,
        coro: Coroutine,
        tracer: Tracer,
        layer: str,
        kind: str,
        on_done: Callable[[float], None] | None = None,
    ) -> None:
        self._coro = coro
        self._tracer = tracer
        self._layer = layer
        self._kind = kind
        self._on_done = on_done
        self._created = tracer.clock()

    def send(self, value: Any) -> Any:
        self._tracer.push(self._layer, self._kind)
        try:
            return self._coro.send(value)
        except StopIteration:
            self._finished()
            raise
        finally:
            self._tracer.pop()

    def throw(self, *exc_info: Any) -> Any:
        self._tracer.push(self._layer, self._kind)
        try:
            return self._coro.throw(*exc_info)
        except StopIteration:
            self._finished()
            raise
        finally:
            self._tracer.pop()

    def close(self) -> None:
        self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def _finished(self) -> None:
        if self._on_done is not None:
            self._on_done(self._tracer.clock() - self._created)


def percentile(values: list[float], q: float) -> float:
    """``repro.metrics.stats.percentile`` with ``q`` in [0, 1], reading 0.0
    for no samples (a layer a workload never enters reports 0)."""
    return stats.percentile(values, q * 100.0) if values else 0.0
