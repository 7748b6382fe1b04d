"""Batched delivery: amortizing per-message overhead on the hot path.

PR 4's key-indexed certification made each conflict check O(|rs|+|ws|),
which leaves the per-message Python overhead — one ``runtime.execute``
closure, the delivery dispatch chain, a pending-list insert/pop, and a
client reply per transaction — as the dominant cost of the delivery
path ("Parallel Deferred Update Replication" makes the same
observation: deferred-update throughput scales when delivery and
certification are decoupled into a pipeline).  :class:`DeliveryBatcher`
groups consecutive atomic-broadcast deliveries into *delivery batches*
(size- and time-window-bounded on the runtime's clock) that the server
runs as one execution (``SdurServer._run_batch``).  It is the only way
a delivered value reaches the server: "off" is ``SdurConfig``'s default
batch of one, which flushes inside ``add`` and never arms a timer.

Determinism is untouched: a batch boundary is invisible to protocol
state.  Values are processed strictly in delivery order, each through
the ordinary one-value ingest; a local that meets an empty pending list
completes at delivery rather than entering and leaving it
(``SdurServer._completes_at_delivery``, docs/PROTOCOL.md §18.2 —
``tests/oracles/sequential_ingest.py`` answers False, as the reference).

This module is deliberately dependency-free (the config dataclass is
imported by :mod:`repro.core.config`, mirroring ``AdmissionConfig``),
and the batcher talks to the runtime only through injected callables so
unit tests can drive the clock by hand.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the batched delivery/certification pipeline (§18)."""

    #: Deliveries buffered before a size-triggered flush.
    max_batch: int = 64
    #: Seconds a buffered delivery may wait for the batch to fill before
    #: a time-triggered flush (bounded on the sim/aio runtime clock).
    max_wait: float = 0.002
    #: Vote records grouped into one ``VoteRecordGroup`` log value
    #: (1 = propose each record individually).
    ledger_group: int = 16

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ConfigurationError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.ledger_group < 1:
            raise ConfigurationError(
                f"ledger_group must be >= 1, got {self.ledger_group}"
            )


class DeliveryBatcher:
    """Buffers abcast deliveries into size/time-bounded batches.

    ``add`` is called from the delivery callback with each value (and
    its CPU-model cost); ``flush`` receives the buffered values, in
    delivery order, and the sum of their costs when either

    * the buffer reaches ``max_batch`` entries (size trigger), or
    * ``max_wait`` elapses after the first buffered entry (time
      trigger, armed through the injected ``set_timer``).

    The timer is armed at most once per in-flight window; a size flush
    simply leaves it to fire on an empty buffer (a no-op), so no timer
    cancellation support is required of the runtime.
    """

    def __init__(
        self,
        config: BatchingConfig,
        flush: Callable[[list[Any], float], None],
        set_timer: Callable[[float, Callable[[], None]], Any],
    ) -> None:
        self.config = config
        self._flush = flush
        self._set_timer = set_timer
        self._buffer: list[Any] = []
        self._cost = 0.0
        self._timer_armed = False
        #: Flush-trigger counters (unit-tested; the server aggregates
        #: batch-level stats separately).
        self.flushed_by_size = 0
        self.flushed_by_timer = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def add(self, value: Any, cost: float = 0.0) -> None:
        """Buffer one delivery; flush if the size bound is reached."""
        self._buffer.append(value)
        self._cost += cost
        if len(self._buffer) >= self.config.max_batch:
            self.flushed_by_size += 1
            self._flush_now()
        elif not self._timer_armed:
            self._timer_armed = True
            self._set_timer(self.config.max_wait, self._on_timer)

    def _on_timer(self) -> None:
        self._timer_armed = False
        if self._buffer:
            self.flushed_by_timer += 1
            self._flush_now()

    def flush_now(self) -> None:
        """Force out whatever is buffered (quiescence points, tests)."""
        if self._buffer:
            self._flush_now()

    def _flush_now(self) -> None:
        values, cost = self._buffer, self._cost
        self._buffer, self._cost = [], 0.0
        self._flush(values, cost)
