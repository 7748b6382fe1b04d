"""The event recorder behind causal transaction tracing.

Instrumented code sites call ``recorder.event(kind, node, tid, **attrs)``
at protocol milestones.  Tracing is **off by default**: every runtime
carries :data:`NULL_RECORDER`, whose ``enabled`` flag is ``False``, and
every instrumentation site is written as::

    obs = self._obs
    if obs.enabled:
        obs.event("server.deliver", self.node_id, tid, partition=...)

so a disabled recorder costs one attribute read and one branch — the
keyword dictionary is never even built (the zero-allocation property is
pinned by ``tests/obs/test_noop_overhead.py``).

Event kinds (see ``docs/OBSERVABILITY.md`` for the full schema):

===================  =============================================== =
kind                 recorded at
===================  =============================================== =
``client.start``     client launches a transaction attempt
``client.commit``    commit request leaves the client (execution ends)
``client.done``      outcome reaches the application
``server.submit``    commit request arrives at the coordinator (①)
``server.delay``     the delaying technique holds the local broadcast
``abcast.propose``   a value enters a partition's atomic broadcast (②③)
``net.send``         a tid-carrying message leaves a node
``net.recv``         …and arrives at its destination (paired by ``hop``)
``server.deliver``   a projection reaches its delivery position (④)
``server.certify``   certification verdict at the delivering replica
``server.defer``     verdict deferred on conflicting pending entries
``server.reorder``   a local leapt ahead of pending globals (§IV-E)
``vote.emit``        a partition's vote leaves a replica (⑤)
``vote.arrive``      a remote vote arrives at a replica
``vote.effect``      a vote lands in the pending entry and counts
``ledger.propose``   a VoteRecord is proposed into the own log (§14)
``ledger.deliver``   …and reaches its delivery position
``server.complete``  the transaction completes at a replica (⑥)
``server.notify``    the answering server sends the outcome (⑦)
===================  =============================================== =

Not tied to a transaction (``tid`` is ``None``, so ``build_traces`` skips
them; where one is concerned it rides along as ``txn=``): the
reconfiguration milestones ``reconfig.begin_split`` / ``.begin_merge`` /
``.capture_migration`` / ``.install_migration`` / ``.install_merge`` /
``.finish_split`` / ``.finish_merge`` / ``.config_learned`` /
``.config_catchup`` / ``.reject_epoch``; ``server.checkpoint``,
``server.gc``; ``leader.change``, ``paxos.phase1.begin`` / ``.complete``;
``ledger.abort_request``, ``ledger.cycle_break``, ``client.epoch_restart``;
the simulated network's ``net.crash`` / ``.degrade`` / ``.restore`` /
``.drop.unknown`` / ``.drop.cut`` / ``.drop.loss``; ``autoscale.split`` /
``.merge``.

A :class:`SpanRecorder` is bound to one world's clock and accumulates
:class:`ObsEvent` rows; :mod:`repro.obs.spans` folds them into per-
transaction span trees.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """One recorded protocol milestone."""

    time: float
    #: Global sequence number: breaks ties between same-instant events so
    #: causal order survives sorting by time.
    seq: int
    kind: str
    node: str
    tid: Any
    attrs: dict[str, Any] = field(default_factory=dict)


class ObsRecorder:
    """The disabled recorder: every runtime's default.

    ``enabled`` is a class attribute so the hot-path guard
    ``if obs.enabled`` never touches instance state.
    """

    enabled: bool = False

    def event(self, kind: str, node: str, tid: Any = None, **attrs: Any) -> None:
        """Record a milestone; no-op on the base class."""

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source (a world's kernel clock); no-op here."""


#: The shared disabled recorder (safe to share: it holds no state).
NULL_RECORDER = ObsRecorder()


def traced_tid(msg: Any) -> Any:
    """The transaction id a message belongs to, if any.

    Transports call this to decide whether to record a hop: protocol
    messages carry ``tid`` directly; consensus ``ClientPropose`` wrappers
    carry a value that may (projections, vote records) or may not
    (no-ops, reconfigurations) name a transaction.
    """
    tid = getattr(msg, "tid", None)
    if tid is not None:
        return tid
    return getattr(getattr(msg, "value", None), "tid", None)


class SpanRecorder(ObsRecorder):
    """An enabled recorder accumulating events against one clock."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._seq = 0
        self.events: list[ObsEvent] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def event(self, kind: str, node: str, tid: Any = None, **attrs: Any) -> None:
        self._seq += 1
        self.events.append(ObsEvent(self._clock(), self._seq, kind, node, tid, attrs))

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# Process-wide default + active-recorder registry
#
# ``python -m repro.experiments --trace`` flips the default on; every
# SimWorld built afterwards creates (and registers) a SpanRecorder even
# though the experiment module never heard of tracing.  The CLI drains
# the registry after each experiment and exports Chrome traces.
# ----------------------------------------------------------------------
_default_tracing = False
_active_recorders: list[SpanRecorder] = []


def set_default_tracing(on: bool) -> None:
    """Globally default new worlds to tracing (the ``--trace`` flag)."""
    global _default_tracing
    _default_tracing = bool(on)


def default_tracing() -> bool:
    return _default_tracing


def register_recorder(recorder: SpanRecorder) -> None:
    """Track an enabled recorder so the CLI can find and export it."""
    _active_recorders.append(recorder)


def drain_recorders() -> list[SpanRecorder]:
    """Return and forget every recorder registered since the last drain."""
    out = list(_active_recorders)
    _active_recorders.clear()
    return out
