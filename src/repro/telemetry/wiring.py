"""The server counter table, and what binds it into a `MetricRegistry`.

:data:`SERVER_COUNTERS` is the one place a server counter is declared.
``ServerStats`` takes its attributes from it and
:func:`build_server_registry` its metrics, in row order; the wire rows,
in that order, are the schema of the legacy ``server_stats()`` dict,
which ``MetricRegistry.wire_counters()`` replays bit-identically.

Everything is *bound* (lambdas over the live objects), so building a
registry costs nothing on the hot path — the server keeps its plain
``stats.x += 1`` and the readers only run at sample/export time.  The
histogram `sdur_commit_latency` is the exception: the server observes
into it directly, guarded by
``server.telemetry_enabled`` so the disabled path stays allocation-free
(``tests/telemetry/test_overhead.py``).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.telemetry.registry import MetricRegistry

__all__ = [
    "SERVER_COUNTERS", "SERVER_WIRE_COUNTERS", "ServerStats",
    "build_server_registry", "build_autoscale_registry",
]


class CounterRow(NamedTuple):
    """One server counter: metric ``sdur_<attr>`` over ``ServerStats.<attr>``.
    A ``wire`` row is exported by ``server_stats()`` under ``attr``; the
    ``abort_bucket`` rows are the abort causes ``aborted`` sums."""

    attr: str
    kind: str  # "counter" | "gauge"
    unit: str
    help: str
    wire: bool = True
    abort_bucket: bool = False


def _bucket(attr: str, help: str) -> CounterRow:
    return CounterRow(attr, "counter", "transactions", help, wire=False, abort_bucket=True)


#: Registry declaration order.  The wire rows come first, in the exact
#: order ``server_stats()`` has always exported them.
SERVER_COUNTERS: tuple[CounterRow, ...] = (
    CounterRow("committed_local", "counter", "transactions", "Local transactions committed."),
    CounterRow("committed_global", "counter", "transactions", "Global transactions committed."),
    CounterRow("aborted", "counter", "transactions", "Transactions aborted (all causes)."),
    CounterRow("reordered", "counter", "transactions", "Locals reordered past pending globals."),
    CounterRow("noops_sent", "counter", "messages", "Gossip no-ops broadcast to advance DC."),
    CounterRow("reads_served", "counter", "keys", "Keys read by snapshot reads answered locally."),
    CounterRow("votes_ordered", "counter", "records", "VoteRecords delivered through the partition log."),
    CounterRow("cycles_resolved", "counter", "cycles", "Deferral cycles broken by the lowest-TxnId rule."),
    CounterRow("vote_ledger_aborts", "counter", "transactions", "Aborts caused by a cycle-rule doom."),
    CounterRow("ctest_calls", "counter", "tests", "Pairwise certification conflict tests evaluated."),
    CounterRow("index_hits", "counter", "queries", "Certification queries answered by the key index."),
    CounterRow("index_fallbacks", "counter", "queries", "Index queries that fell back to record probes."),
    CounterRow("admitted", "counter", "requests", "Commit requests admitted by admission control."),
    CounterRow("shed_total", "counter", "requests", "Ingress refused with a Busy reply."),
    CounterRow("queue_depth", "gauge", "deliveries", "Current delivery backlog (stalled + pending)."),
    CounterRow("queue_depth_max", "gauge", "deliveries", "High-water mark of the delivery backlog."),
    CounterRow("stall_depth_max", "gauge", "deliveries", "High-water mark of the stall queue alone."),
    CounterRow("hotkey_updates", "counter", "keys", "Write-key observations fed to the hot-key tracker."),
    CounterRow("completed_at_delivery", "counter", "transactions", "Locals committed at delivery, never entering the pending list (§18.2)."),
    CounterRow("gossip_resyncs", "counter", "requests", "Gossip resync requests sent after a missed delta (§6)."),
    _bucket("aborted_certification", "Certification conflicts."),
    _bucket("aborted_stale_snapshot", "Snapshot older than the certification window."),
    _bucket("aborted_reorder", "Reorder-threshold overflows."),
    _bucket("aborted_votes", "Remote ABORT votes."),
    _bucket("aborted_recovery", "Recovery-path abort requests."),
    _bucket("aborted_deferred", "Deferral-cycle dooms."),
    _bucket("aborted_epoch", "Stale-epoch rejections."),
    CounterRow("deferred", "counter", "transactions", "Globals deferred behind an undecided conflicting global.", wire=False),
    CounterRow("reads_routed", "counter", "requests", "Snapshot reads routed onward to another partition.", wire=False),
    CounterRow("checkpoints", "counter", "checkpoints", "Store checkpoints taken.", wire=False),
)

#: The legacy ``server_stats()`` schema: ``(wire key, kind, unit, help)``.
SERVER_WIRE_COUNTERS: tuple[tuple[str, str, str, str], ...] = tuple(
    row[:4] for row in SERVER_COUNTERS if row.wire
)

_ABORT_CAUSES = tuple(row.attr for row in SERVER_COUNTERS if row.abort_bucket)


class ServerStats:
    """The counters a server accumulates: one plain zero-initialised
    attribute per :data:`SERVER_COUNTERS` row (``aborted``, the one row
    that is not stored, sums the abort-bucket rows)."""

    __slots__ = tuple(row.attr for row in SERVER_COUNTERS if row.attr != "aborted")

    def __init__(self) -> None:
        for attr in self.__slots__:
            setattr(self, attr, 0)

    @property
    def committed(self) -> int:
        return self.committed_local + self.committed_global

    @property
    def aborted(self) -> int:
        return sum(getattr(self, attr) for attr in _ABORT_CAUSES)


def build_server_registry(server: Any) -> MetricRegistry:
    """Declare every server metric, bound to the live server state.

    ``server`` is any object with the `SdurServer` attribute surface
    (``stats``, ``sc``, ``dc``, ``pending``, ``_stalled``, ``ledger``,
    ``admission``) — duck-typed so stub runtimes in tests can build one
    too.
    """
    registry = MetricRegistry(getattr(server, "node_id", "?"))
    stats = server.stats
    for row in SERVER_COUNTERS:
        declare = registry.counter if row.kind == "counter" else registry.gauge
        declare(
            f"sdur_{row.attr}",
            unit=row.unit,
            help=row.help,
            fn=(lambda s=stats, a=row.attr: getattr(s, a)),
            wire=row.attr if row.wire else None,
        )
    registry.counter(
        "sdur_certified",
        unit="transactions",
        help="Certification verdicts reached (committed + aborted).",
        fn=lambda s=stats: s.committed + s.aborted,
    )
    for name, unit, help_, read in (
        ("sc", "versions", "Applied store version (SC) — the apply-lag probe's input.",
         lambda: server.sc),
        ("dc", "deliveries", "Delivery counter (DC).", lambda: server.dc),
        ("pending_depth", "transactions", "Undecided globals on the pending list.",
         lambda: len(server.pending)),
        ("stall_depth", "deliveries", "Deliveries stalled behind a gate right now.",
         lambda: len(server._stalled)),
        ("ledger_outbox", "records",
         "VoteRecords proposed but not yet self-delivered (ledger stall depth).",
         lambda: server.ledger.in_flight),
        ("admission_inflight", "transactions",
         "Admitted transactions not yet completed (0 with admission off).",
         lambda: server.admission.inflight),
    ):
        registry.gauge(f"sdur_{name}", unit=unit, help=help_, fn=read)
    return registry


def build_autoscale_registry(controller: Any) -> MetricRegistry:
    """Metrics for the autoscale control loop, bound to its counters."""
    registry = MetricRegistry("autoscale")
    for attr, unit, help_ in (
        ("splits_triggered", "actions", "Partition splits actuated by the controller."),
        ("merges_triggered", "actions", "Partition merges actuated by the controller."),
        ("decisions_suppressed_cooldown", "decisions",
         "Policy decisions suppressed by the cooldown window."),
    ):
        registry.counter(
            f"autoscale_{attr}", unit=unit, help=help_, fn=lambda a=attr: getattr(controller, a)
        )
    return registry
