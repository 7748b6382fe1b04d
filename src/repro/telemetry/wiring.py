"""Bind `SdurServer` / autoscale state into `MetricRegistry` metrics.

This module is the single place that knows which server attribute
feeds which metric.  Everything is *bound* (lambdas over the live
objects), so building a registry costs nothing on the hot path — the
readers only run at sample/export time.  The two histograms
(`sdur_commit_latency`, `sdur_batch_size`) are the exception: the
server observes into them directly, guarded by
``server.telemetry_enabled`` so the disabled path stays allocation-free
(``tests/telemetry/test_overhead.py``).

``SERVER_WIRE_COUNTERS`` doubles as the schema of the legacy
``server_stats()`` dict: each entry's wire key is the ``ServerStats``
attribute *and* the key the harness has always exported, in the exact
historical order — ``MetricRegistry.wire_counters()`` replays it
bit-identically.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.registry import MetricRegistry

__all__ = ["SERVER_WIRE_COUNTERS", "build_server_registry", "build_autoscale_registry"]

#: (wire key == ServerStats attribute, kind, unit, help) — in the exact
#: order ``server_stats()`` has always exported them.
SERVER_WIRE_COUNTERS: tuple[tuple[str, str, str, str], ...] = (
    ("committed_local", "counter", "transactions", "Local transactions committed."),
    ("committed_global", "counter", "transactions", "Global transactions committed."),
    ("aborted", "counter", "transactions", "Transactions aborted (all causes)."),
    ("reordered", "counter", "transactions", "Locals reordered past pending globals."),
    ("noops_sent", "counter", "messages", "Gossip no-ops broadcast to advance DC."),
    ("reads_served", "counter", "requests", "Snapshot reads answered locally."),
    ("votes_ordered", "counter", "records", "VoteRecords delivered through the partition log."),
    ("cycles_resolved", "counter", "cycles", "Deferral cycles broken by the lowest-TxnId rule."),
    ("vote_ledger_aborts", "counter", "transactions", "Aborts caused by a cycle-rule doom."),
    ("ctest_calls", "counter", "tests", "Pairwise certification conflict tests evaluated."),
    ("index_hits", "counter", "queries", "Certification queries answered by the key index."),
    ("index_fallbacks", "counter", "queries", "Index queries that fell back to record probes."),
    ("admitted", "counter", "requests", "Commit requests admitted by admission control."),
    ("shed_total", "counter", "requests", "Ingress refused with a Busy reply."),
    ("queue_depth", "gauge", "deliveries", "Current delivery backlog (buffered + stalled + pending)."),
    ("queue_depth_max", "gauge", "deliveries", "High-water mark of the delivery backlog."),
    ("stall_depth_max", "gauge", "deliveries", "High-water mark of the stall queue alone."),
    ("hotkey_updates", "counter", "keys", "Write-key observations fed to the hot-key tracker."),
    ("batches_delivered", "counter", "batches", "Delivery batches processed (§18)."),
    ("batch_size_max", "gauge", "deliveries", "Largest delivery batch processed."),
    ("batch_certify_ns", "counter", "nanoseconds", "Wall time inside the one-pass batch loop."),
    ("gossip_resyncs", "counter", "requests", "Gossip resync requests sent after a missed delta (§6)."),
)

#: Granular abort buckets (components of the `aborted` wire counter).
_ABORT_BUCKETS: tuple[tuple[str, str], ...] = (
    ("aborted_certification", "Certification conflicts."),
    ("aborted_stale_snapshot", "Snapshot older than the certification window."),
    ("aborted_reorder", "Reorder-threshold overflows."),
    ("aborted_votes", "Remote ABORT votes."),
    ("aborted_recovery", "Recovery-path abort requests."),
    ("aborted_deferred", "Deferral-cycle dooms."),
    ("aborted_epoch", "Stale-epoch rejections."),
)


def build_server_registry(server: Any) -> MetricRegistry:
    """Declare every server metric, bound to the live server state.

    ``server`` is any object with the `SdurServer` attribute surface
    (``stats``, ``sc``, ``dc``, ``pending``, ``_stalled``, ``ledger``,
    ``admission``) — duck-typed so stub runtimes in tests can build one
    too.
    """
    registry = MetricRegistry(getattr(server, "node_id", "?"))
    stats = server.stats
    for wire, kind, unit, help_ in SERVER_WIRE_COUNTERS:
        declare = registry.counter if kind == "counter" else registry.gauge
        declare(
            f"sdur_{wire}",
            unit=unit,
            help=help_,
            fn=(lambda s=stats, a=wire: getattr(s, a)),
            wire=wire,
        )
    for attr, help_ in _ABORT_BUCKETS:
        registry.counter(
            f"sdur_{attr}",
            unit="transactions",
            help=help_,
            fn=(lambda s=stats, a=attr: getattr(s, a)),
        )
    registry.counter(
        "sdur_deferred",
        unit="transactions",
        help="Globals deferred behind an undecided conflicting global.",
        fn=lambda s=stats: s.deferred,
    )
    registry.counter(
        "sdur_reads_routed",
        unit="requests",
        help="Snapshot reads routed onward to another partition.",
        fn=lambda s=stats: s.reads_routed,
    )
    registry.counter(
        "sdur_checkpoints",
        unit="checkpoints",
        help="Store checkpoints taken.",
        fn=lambda s=stats: s.checkpoints,
    )
    registry.counter(
        "sdur_certified",
        unit="transactions",
        help="Certification verdicts reached (committed + aborted).",
        fn=lambda s=stats: s.committed + s.aborted,
    )
    registry.gauge(
        "sdur_sc",
        unit="versions",
        help="Applied store version (SC) — the apply-lag probe's input.",
        fn=lambda srv=server: srv.sc,
    )
    registry.gauge(
        "sdur_dc",
        unit="deliveries",
        help="Delivery counter (DC).",
        fn=lambda srv=server: srv.dc,
    )
    registry.gauge(
        "sdur_pending_depth",
        unit="transactions",
        help="Undecided globals on the pending list.",
        fn=lambda srv=server: len(srv.pending),
    )
    registry.gauge(
        "sdur_stall_depth",
        unit="deliveries",
        help="Deliveries stalled behind a gate right now.",
        fn=lambda srv=server: len(srv._stalled),
    )
    registry.gauge(
        "sdur_ledger_outbox",
        unit="records",
        help="VoteRecords proposed but not yet self-delivered (ledger stall depth).",
        fn=lambda srv=server: srv.ledger.in_flight,
    )
    registry.gauge(
        "sdur_admission_inflight",
        unit="transactions",
        help="Admitted transactions not yet completed (0 with admission off).",
        fn=lambda srv=server: srv.admission.inflight,
    )
    return registry


def build_autoscale_registry(controller: Any) -> MetricRegistry:
    """Metrics for the autoscale control loop, bound to its counters."""
    registry = MetricRegistry("autoscale")
    registry.counter(
        "autoscale_splits_triggered",
        unit="actions",
        help="Partition splits actuated by the controller.",
        fn=lambda c=controller: c.splits_triggered,
    )
    registry.counter(
        "autoscale_merges_triggered",
        unit="actions",
        help="Partition merges actuated by the controller.",
        fn=lambda c=controller: c.merges_triggered,
    )
    registry.counter(
        "autoscale_decisions_suppressed_cooldown",
        unit="decisions",
        help="Policy decisions suppressed by the cooldown window.",
        fn=lambda c=controller: c.decisions_suppressed_cooldown,
    )
    return registry
