"""Folding raw trace events into per-transaction span trees.

A :class:`TxnTrace` holds one transaction's causal history: a ``txn``
root span covering first-to-last event, an ``execute`` child (reads and
program logic, up to the commit request leaving the client), a ``commit``
child (the termination protocol), and under those the per-node protocol
spans — atomic-broadcast propose→deliver per partition, pending-list
residency, vote-ledger sequencing, inter-partition vote relays, and the
individual network hops.  Point milestones (certification verdicts,
reorder/defer/delay decisions, vote effects) stay as raw events on the
trace and become *instant* markers in the Chrome export.

Parent links are assigned by interval containment: each span's parent is
the smallest span that encloses it, which gives the exporter (and the
nesting test) a well-formed tree without any instrumentation site having
to know about tree structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.recorder import ObsEvent

#: Containment slack: sub-nanosecond float noise must not orphan spans.
_EPS = 1e-9


@dataclass
class Span:
    """One named interval at one node within a transaction's trace."""

    name: str
    node: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)
    parent: "Span | None" = None
    children: "list[Span]" = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def encloses(self, other: "Span") -> bool:
        return self.start <= other.start + _EPS and other.end <= self.end + _EPS


@dataclass
class TxnTrace:
    """Every span and raw event of one transaction."""

    tid: Any
    spans: list[Span]
    events: list[ObsEvent]

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def start(self) -> float:
        return self.root.start

    @property
    def end(self) -> float:
        return self.root.end

    @property
    def duration(self) -> float:
        return self.root.duration

    def find(self, kind: str, node: str | None = None, **attr_eq: Any) -> ObsEvent | None:
        """Earliest raw event matching kind/node/attrs."""
        hits = self.find_all(kind, node, **attr_eq)
        return hits[0] if hits else None

    def find_all(self, kind: str, node: str | None = None, **attr_eq: Any) -> list[ObsEvent]:
        out = []
        for event in self.events:
            if event.kind != kind:
                continue
            if node is not None and event.node != node:
                continue
            if any(event.attrs.get(k) != v for k, v in attr_eq.items()):
                continue
            out.append(event)
        return out


def build_traces(events: list[ObsEvent]) -> dict[Any, TxnTrace]:
    """Group events by transaction id and build each trace's span tree."""
    by_tid: dict[Any, list[ObsEvent]] = {}
    for event in events:
        if event.tid is not None:
            by_tid.setdefault(event.tid, []).append(event)
    return {tid: _build_one(tid, evs) for tid, evs in by_tid.items()}


def _build_one(tid: Any, events: list[ObsEvent]) -> TxnTrace:
    events = sorted(events, key=lambda e: (e.time, e.seq))
    t_start = events[0].time
    t_end = events[-1].time
    spans: list[Span] = [Span("txn", events[0].node, t_start, t_end)]

    first: dict[tuple, ObsEvent] = {}
    for event in events:
        first.setdefault((event.kind, event.node), event)

    start_ev = _first(events, "client.start")
    commit_ev = _first(events, "client.commit")
    done_ev = _first(events, "client.done")
    if start_ev is not None and commit_ev is not None:
        spans.append(Span("execute", start_ev.node, start_ev.time, commit_ev.time))
    if commit_ev is not None:
        spans.append(
            Span(
                "commit",
                commit_ev.node,
                commit_ev.time,
                done_ev.time if done_ev is not None else t_end,
            )
        )

    # Atomic broadcast: earliest propose for a partition -> each replica's
    # delivery of the projection; then pending-list residency per replica.
    proposes: dict[str, float] = {}
    for event in events:
        if event.kind == "abcast.propose":
            partition = event.attrs.get("partition")
            if partition is not None and partition not in proposes:
                proposes[partition] = event.time
    for event in events:
        if event.kind == "server.deliver":
            partition = event.attrs.get("partition")
            origin = proposes.get(partition, event.time)
            spans.append(
                Span(f"abcast:{partition}", event.node, origin, event.time)
            )
            complete = _first(events, "server.complete", node=event.node)
            if complete is not None and complete.time >= event.time:
                spans.append(
                    Span(f"pending:{partition}", event.node, event.time, complete.time)
                )

    # Vote-ledger sequencing: earliest propose of (voting partition,
    # owner log) -> each delivery of that record.
    ledger_proposes: dict[tuple, float] = {}
    for event in events:
        if event.kind == "ledger.propose":
            key = (event.attrs.get("partition"), event.attrs.get("owner"))
            ledger_proposes.setdefault(key, event.time)
    for event in events:
        if event.kind == "ledger.deliver":
            key = (event.attrs.get("partition"), event.attrs.get("owner"))
            origin = ledger_proposes.get(key, event.time)
            spans.append(
                Span(
                    f"ledger:{event.attrs.get('partition')}",
                    event.node,
                    origin,
                    event.time,
                    attrs={"owner": event.attrs.get("owner")},
                )
            )

    # Inter-partition vote relays: emit at the voter -> arrival here.
    for event in events:
        if event.kind == "vote.arrive":
            src = event.attrs.get("src")
            partition = event.attrs.get("partition")
            emit = _first(events, "vote.emit", node=src)
            origin = emit.time if emit is not None else event.time
            spans.append(
                Span(
                    f"vote:{partition}",
                    event.node,
                    origin,
                    event.time,
                    attrs={"src": src},
                )
            )

    # Individual network hops, paired send->recv by hop id.
    sends: dict[int, ObsEvent] = {}
    for event in events:
        if event.kind == "net.send":
            hop = event.attrs.get("hop")
            if hop is not None:
                sends[hop] = event
    for event in events:
        if event.kind == "net.recv":
            sent = sends.get(event.attrs.get("hop"))
            if sent is not None:
                spans.append(
                    Span(
                        f"hop:{event.attrs.get('msg')}",
                        event.node,
                        sent.time,
                        event.time,
                        attrs={"src": sent.node, "dst": event.node},
                    )
                )

    _assign_parents(spans)
    return TxnTrace(tid=tid, spans=spans, events=events)


def _first(events: list[ObsEvent], kind: str, node: str | None = None) -> ObsEvent | None:
    for event in events:
        if event.kind == kind and (node is None or event.node == node):
            return event
    return None


def _assign_parents(spans: list[Span]) -> None:
    """Parent each span under the smallest enclosing span (root excepted).

    Spans with *identical* intervals enclose each other; to keep the
    result a tree, such a span may only parent under an identical span
    that appears earlier in the list (list order is build order, which
    puts structural spans — txn/execute/commit — first).
    """
    for i, span in enumerate(spans):
        if i == 0:
            continue
        best: Span | None = None
        best_index = -1
        for j, candidate in enumerate(spans):
            if j == i or not candidate.encloses(span):
                continue
            identical = (
                abs(candidate.start - span.start) <= _EPS
                and abs(candidate.end - span.end) <= _EPS
            )
            if identical and j > i:
                continue
            if (
                best is None
                or candidate.duration < best.duration
                or (candidate.duration == best.duration and j < best_index)
            ):
                best, best_index = candidate, j
        span.parent = best if best is not None else spans[0]
        span.parent.children.append(span)
