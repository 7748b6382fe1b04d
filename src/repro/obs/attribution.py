"""Latency attribution: mapping trace spans to the analytic model's terms.

The paper's Figure 1 prices an unloaded commit as a sum of one-way hops —
δ within a region, Δ across regions — and PR 2's ledger termination adds
local broadcasts to that arithmetic (docs/PROTOCOL.md §14.4).  This
module decomposes one traced commit into a *telescoping chain* of named
segments whose endpoints are recorded protocol milestones:

local transaction       global transaction
-------------------     ------------------------------------------
request   ① client→coordinator            (same for globals)
order     ③④ abcast submit→delivery      order ②③④ at the *blocking*
certify   verdict + apply                  voting replica
notify    ⑦ completion→client             certify   verdict at the voter
                                           ledger    own-verdict broadcast
                                                     (§14)
                                           vote      ⑤ voter→decider
                                           resequence incoming-vote
                                                     broadcast (§14)
                                           complete  final vote→apply
                                           notify    ⑦

Because consecutive segments share endpoints, Σ(terms) equals the
measured commit latency *exactly* — the attribution cannot silently drop
time.  Each segment is then matched to the nearest ``a·δ + b·Δ`` with
small non-negative integers; an unmatched segment keeps its measured
value and flags the attribution as not fully matched, which is precisely
how a deviation (like EXPERIMENTS.md's D2) shows up term-by-term.

The blocking voting partition is identified causally, not by guessing:
the *last* ``vote.effect`` at the deciding node names the partition whose
vote completed the quorum, and the chain walks back through that vote's
arrival, emission, and the voting replica's own delivery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.obs.spans import TxnTrace

#: Segments shorter than this are protocol-internal zero-length steps
#: (same-instant handoffs) and are dropped from the term list.
_ZERO = 1e-7


def hops_str(delta_hops: int, inter_hops: int) -> str:
    """Render ``a·δ + b·Δ`` the way the paper writes it (``2δ+Δ``)."""
    parts = []
    if delta_hops:
        parts.append("δ" if delta_hops == 1 else f"{delta_hops}δ")
    if inter_hops:
        parts.append("Δ" if inter_hops == 1 else f"{inter_hops}Δ")
    return "+".join(parts) if parts else "0"


@dataclass(frozen=True)
class Term:
    """One named segment of a commit's critical path."""

    name: str
    seconds: float
    #: Matched hop counts (``None`` when no small a·δ+b·Δ fits).
    delta_hops: int | None = None
    inter_hops: int | None = None

    @property
    def matched(self) -> bool:
        return self.delta_hops is not None

    @property
    def hops(self) -> str:
        if not self.matched:
            return f"~{self.seconds * 1000:.1f}ms"
        return hops_str(self.delta_hops, self.inter_hops)


@dataclass
class Attribution:
    """One transaction's commit latency, decomposed."""

    tid: Any
    #: Commit-phase latency (client.commit → client.done), seconds.
    measured: float
    terms: list[Term]
    #: Execution-phase duration (client.start → client.commit), seconds.
    execute_seconds: float = 0.0

    @property
    def attributed_total(self) -> float:
        return sum(term.seconds for term in self.terms)

    @property
    def residual(self) -> float:
        """Measured minus attributed — zero by construction when the
        milestone chain was extracted (the terms telescope)."""
        return self.measured - self.attributed_total

    @property
    def matched(self) -> bool:
        return bool(self.terms) and all(term.matched for term in self.terms)

    def formula(self) -> str:
        """Total hops, e.g. ``"4δ+2Δ"`` — or the unmatched markers."""
        if not self.matched:
            return " + ".join(f"{t.name}({t.hops})" for t in self.terms) or "unattributed"
        return hops_str(
            sum(t.delta_hops for t in self.terms),
            sum(t.inter_hops for t in self.terms),
        )


#: How far a term may sit from ``aδ + bΔ`` and still match it, seconds.
MATCH_TOLERANCE = 0.0015
#: The largest ``a`` or ``b`` a term is matched against.
MAX_HOPS = 8


def match_hops(seconds: float, delta: float, inter_delta: float) -> tuple[int, int] | None:
    """The closest ``(a, b)`` with ``|seconds − aδ − bΔ| ≤ MATCH_TOLERANCE``.

    Ties prefer fewer total hops.  ``MAX_HOPS`` bounds each coefficient;
    with the defaults (δ=5 ms, Δ=60 ms) all reachable combinations are
    at least 5 ms apart, so matching is unambiguous.
    """
    best: tuple[int, int] | None = None
    best_err = MATCH_TOLERANCE
    for a in range(MAX_HOPS + 1):
        for b in range(MAX_HOPS + 1):
            err = abs(seconds - a * delta - b * inter_delta)
            if err < best_err or (
                best is not None
                and err == best_err
                and a + b < best[0] + best[1]
            ):
                best, best_err = (a, b), err
    return best


def attribute(trace: TxnTrace, delta: float, inter_delta: float) -> Attribution | None:
    """Decompose one committed update transaction's trace.

    Returns ``None`` for read-only transactions (no commit phase was
    traced).  When the milestone chain cannot be extracted — crashed
    nodes, lost messages — the whole commit phase becomes one
    ``unattributed`` term rather than a wrong decomposition.
    """
    commit = trace.find("client.commit")
    done = trace.find("client.done")
    if commit is None or done is None:
        return None
    t0, t_done = commit.time, done.time
    measured = t_done - t0
    start = trace.find("client.start")
    execute_seconds = (t0 - start.time) if start is not None else 0.0

    def term(name: str, seconds: float, always: bool = False) -> Term | None:
        if not always and abs(seconds) <= _ZERO:
            return None
        hops = match_hops(seconds, delta, inter_delta)
        if hops is None:
            return Term(name, seconds)
        return Term(name, seconds, hops[0], hops[1])

    def fallback() -> Attribution:
        return Attribution(
            tid=trace.tid,
            measured=measured,
            terms=[Term("unattributed", measured)],
            execute_seconds=execute_seconds,
        )

    submit = trace.find("server.submit")
    notify = trace.find("server.notify")
    if submit is None or notify is None:
        return fallback()
    decider = notify.node
    complete_d = trace.find("server.complete", node=decider)
    if complete_d is None:
        return fallback()

    partitions = {
        event.attrs.get("partition")
        for event in trace.find_all("server.deliver")
    }
    is_global = len(partitions) > 1

    chain: list[Term | None] = [term("request", submit.time - t0, always=True)]
    if not is_global:
        deliver_d = trace.find("server.deliver", node=decider)
        if deliver_d is None:
            return fallback()
        chain.append(term("order", deliver_d.time - submit.time, always=True))
        chain.append(term("certify", complete_d.time - deliver_d.time))
    else:
        effects = [
            e
            for e in trace.find_all("vote.effect", node=decider)
            if e.time <= complete_d.time + _ZERO
        ]
        if not effects:
            return fallback()
        effect = max(effects, key=lambda e: (e.time, e.seq))
        blocking = effect.attrs.get("partition")
        deliver_d = trace.find("server.deliver", node=decider)
        own_partition = deliver_d.attrs.get("partition") if deliver_d else None

        if blocking == own_partition:
            # Our own ledgered verdict arrived last: the critical path is
            # delivery → own-verdict broadcast through our own log.
            if deliver_d is None:
                return fallback()
            propose = trace.find(
                "ledger.propose", node=decider, partition=blocking
            )
            chain.append(term("order", deliver_d.time - submit.time, always=True))
            if propose is not None:
                chain.append(term("certify", propose.time - deliver_d.time))
                chain.append(term("ledger", effect.time - propose.time, always=True))
            else:
                chain.append(term("certify", effect.time - deliver_d.time))
        else:
            arrive = trace.find(
                "vote.arrive", node=decider, partition=blocking
            )
            if arrive is None:
                return fallback()
            voter = arrive.attrs.get("src")
            deliver_v = trace.find("server.deliver", node=voter)
            emit_v = trace.find("vote.emit", node=voter)
            if voter is None or deliver_v is None or emit_v is None:
                return fallback()
            chain.append(term("order", deliver_v.time - submit.time, always=True))
            propose_v = trace.find(
                "ledger.propose", node=voter, partition=blocking, owner=blocking
            )
            if propose_v is not None:
                chain.append(term("certify", propose_v.time - deliver_v.time))
                chain.append(term("ledger", emit_v.time - propose_v.time, always=True))
            else:
                chain.append(term("certify", emit_v.time - deliver_v.time))
            chain.append(term("vote", arrive.time - emit_v.time, always=True))
            chain.append(term("resequence", effect.time - arrive.time))
        chain.append(term("complete", complete_d.time - effect.time))
    chain.append(term("notify", t_done - complete_d.time, always=True))

    return Attribution(
        tid=trace.tid,
        measured=measured,
        terms=[t for t in chain if t is not None],
        execute_seconds=execute_seconds,
    )


@dataclass
class AttributionSummary:
    """Aggregate of many attributions of the same transaction class."""

    count: int
    mean_measured: float
    #: The modal formula across the population (e.g. ``"4δ+2Δ"``).
    formula: str
    #: Per-term (name, mean seconds, hops string) of the modal formula.
    term_means: list[tuple[str, float, str]]
    #: Fraction of attributions sharing the modal formula.
    agreement: float
    #: Largest |measured − Σ terms| seen (slack check).
    max_residual: float

    def breakdown(self) -> str:
        return " + ".join(f"{name} {hops}" for name, _, hops in self.term_means)


def summarize(attributions: list[Attribution]) -> AttributionSummary | None:
    """Collapse attributions into the modal formula + mean per-term times."""
    attributions = [a for a in attributions if a is not None]
    if not attributions:
        return None
    formulas = Counter(a.formula() for a in attributions)
    modal, modal_count = formulas.most_common(1)[0]
    modal_attrs = [a for a in attributions if a.formula() == modal]
    keys = [(t.name, t.hops) for t in modal_attrs[0].terms]
    # The same total can arise from different segment shapes; average
    # only over attributions with the modal shape.
    modal_attrs = [
        a for a in modal_attrs if [(t.name, t.hops) for t in a.terms] == keys
    ]
    term_means = []
    for index, (name, hops) in enumerate(keys):
        mean = sum(a.terms[index].seconds for a in modal_attrs) / len(modal_attrs)
        term_means.append((name, mean, hops))
    return AttributionSummary(
        count=len(attributions),
        mean_measured=sum(a.measured for a in attributions) / len(attributions),
        formula=modal,
        term_means=term_means,
        agreement=modal_count / len(attributions),
        max_residual=max(abs(a.residual) for a in attributions),
    )
