"""Latency attribution reproduces the latency model's hop arithmetic
term-by-term: the shipped system's 8δ+2Δ, and Figure 1's own 4δ+2Δ on
the arrival-time oracle."""

import pytest

from repro.obs.attribution import attribute, hops_str, match_hops, summarize
from tests.obs.conftest import DELTA, INTER, traced_commit


class TestMatchHops:
    def test_exact_pure_delta(self):
        assert match_hops(4 * DELTA, DELTA, INTER) == (4, 0)

    def test_exact_mixed(self):
        assert match_hops(4 * DELTA + 2 * INTER, DELTA, INTER) == (4, 2)

    def test_within_tolerance(self):
        assert match_hops(2 * DELTA + 0.001, DELTA, INTER) == (2, 0)

    def test_unmatchable_returns_none(self):
        # 2.5 ms sits between 0 and δ=5 ms, outside the 1.5 ms tolerance.
        assert match_hops(0.0025, DELTA, INTER) is None

    def test_zero(self):
        assert match_hops(0.0, DELTA, INTER) == (0, 0)

    def test_hops_str(self):
        assert hops_str(4, 2) == "4δ+2Δ"
        assert hops_str(1, 0) == "δ"
        assert hops_str(0, 1) == "Δ"
        assert hops_str(0, 0) == "0"


class TestFigure1Attribution:
    """The acceptance cases: exact decompositions on WAN 1."""

    def test_wan1_local_is_exactly_4_delta(self):
        result, trace, _ = traced_commit(is_global=False)
        assert result.committed
        a = attribute(trace, DELTA, INTER)
        assert a is not None and a.matched
        assert a.formula() == "4δ"
        assert a.measured == pytest.approx(4 * DELTA, abs=1e-3)
        assert [t.name for t in a.terms] == ["request", "order", "notify"]

    def test_wan1_global_oracle_is_exactly_4_delta_2_inter(self):
        result, trace, _ = traced_commit(is_global=True, optimistic_oracle=True)
        assert result.committed
        a = attribute(trace, DELTA, INTER)
        assert a is not None and a.matched
        assert a.formula() == "4δ+2Δ"
        assert a.measured == pytest.approx(4 * DELTA + 2 * INTER, abs=1e-3)
        assert [t.name for t in a.terms] == ["request", "order", "vote", "notify"]
        assert summarize([a]).breakdown() == "request δ + order 2δ+Δ + vote Δ + notify δ"

    def test_wan1_global_adds_ledger_and_resequence_terms(self):
        result, trace, _ = traced_commit(is_global=True)
        assert result.committed
        a = attribute(trace, DELTA, INTER)
        assert a is not None and a.matched
        assert a.formula() == "8δ+2Δ"  # +4δ vote tax over Figure 1's 4δ+2Δ
        assert summarize([a]).breakdown() == (
            "request δ + order 2δ+Δ + ledger 2δ + vote Δ + resequence 2δ + notify δ"
        )

    @pytest.mark.parametrize(
        "is_global,optimistic_oracle",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    def test_terms_sum_to_measured_within_one_percent(self, is_global, optimistic_oracle):
        _, trace, _ = traced_commit(
            is_global=is_global, optimistic_oracle=optimistic_oracle
        )
        a = attribute(trace, DELTA, INTER)
        assert a is not None
        # Telescoping makes this exact, not just within the 1 % slack.
        assert abs(a.residual) <= max(0.01 * a.measured, 1e-9)
        assert abs(a.residual) < 1e-9

    def test_read_only_transactions_are_not_attributed(self):
        result, trace, _ = traced_commit(is_global=False, read_only=True)
        assert result.committed
        assert attribute(trace, DELTA, INTER) is None

    def test_execute_phase_is_separated(self):
        _, trace, _ = traced_commit(is_global=False)
        a = attribute(trace, DELTA, INTER)
        # Two parallel snapshot reads: one δ round trip = 2δ.
        assert a.execute_seconds == pytest.approx(2 * DELTA, abs=1e-3)


class TestSummarize:
    def test_modal_formula_and_term_means(self):
        attributions = []
        for _ in range(2):
            _, trace, _ = traced_commit(is_global=True)
            attributions.append(attribute(trace, DELTA, INTER))
        summary = summarize(attributions)
        assert summary is not None
        assert summary.count == 2
        assert summary.agreement == 1.0
        assert summary.formula == "8δ+2Δ"
        assert summary.max_residual < 1e-9
        assert summary.breakdown() == (
            "request δ + order 2δ+Δ + ledger 2δ + vote Δ + resequence 2δ + notify δ"
        )
        total = sum(mean for _, mean, _ in summary.term_means)
        assert total == pytest.approx(summary.mean_measured, abs=1e-9)

    def test_empty_population(self):
        assert summarize([]) is None
        assert summarize([None]) is None
