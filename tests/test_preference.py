"""Oracles, compare, axiom checkers, and the continuity witness search."""

from __future__ import annotations

import gc
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

from vnm import (
    Comparison,
    OutcomeSpace,
    PreferenceOracle,
    RankDependentOracle,
    SubprocessOracle,
    UtilityOracle,
    check_classical_independence,
    check_continuity,
    check_independence,
    check_order_axioms,
    compare,
    degenerate,
    jsonio,
    mix,
    new_lottery,
    new_utility,
    preference,
    probe_continuity,
    strict_order,
)
from vnm.errors import (
    AlphaOutOfRange,
    BudgetExhausted,
    IncompleteOracle,
    OracleFailure,
    PreconditionViolated,
    SearchExhausted,
    SpaceMismatch,
)

from conftest import alpha_strategy, rational_lottery_strategy

SPACE3 = OutcomeSpace(("x1", "x2", "x3"))
SPACE2 = OutcomeSpace(("x1", "x2"))
U3 = new_utility(SPACE3, (1, Fraction(1, 2), 0))


def all_strategy_pairs():
    return (
        rational_lottery_strategy(SPACE3),
        rational_lottery_strategy(SPACE3),
    )


class TestCompare:
    def test_three_outcomes(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        assert compare(o, d1, d3) is Comparison.PREFER_FIRST
        assert compare(o, d3, d1) is Comparison.PREFER_SECOND
        assert compare(o, d2, d2) is Comparison.INDIFFERENT

    def test_exactly_two_queries(self):
        o = UtilityOracle(U3)
        compare(o, degenerate(SPACE3, "x1"), degenerate(SPACE3, "x2"))
        assert o.query_count == 2
        compare(o, degenerate(SPACE3, "x2"), degenerate(SPACE3, "x3"))
        assert o.query_count == 4

    def test_incomplete_oracle_detected(self):
        o = PreferenceOracle(SPACE3, pref_fn=lambda p, q: False)
        with pytest.raises(IncompleteOracle):
            compare(o, degenerate(SPACE3, "x1"), degenerate(SPACE3, "x2"))

    @given(p=rational_lottery_strategy(SPACE3), q=rational_lottery_strategy(SPACE3))
    def test_antisymmetry(self, p, q):
        o = UtilityOracle(U3)
        forward = compare(o, p, q)
        backward = compare(o, q, p)
        if forward is Comparison.PREFER_FIRST:
            assert backward is Comparison.PREFER_SECOND
        elif forward is Comparison.PREFER_SECOND:
            assert backward is Comparison.PREFER_FIRST
        else:
            assert backward is Comparison.INDIFFERENT


class TestOracleMechanics:
    def test_budget_exhaustion(self):
        o = UtilityOracle(U3, query_budget=3)
        p, q = degenerate(SPACE3, "x1"), degenerate(SPACE3, "x2")
        o.pref(p, q)
        o.pref(p, q)
        o.pref(p, q)
        with pytest.raises(BudgetExhausted):
            o.pref(p, q)
        assert o.query_count == 3

    def test_space_mismatch_on_query(self):
        o = UtilityOracle(U3)
        other = OutcomeSpace(("y1", "y2"))
        with pytest.raises(SpaceMismatch):
            o.pref(degenerate(other, "y1"), degenerate(other, "y2"))


def equal_lotteries():
    """One lottery three times over: asked twice, built again by new_lottery and by mix."""
    p = new_lottery(SPACE3, ("1/2", "1/4", "1/4"))
    again = new_lottery(SPACE3, ("0.5", "2/8", "0.25"))
    mixed = mix(degenerate(SPACE3, "x1"), new_lottery(SPACE3, ("0", "1/2", "1/2")), "1/2")
    assert again == mixed == p and again is not p and mixed is not p
    return [p, p, again, mixed]


class TestValueCaches:
    """Both value oracles share ``ValueOracle``'s one cache, keyed on ``(nums, den)``."""

    def test_utility_oracle_evaluates_equal_lotteries_once(self, monkeypatch):
        evaluated = []
        real = preference.expected_utility

        def counting(p, u):
            evaluated.append(p)
            return real(p, u)

        monkeypatch.setattr(preference, "expected_utility", counting)
        o = UtilityOracle(U3)
        worst = degenerate(SPACE3, "x3")
        assert all(o.pref(p, worst) for p in equal_lotteries())
        assert o.query_count == 4
        assert evaluated == [equal_lotteries()[0], worst]
        assert set(o._values) == {((2, 1, 1), 4), ((0, 0, 1), 1)}

    def test_rank_dependent_oracle_evaluates_equal_lotteries_once(self):
        weights = []

        def square(t):
            weights.append(t)
            return t * t

        o = RankDependentOracle(U3, weight=square)
        worst = degenerate(SPACE3, "x3")
        assert all(o.pref(p, worst) for p in equal_lotteries())
        assert o.query_count == 4
        # one evaluation each of p and worst, size + 1 weights apiece
        assert len(weights) == 2 * (SPACE3.size + 1)
        assert set(o._values) == {((2, 1, 1), 4), ((0, 0, 1), 1)}
        # the value function itself is not cached
        weights.clear()
        values = {o.rank_dependent_value(p) for p in equal_lotteries()}
        assert len(values) == 1
        assert len(weights) == 4 * (SPACE3.size + 1)

    @pytest.mark.parametrize("make", [UtilityOracle, RankDependentOracle])
    def test_oracle_is_freed_without_the_cyclic_gc(self, make):
        # a reference cycle in every oracle would leave it to the cyclic GC
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            o = make(U3)
            compare(o, degenerate(SPACE3, "x1"), degenerate(SPACE3, "x3"))
            ref = weakref.ref(o)
            del o
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestOrderAxioms:
    def test_utility_oracle_passes(self):
        o = UtilityOracle(U3)
        d = [degenerate(SPACE3, x) for x in SPACE3.labels]
        m = new_lottery(SPACE3, ("1/3", "1/3", "1/3"))
        report = check_order_axioms(o, [(d[0], d[1], d[2]), (m, d[0], m)])
        assert report.passed
        assert report.checked == 2
        assert report.queries_used == 12  # six directed queries per triple

    def test_cyclic_comparator_fails_transitivity(self):
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        beats = {(d1.probs, d2.probs), (d2.probs, d3.probs), (d3.probs, d1.probs)}

        def cyclic(p, q):
            if (p.probs, q.probs) in beats:
                return True
            if (q.probs, p.probs) in beats:
                return False
            return True

        o = PreferenceOracle(SPACE3, pref_fn=cyclic)
        report = check_order_axioms(o, [(d1, d2, d3)])
        assert not report.passed
        assert report.witness["kind"] == "transitivity"

    def test_incompleteness_reported_with_witness(self):
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)

        def shy(p, q):
            # declines both directions on the (x1, x2) pair
            if {p.probs, q.probs} == {d1.probs, d2.probs}:
                return False
            return True

        o = PreferenceOracle(SPACE3, pref_fn=shy)
        report = check_order_axioms(o, [(d1, d2, d3)])
        assert not report.passed
        assert report.witness["kind"] == "completeness"

    @given(
        p=rational_lottery_strategy(SPACE3),
        q=rational_lottery_strategy(SPACE3),
        r=rational_lottery_strategy(SPACE3),
    )
    @settings(deadline=None)
    def test_derived_relations_behave_on_utility_oracles(self, p, q, r):
        # strict preference is irreflexive and transitive, indifference transitive
        o = UtilityOracle(U3)
        assert compare(o, p, p) is Comparison.INDIFFERENT
        if (
            compare(o, p, q) is Comparison.PREFER_FIRST
            and compare(o, q, r) is Comparison.PREFER_FIRST
        ):
            assert compare(o, p, r) is Comparison.PREFER_FIRST
        if (
            compare(o, p, q) is Comparison.INDIFFERENT
            and compare(o, q, r) is Comparison.INDIFFERENT
        ):
            assert compare(o, p, r) is Comparison.INDIFFERENT


class TestIndependence:
    @given(
        p=rational_lottery_strategy(SPACE3),
        q=rational_lottery_strategy(SPACE3),
        r=rational_lottery_strategy(SPACE3),
        a=alpha_strategy(include_zero=False),
    )
    @settings(deadline=None)
    def test_utility_oracle_satisfies_independence(self, p, q, r, a):
        o = UtilityOracle(U3)
        assert check_independence(o, [(p, q, r, a)]).passed
        assert check_classical_independence(o, [(p, q, r, a)]).passed

    def test_alpha_zero_rejected(self):
        o = UtilityOracle(U3)
        p, q, r = (degenerate(SPACE3, x) for x in SPACE3.labels)
        with pytest.raises(AlphaOutOfRange):
            check_independence(o, [(p, q, r, 0)])
        with pytest.raises(AlphaOutOfRange):
            check_classical_independence(o, [(p, q, r, Fraction(3, 2))])

    def test_rank_dependent_oracle_caught(self):
        import random

        from vnm import sampling

        o = RankDependentOracle(U3)
        tuples = sampling.random_mix_tuples(SPACE3, random.Random(0), 10000)
        report = check_independence(o, tuples)
        assert not report.passed
        assert report.checked < 10000

    def test_witness_replays_to_same_verdict(self):
        import random

        from vnm import sampling

        o = RankDependentOracle(U3)
        tuples = sampling.random_mix_tuples(SPACE3, random.Random(0), 10000)
        report = check_independence(o, tuples)
        w = report.witness
        p = jsonio.lottery_from_json(w["p"], space=SPACE3)
        q = jsonio.lottery_from_json(w["q"], space=SPACE3)
        r = jsonio.lottery_from_json(w["r"], space=SPACE3)
        alpha = Fraction(w["alpha"])
        fresh = RankDependentOracle(U3)
        replay = check_independence(fresh, [(p, q, r, alpha)])
        assert not replay.passed
        assert replay.witness["base_comparison"] == w["base_comparison"]
        assert replay.witness["mixed_comparison"] == w["mixed_comparison"]

    def test_rank_dependent_still_orders_totally(self):
        # the adversary breaks independence, not the order axioms
        import random

        from vnm import sampling

        o = RankDependentOracle(U3)
        triples = sampling.random_triples(SPACE3, random.Random(7), 300)
        assert check_order_axioms(o, triples).passed


class TestContinuityProbe:
    def test_two_outcome_example(self):
        o = UtilityOracle(new_utility(SPACE2, (1, 0)))
        p = new_lottery(SPACE2, (1, 0))
        q = new_lottery(SPACE2, (0.6, 0.4))
        r = new_lottery(SPACE2, (0, 1))
        alpha, beta = probe_continuity(o, p, q, r)
        # dyadic grid: first weight past 0.6 going up, first below going down
        assert alpha == Fraction(3, 4)
        assert beta == Fraction(1, 2)

    def test_degenerate_triple_brackets_the_middle(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        alpha, beta = probe_continuity(o, d1, d2, d3)
        assert alpha == Fraction(3, 4)  # weight 1/2 ties with x2, so the search moves on
        assert beta == Fraction(1, 4)
        assert alpha > Fraction(1, 2) > beta

    def test_equal_endpoints_rejected(self):
        o = UtilityOracle(U3)
        d1, d3 = degenerate(SPACE3, "x1"), degenerate(SPACE3, "x3")
        with pytest.raises(PreconditionViolated):
            probe_continuity(o, d1, d1, d3)  # q = p: not strictly between

    def test_constant_utility_rejected(self):
        o = UtilityOracle(new_utility(SPACE3, (2, 2, 2)))
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        with pytest.raises(PreconditionViolated):
            probe_continuity(o, d1, d2, d3)

    def test_lexicographic_preference_exhausts_search(self):
        # classic continuity failure: first coordinate dominates, second breaks ties
        def lexicographic(p, q):
            return (p.probs[0], p.probs[1]) >= (q.probs[0], q.probs[1])

        o = PreferenceOracle(SPACE3, pref_fn=lexicographic)
        p = new_lottery(SPACE3, (1, 0, 0))
        q = new_lottery(SPACE3, (0.6, 0.4, 0))
        r = new_lottery(SPACE3, (0.6, 0, 0.4))
        with pytest.raises(SearchExhausted) as exc:
            probe_continuity(o, p, q, r)
        assert exc.value.max_probes == 64


def lexicographic(p, q):
    # first coordinate dominates, second breaks ties: continuity fails
    return (p.probs[0], p.probs[1]) >= (q.probs[0], q.probs[1])


class TestContinuityCheck:
    def test_strict_order_sorts_or_reports_a_tie(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        assert strict_order(o, d3, d1, d2) == (d1, d2, d3)
        assert strict_order(o, d1, d2, d1) is None

    def test_utility_oracle_passes_and_counts_skips(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        report = check_continuity(o, [(d3, d2, d1), (d1, d1, d3)])
        assert report.passed
        assert (report.checked, report.skipped) == (1, 1)
        assert report.details == {}
        assert report.queries_used == o.query_count

    def test_intransitive_triple_is_skipped_not_failed(self):
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        beats = {(d1.probs, d2.probs), (d2.probs, d3.probs), (d3.probs, d1.probs)}
        o = PreferenceOracle(SPACE3, pref_fn=lambda p, q: (q.probs, p.probs) not in beats)
        report = check_continuity(o, [(d1, d2, d3)])
        assert report.passed  # vacuously: nothing was checked, and skipped says why
        assert (report.checked, report.skipped) == (0, 1)

    def test_lexicographic_witness_stops_the_run(self):
        o = PreferenceOracle(SPACE3, pref_fn=lexicographic)
        p = new_lottery(SPACE3, (1, 0, 0))
        q = new_lottery(SPACE3, (0.6, 0.4, 0))
        r = new_lottery(SPACE3, (0.6, 0, 0.4))
        report = check_continuity(o, [(r, q, p), (p, q, r)], max_probes=8)
        assert not report.passed
        assert report.checked == 1
        assert report.witness["p"] == jsonio.lottery_to_json(p)
        assert "within 8 probes" in report.witness["detail"]


class TestSubprocessOracle:
    def test_line_protocol(self, tmp_path):
        script = tmp_path / "comparator.py"
        script.write_text(
            "import json, sys\n"
            "from fractions import Fraction\n"
            "U = [Fraction(1), Fraction(1, 2), Fraction(0)]\n"
            "def eu(lot):\n"
            "    return sum(Fraction(p) * u for p, u in zip(lot['probs'], U))\n"
            "for line in sys.stdin:\n"
            "    msg = json.loads(line)\n"
            "    print(json.dumps({'pref': eu(msg['p']) >= eu(msg['q'])}), flush=True)\n"
        )
        with SubprocessOracle(SPACE3, f"{sys.executable} {script}") as oracle:
            d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
            assert compare(oracle, d1, d3) is Comparison.PREFER_FIRST
            assert compare(oracle, d2, d2) is Comparison.INDIFFERENT
            assert oracle.query_count == 4
            report = check_order_axioms(oracle, [(d1, d2, d3)])
            assert report.passed

    def test_broken_reply_raises(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('not json', flush=True)\n"
        )
        with SubprocessOracle(SPACE3, f"{sys.executable} {script}") as oracle:
            with pytest.raises(OracleFailure):
                oracle.pref(degenerate(SPACE3, "x1"), degenerate(SPACE3, "x2"))
