"""Bisection elicitation: extremes, indifference points, representation checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from vnm import (
    ElicitationResult,
    OutcomeSpace,
    UtilityFunction,
    UtilityOracle,
    analytic_indifference_alpha,
    bisect_indifference,
    degenerate,
    elicit_utility,
    find_extreme_degenerates,
    new_lottery,
    new_utility,
    sampling,
    verify_representation,
)
from vnm.errors import NoConvergence, PreconditionViolated, VNMError

SPACE3 = OutcomeSpace(("x1", "x2", "x3"))
CITY = OutcomeSpace(("Paris", "Rome", "village"))
TOL = 1e-9


class TestExtremes:
    def test_basic_scan(self):
        o = UtilityOracle(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
        assert find_extreme_degenerates(o) == ("x1", "x3", False)

    def test_ties_keep_lower_index(self):
        o = UtilityOracle(new_utility(SPACE3, (1, 1, 0)))
        best, worst, _ = find_extreme_degenerates(o)
        assert best == "x1"
        o2 = UtilityOracle(new_utility(SPACE3, (1, 0, 0)))
        _, worst2, _ = find_extreme_degenerates(o2)
        assert worst2 == "x2"

    def test_all_indifferent(self):
        o = UtilityOracle(new_utility(SPACE3, (2, 2, 2)))
        assert find_extreme_degenerates(o) == ("x1", "x1", True)

    def test_scan_cost_is_linear(self):
        o = UtilityOracle(new_utility(SPACE3, (0, 1, Fraction(1, 2))))
        find_extreme_degenerates(o)
        # two comparisons per remaining outcome plus the final best/worst check
        assert o.query_count == 2 * (2 * (SPACE3.size - 1) + 1)


class TestBisection:
    def test_non_dyadic_target(self):
        o = UtilityOracle(new_utility(CITY, (1, "0.7", 0)))
        top, target, bottom = (degenerate(CITY, x) for x in CITY.labels)
        w = bisect_indifference(o, top, target, bottom)
        assert abs(w - Fraction(7, 10)) <= TOL

    def test_exact_hit_returns_early(self):
        o = UtilityOracle(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
        top, target, bottom = (degenerate(SPACE3, x) for x in SPACE3.labels)
        assert bisect_indifference(o, top, target, bottom) == Fraction(1, 2)

    def test_endpoint_targets(self):
        o = UtilityOracle(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
        top, _, bottom = (degenerate(SPACE3, x) for x in SPACE3.labels)
        assert bisect_indifference(o, top, top, bottom) == 1
        assert bisect_indifference(o, top, bottom, bottom) == 0

    def test_agrees_with_closed_form(self):
        rng = random.Random(5)
        u = new_utility(SPACE3, (Fraction(9, 7), Fraction(-2, 3), Fraction(-8, 5)))
        o = UtilityOracle(u)
        from vnm import expected_utility

        done = 0
        while done < 20:
            lots = sorted(
                (sampling.random_lottery(SPACE3, rng) for _ in range(3)),
                key=lambda lot: expected_utility(lot, u),
                reverse=True,
            )
            top, target, bottom = lots
            if expected_utility(top, u) == expected_utility(bottom, u):
                continue
            w = bisect_indifference(o, top, target, bottom)
            assert abs(w - analytic_indifference_alpha(u, top, target, bottom)) <= TOL
            done += 1

    def test_precondition_violations(self):
        o = UtilityOracle(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        with pytest.raises(PreconditionViolated):
            bisect_indifference(o, d3, d2, d1)  # upside down
        with pytest.raises(PreconditionViolated):
            bisect_indifference(o, d1, d2, d1)  # no strict span

    def test_no_convergence_when_budget_too_small(self):
        o = UtilityOracle(new_utility(CITY, (1, "0.7", 0)))
        top, target, bottom = (degenerate(CITY, x) for x in CITY.labels)
        with pytest.raises(NoConvergence) as exc:
            bisect_indifference(o, top, target, bottom, tol=0, max_iter=5)
        assert exc.value.iterations == 5


class TestElicit:
    def test_city_oracle_recovers_normalized_utility(self):
        o = UtilityOracle(new_utility(CITY, (3, "2.1", 0)))
        result = elicit_utility(o)
        assert result.best == "Paris"
        assert result.worst == "village"
        assert result.utility.values[0] == 1
        assert result.utility.values[2] == 0
        assert abs(result.utility.values[1] - Fraction(7, 10)) <= TOL
        assert not result.all_indifferent

    def test_all_indifferent_returns_zero_utility(self):
        o = UtilityOracle(new_utility(SPACE3, (5, 5, 5)))
        result = elicit_utility(o)
        assert result.all_indifferent
        assert result.utility.values == (0, 0, 0)
        assert result.queries == 2 * (SPACE3.size - 1) + 1

    def test_query_counter_matches_oracle(self):
        o = UtilityOracle(new_utility(CITY, (3, "2.1", 0)))
        result = elicit_utility(o)
        assert result.queries == o.query_count // 2
        assert result.queries == sum(result.per_outcome_queries.values()) + (
            2 * (CITY.size - 1) + 1
        )
        assert result.per_outcome_iterations["Rome"] > 0

    def test_query_bound(self):
        rng = random.Random(9)
        for size in range(2, 9):
            space = OutcomeSpace(tuple(f"x{i}" for i in range(size)))
            u = sampling.random_utility(space, rng, nonconstant=size > 1)
            o = UtilityOracle(u)
            result = elicit_utility(o, tol=TOL)
            assert result.queries <= size * 30 + 4 * size

    def test_idempotent_within_two_tolerances(self):
        o = UtilityOracle(new_utility(CITY, (3, "2.1", 0)))
        first = elicit_utility(o, tol=TOL)
        again = elicit_utility(UtilityOracle(first.utility), tol=TOL)
        for a, b in zip(first.utility.values, again.utility.values):
            assert abs(a - b) <= 2 * TOL

    def test_result_invariant_enforced(self):
        with pytest.raises(VNMError):
            ElicitationResult(
                utility=UtilityFunction(SPACE3, (Fraction(2), Fraction(0), Fraction(0))),
                best="x1",
                worst="x3",
                all_indifferent=False,
                queries=0,
                per_outcome_queries={},
                per_outcome_iterations={},
            )

    def test_json_shape(self):
        o = UtilityOracle(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
        blob = elicit_utility(o).to_json()
        assert blob["best"] == "x1"
        assert blob["worst"] == "x3"
        assert blob["all_indifferent"] is False
        assert blob["utility"] == {"x1": "1", "x2": "1/2", "x3": "0"}
        assert isinstance(blob["queries"], int)


class TestVerifyRepresentation:
    def test_correct_utility_passes(self):
        u = new_utility(SPACE3, (1, Fraction(1, 2), 0))
        o = UtilityOracle(u)
        rng = random.Random(4)
        pairs = [
            (sampling.random_lottery(SPACE3, rng), sampling.random_lottery(SPACE3, rng))
            for _ in range(200)
        ]
        report = verify_representation(o, u, pairs)
        assert report.passed
        assert report.checked + report.skipped == 200

    def test_reversed_ranking_fails_with_witness(self):
        o = UtilityOracle(new_utility(SPACE3, (0, "0.7", 1)))
        candidate = new_utility(SPACE3, (1, "0.7", 0))
        pairs = [(degenerate(SPACE3, "x1"), degenerate(SPACE3, "x3"))]
        report = verify_representation(o, candidate, pairs)
        assert not report.passed
        assert report.witness["kind"] == "representation"
        assert report.witness["index"] == 0

    def test_near_ties_reported_separately(self):
        # candidate puts the pair within tol, the oracle disagrees strictly:
        # skipped and diagnosed in details, but not a verdict failure
        candidate = new_utility(SPACE3, (Fraction(1, 10**12), 0, 0))
        o = UtilityOracle(new_utility(SPACE3, (1, 0, 0)))
        pairs = [(degenerate(SPACE3, "x1"), degenerate(SPACE3, "x2"))]
        report = verify_representation(o, candidate, pairs, tol=TOL)
        assert report.passed
        assert report.skipped == 1
        assert len(report.details["tie_disagreements"]) == 1

    def test_exact_tie_agreement_counts_clean(self):
        u = new_utility(SPACE3, (1, 1, 0))
        o = UtilityOracle(u)
        pairs = [(degenerate(SPACE3, "x1"), degenerate(SPACE3, "x2"))]
        report = verify_representation(o, u, pairs)
        assert report.passed
        assert report.skipped == 1
        assert "tie_disagreements" not in report.details
