"""The five mixture lemmas: sampled checks and the constructive claim V."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from vnm import (
    Comparison,
    OutcomeSpace,
    PreferenceOracle,
    RankDependentOracle,
    UtilityOracle,
    analytic_indifference_alpha,
    check_claim_v,
    degenerate,
    expected_utility,
    jsonio,
    new_lottery,
    new_utility,
    sampling,
    strict_order,
    verify_claim_v,
    verify_claims_i_to_iv,
)
from vnm.errors import AlphaOutOfRange, PreconditionViolated

SPACE3 = OutcomeSpace(("x1", "x2", "x3"))
U3 = new_utility(SPACE3, (1, Fraction(1, 2), 0))
TOL = 1e-9


def swapped_first_two(p):
    probs = (p.probs[1], p.probs[0]) + p.probs[2:]
    return new_lottery(p.space, probs)


class TestClaimsOneToFour:
    def test_strict_tuples_pass(self):
        o = UtilityOracle(U3)
        rng = random.Random(2)
        tuples = sampling.random_claim_tuples(SPACE3, rng, 300)
        reports = {r.claim: r for r in verify_claims_i_to_iv(o, tuples)}
        assert all(r.passed for r in reports.values())
        assert reports["I"].trials > 250  # exact ties are rare in random draws
        assert reports["I"].trials + reports["I"].skipped == 300
        assert reports["III"].skipped == reports["I"].trials

    def test_indifferent_tuples_exercise_claims_three_and_four(self):
        # u gives x1 and x2 equal value, so swapping their probabilities
        # produces a distinct but indifferent lottery
        u = new_utility(SPACE3, (1, 1, 0))
        o = UtilityOracle(u)
        rng = random.Random(3)
        tuples = []
        for _ in range(100):
            p = sampling.random_lottery(SPACE3, rng)
            q = swapped_first_two(p)
            r = sampling.random_lottery(SPACE3, rng)
            a = sampling.random_alpha(SPACE3, rng, include_one=False)
            tuples.append((p, q, r, a))
        reports = {r.claim: r for r in verify_claims_i_to_iv(o, tuples)}
        assert all(r.passed for r in reports.values())
        assert reports["III"].trials == 100
        assert reports["IV"].trials == 100
        assert reports["I"].skipped == 100

    def test_strict_queries_split_between_claims_one_and_two(self):
        o = UtilityOracle(U3)
        tuples = sampling.random_claim_tuples(SPACE3, random.Random(5), 40)
        reports = {r.claim: r for r in verify_claims_i_to_iv(o, tuples)}
        assert reports["I"].trials == 40  # no ties in this sample
        used = {c: r.queries_used for c, r in reports.items()}
        assert sum(used.values()) == o.query_count
        # the classifying comparison is charged to I, which then makes two more
        assert used == {"I": 6 * 40, "II": 2 * 40, "III": 0, "IV": 0}

    def test_indifferent_queries_split_between_claims_three_and_four(self):
        # x1 and x2 tie, so p and p with those two swapped are indifferent
        o = UtilityOracle(new_utility(SPACE3, (1, 1, 0)))
        rng = random.Random(4)
        tuples = []
        for _ in range(40):
            p, r = sampling.random_lottery(SPACE3, rng), sampling.random_lottery(SPACE3, rng)
            a = sampling.random_alpha(SPACE3, rng, include_one=False)
            tuples.append((p, swapped_first_two(p), r, a))
        reports = {r.claim: r for r in verify_claims_i_to_iv(o, tuples)}
        used = {c: r.queries_used for c, r in reports.items()}
        assert sum(used.values()) == o.query_count
        assert used == {"I": 0, "II": 0, "III": 6 * 40, "IV": 2 * 40}

    def test_explicit_beta_tuples(self):
        o = UtilityOracle(U3)
        p, q = degenerate(SPACE3, "x1"), degenerate(SPACE3, "x3")
        r = degenerate(SPACE3, "x2")
        tuples = [(p, q, r, Fraction(1, 4), Fraction(1, 1))]  # beta = 1 mixes to p itself
        reports = verify_claims_i_to_iv(o, tuples)
        assert all(rep.passed for rep in reports)

    def test_alpha_bounds_enforced(self):
        o = UtilityOracle(U3)
        p, q, r = (degenerate(SPACE3, x) for x in SPACE3.labels)
        with pytest.raises(AlphaOutOfRange):
            verify_claims_i_to_iv(o, [(p, q, r, Fraction(1))])
        with pytest.raises(AlphaOutOfRange):
            verify_claims_i_to_iv(o, [(p, q, r, Fraction(1, 2), Fraction(1, 2))])

    def test_rank_dependent_oracle_breaks_a_mixture_lemma(self):
        o = RankDependentOracle(U3)
        rng = random.Random(0)
        tuples = sampling.random_claim_tuples(SPACE3, rng, 2000)
        reports = verify_claims_i_to_iv(o, tuples)
        failed = [r for r in reports if not r.passed]
        assert failed, "expected the distorted comparator to violate a lemma"
        assert all(r.witness is not None for r in failed)


class TestAnalyticAlpha:
    def test_city_example(self):
        space = OutcomeSpace(("Paris", "Rome", "village"))
        u = new_utility(space, (1, "0.7", 0))
        p = degenerate(space, "Paris")
        q = degenerate(space, "Rome")
        r = degenerate(space, "village")
        assert analytic_indifference_alpha(u, p, q, r) == Fraction(7, 10)

    def test_preconditions(self):
        o_u = U3
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        with pytest.raises(PreconditionViolated):
            analytic_indifference_alpha(o_u, d3, d2, d1)  # wrong order
        with pytest.raises(PreconditionViolated):
            analytic_indifference_alpha(o_u, d1, d2, d1)  # EU(p) = EU(r)

    def test_endpoint_values(self):
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        assert analytic_indifference_alpha(U3, d1, d1, d3) == 1
        assert analytic_indifference_alpha(U3, d1, d3, d3) == 0


class TestClaimV:
    def test_degenerate_triple_hits_exact_weight(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        report = verify_claim_v(o, d1, d2, d3)
        assert report.passed
        assert report.details["alpha_hat"] == "1/2"  # first midpoint ties exactly
        assert report.details["analytic_alpha"] == "1/2"
        assert report.details["replay_comparison"] == "indifferent"

    def test_non_dyadic_weight_within_tol(self):
        space = OutcomeSpace(("Paris", "Rome", "village"))
        o = UtilityOracle(new_utility(space, (1, "0.7", 0)))
        report = verify_claim_v(
            o,
            degenerate(space, "Paris"),
            degenerate(space, "Rome"),
            degenerate(space, "village"),
        )
        assert report.passed
        assert abs(Fraction(report.details["alpha_hat"]) - Fraction(7, 10)) <= TOL

    def test_endpoint_indifference(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        top_tie = verify_claim_v(o, d1, d1, d3)
        assert top_tie.passed and top_tie.details == {
            "alpha_hat": "1",
            "iterations": 0,
            "replay_comparison": "indifferent",
            "analytic_alpha": "1",
            "above_comparison": "skipped",
            "below_comparison": "prefer_second",
        }
        bottom_tie = verify_claim_v(o, d1, d3, d3)
        assert bottom_tie.passed and bottom_tie.details == {
            "alpha_hat": "0",
            "iterations": 0,
            "replay_comparison": "indifferent",
            "analytic_alpha": "0",
            "above_comparison": "prefer_first",
            "below_comparison": "skipped",
        }

    def test_random_triples_match_analytic(self):
        rng = random.Random(11)
        u = new_utility(SPACE3, (Fraction(7, 3), Fraction(1, 6), Fraction(-5, 4)))
        o = UtilityOracle(u)
        done = 0
        while done < 25:
            lots = sorted(
                (sampling.random_lottery(SPACE3, rng) for _ in range(3)),
                key=lambda lot: expected_utility(lot, u),
                reverse=True,
            )
            p, q, r = lots
            if expected_utility(p, u) == expected_utility(r, u):
                continue
            report = verify_claim_v(o, p, q, r, tol=TOL)
            assert report.passed
            analytic = analytic_indifference_alpha(u, p, q, r)
            assert abs(Fraction(report.details["alpha_hat"]) - analytic) <= TOL
            done += 1

    def test_tiny_tolerance_still_succeeds(self):
        # the contract holds all the way down to 2**-60
        o = UtilityOracle(U3)
        d1, d3 = degenerate(SPACE3, "x1"), degenerate(SPACE3, "x3")
        q = new_lottery(SPACE3, ("3/10", "1/5", "1/2"))  # EU = 2/5
        report = verify_claim_v(o, d1, q, d3, tol=Fraction(1, 2**60))
        assert report.passed
        assert abs(Fraction(report.details["alpha_hat"]) - Fraction(2, 5)) <= Fraction(1, 2**60)

    def test_indifference_plateau_fails_uniqueness(self):
        # quantized values create a plateau, so the weight is not unique
        def plateau(p, q):
            return math.floor(4 * float(expected_utility(p, U3))) >= math.floor(
                4 * float(expected_utility(q, U3))
            )

        o = PreferenceOracle(SPACE3, pref_fn=plateau)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        report = verify_claim_v(o, d1, d2, d3)
        assert not report.passed
        assert report.witness["kind"].startswith("claim_v_not_unique")

    def test_precondition_rejected(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        with pytest.raises(PreconditionViolated):
            verify_claim_v(o, d3, d2, d1)


def quarter_bands(round_to):
    """An oracle comparing ``round_to(4 * EU)``: indifferent on quarter-wide bands."""

    def pref(p, q):
        return round_to(4 * expected_utility(p, U3)) >= round_to(4 * expected_utility(q, U3))

    return PreferenceOracle(SPACE3, pref_fn=pref)


class MisreportingOracle(UtilityOracle):
    """Carries ``U3`` as its utility but answers by another one."""

    def __init__(self, answers_by):
        super().__init__(U3)
        self._by = UtilityOracle(answers_by)

    def _answer(self, p, q):
        return self._by._answer(p, q)


class TestClaimVBranches:
    """Each way claim V can fail, with its exact details and witness."""

    D1, D2, D3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
    TRIPLE = {k: jsonio.lottery_to_json(d) for k, d in zip("pqr", (D1, D2, D3))}

    def test_analytic_gap(self):
        o = MisreportingOracle(new_utility(SPACE3, (1, Fraction(1, 4), 0)))
        report = verify_claim_v(o, self.D1, self.D2, self.D3)
        assert not report.passed
        assert report.details == {
            "alpha_hat": "1/4",
            "iterations": 2,
            "replay_comparison": "indifferent",
            "analytic_alpha": "1/2",
        }
        assert report.witness == {
            "kind": "claim_v_analytic_gap",
            "alpha_hat": "1/4",
            "analytic_alpha": "1/2",
            "tol": TOL,
            **self.TRIPLE,
        }

    def test_not_unique_above(self):
        # floor bands: [1/2, 3/4) all tie with q, so the weight above 1/2 ties too
        report = verify_claim_v(quarter_bands(math.floor), self.D1, self.D2, self.D3)
        assert not report.passed
        assert report.details == {
            "alpha_hat": "1/2",
            "iterations": 1,
            "replay_comparison": "indifferent",
            "above_comparison": "indifferent",
        }
        assert report.witness == {
            "kind": "claim_v_not_unique_above",
            "weight": "50000001/100000000",
            "comparison": "indifferent",
            **self.TRIPLE,
        }

    def test_not_unique_below(self):
        # ceil bands: (1/4, 1/2] all tie with q, so only the weight below 1/2 ties
        report = verify_claim_v(quarter_bands(math.ceil), self.D1, self.D2, self.D3)
        assert not report.passed
        assert report.details == {
            "alpha_hat": "1/2",
            "iterations": 1,
            "replay_comparison": "indifferent",
            "above_comparison": "prefer_first",
            "below_comparison": "indifferent",
        }
        assert report.witness == {
            "kind": "claim_v_not_unique_below",
            "weight": "49999999/100000000",
            "comparison": "indifferent",
            **self.TRIPLE,
        }

    def test_report_counts_one_instance_and_its_queries(self):
        o = UtilityOracle(U3)
        report = verify_claim_v(o, self.D1, self.D2, self.D3)
        assert (report.name, report.checked, report.skipped) == ("V", 1, 0)
        assert report.queries_used == o.query_count


class TestClaimVCheck:
    def test_sorts_skips_ties_and_counts_every_query(self):
        o = UtilityOracle(U3)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        report = check_claim_v(o, [(d3, d1, d2), (d2, d2, d1)])
        assert report.passed
        assert (report.trials, report.skipped) == (1, 1)
        single = verify_claim_v(UtilityOracle(U3), d1, d2, d3)
        assert report.queries_used == o.query_count > single.queries_used

    def test_first_failing_triple_is_the_witness(self):
        def plateau(p, q):
            return math.floor(4 * float(expected_utility(p, U3))) >= math.floor(
                4 * float(expected_utility(q, U3))
            )

        o = PreferenceOracle(SPACE3, pref_fn=plateau)
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        report = check_claim_v(o, [(d1, d2, d3), (d1, d2, d3)])
        assert not report.passed
        assert report.trials == 1
        assert report.witness == verify_claim_v(o, d1, d2, d3).witness

    def test_bisection_precondition_is_the_witness(self):
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        beats = {(d1.probs, d2.probs), (d2.probs, d3.probs), (d3.probs, d1.probs)}
        o = PreferenceOracle(SPACE3, pref_fn=lambda p, q: (q.probs, p.probs) not in beats)
        report = check_claim_v(o, [(d1, d2, d3), (d1, d2, d3)])
        assert not report.passed
        assert (report.checked, report.skipped) == (1, 0)
        witness = report.witness
        assert witness["kind"] == "claim_v_precondition"
        assert "strictly preferred" in witness["detail"]
        ordered = strict_order(o, d1, d2, d3)
        assert [witness[k] for k in "pqr"] == [jsonio.lottery_to_json(x) for x in ordered]

    def test_no_convergence_is_the_witness(self):
        # alpha* = 1/3 is never a dyadic midpoint, so three halvings leave [1/4, 3/8]
        o = UtilityOracle(new_utility(SPACE3, (1, Fraction(1, 3), 0)))
        d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)
        report = check_claim_v(o, [(d3, d2, d1), (d1, d2, d3)], max_iter=3)
        assert not report.passed
        assert (report.checked, report.skipped) == (1, 0)
        assert report.queries_used == o.query_count
        assert report.witness == {
            "kind": "claim_v_no_convergence",
            "detail": "no convergence after 3 iterations",
            "bracket": ["1/4", "3/8"],
            **jsonio.triple_to_json(d1, d2, d3),
        }
