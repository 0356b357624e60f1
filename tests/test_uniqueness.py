"""Affine recovery and the invariance of induced rankings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vnm import (
    AffineTransform,
    OutcomeSpace,
    UtilityOracle,
    check_order_axioms,
    compare,
    new_utility,
    recover_affine,
    sampling,
    verify_affine,
)
from vnm.errors import NotAffine, RankMismatch, VNMError

from conftest import utility_values_strategy

SPACE3 = OutcomeSpace(("x1", "x2", "x3"))
CITY = OutcomeSpace(("Paris", "Rome", "village"))


class TestRecover:
    def test_city_pair(self):
        u = new_utility(CITY, (1, "0.7", 0))
        v = new_utility(CITY, (3, "2.1", 0))
        t = recover_affine(u, v)
        assert (t.alpha, t.beta) == (3, 0)

    def test_identity(self):
        u = new_utility(SPACE3, (Fraction(1, 3), 5, -2))
        t = recover_affine(u, u)
        assert (t.alpha, t.beta) == (1, 0)

    def test_constant_pair_uses_unit_scale(self):
        u = new_utility(SPACE3, (4, 4, 4))
        v = new_utility(SPACE3, (-1, -1, -1))
        t = recover_affine(u, v)
        assert (t.alpha, t.beta) == (1, -5)

    @given(
        values=utility_values_strategy(3),
        alpha=st.fractions(min_value=Fraction(1, 100), max_value=100),
        beta=st.fractions(min_value=-100, max_value=100),
    )
    def test_round_trip_exact(self, values, alpha, beta):
        u = new_utility(SPACE3, values)
        v = new_utility(SPACE3, tuple(alpha * x + beta for x in values))
        t = recover_affine(u, v)
        if len(set(values)) == 1:
            assert all(t.apply(x) == alpha * x + beta for x in values)
        else:
            assert (t.alpha, t.beta) == (alpha, beta)

    def test_rank_mismatch(self):
        u = new_utility(SPACE3, (1, "0.7", 0))
        v = new_utility(SPACE3, (0, "0.7", 1))
        with pytest.raises(RankMismatch) as exc:
            recover_affine(u, v)
        assert set(exc.value.witness) <= set(SPACE3.labels)

    def test_not_affine(self):
        u = new_utility(SPACE3, (0, 1, 2))
        v = new_utility(SPACE3, (0, 1, 4))  # convex bend, same order
        with pytest.raises(NotAffine) as exc:
            recover_affine(u, v)
        label, expected, actual = exc.value.witness
        assert label == "x2"
        assert (expected, actual) == (2, 1)

    def test_negative_scale_is_a_rank_mismatch(self):
        u = new_utility(SPACE3, (0, 1, 2))
        v = new_utility(SPACE3, (0, -1, -2))
        with pytest.raises(RankMismatch):
            recover_affine(u, v)

    def test_transform_requires_positive_scale(self):
        with pytest.raises(VNMError):
            AffineTransform(Fraction(0), Fraction(1))

    def test_composition(self):
        u = new_utility(SPACE3, (0, 1, 3))
        s = AffineTransform(Fraction(2), Fraction(1))
        t = AffineTransform(Fraction(3), Fraction(-4))
        v = new_utility(SPACE3, tuple(s.apply(x) for x in u.values))
        w = new_utility(SPACE3, tuple(t.apply(x) for x in v.values))
        direct = recover_affine(u, w)
        assert direct.alpha == t.alpha * s.alpha
        assert direct.beta == t.alpha * s.beta + t.beta

    def test_float_mode_tolerance(self):
        fspace = OutcomeSpace(("a", "b", "c"), mode="float")
        u = new_utility(fspace, (0.0, 0.7, 1.0))
        v = new_utility(fspace, (0.5, 1.2 + 1e-12, 1.5))
        t = recover_affine(u, v, tol=1e-9)
        assert t.alpha == pytest.approx(1.0)
        assert t.beta == pytest.approx(0.5)

    def test_float_mode_default_tol_is_one_billionth_exactly(self):
        # a residual just above 1/10**9 but below the binary float 1e-9
        fspace = OutcomeSpace(("a", "b", "c"), mode="float")
        e = Fraction(1, 10**9) + Fraction(1, 10**30)
        u = new_utility(fspace, (0, Fraction(1, 2), 1))
        v = new_utility(fspace, (0, Fraction(1, 2) + e, 1))
        with pytest.raises(NotAffine):
            recover_affine(u, v)
        assert not verify_affine(u, v, AffineTransform(1, 0)).passed


class TestRankingInvariance:
    def test_transformed_oracle_answers_identically(self):
        rng = random.Random(11)
        u = new_utility(SPACE3, (Fraction(-3, 7), Fraction(2, 5), Fraction(9, 4)))
        v = new_utility(SPACE3, tuple(Fraction(5, 3) * x + Fraction(7, 2) for x in u.values))
        a, b = UtilityOracle(u), UtilityOracle(v)
        for _ in range(200):
            p = sampling.random_lottery(SPACE3, rng)
            q = sampling.random_lottery(SPACE3, rng)
            assert compare(a, p, q) == compare(b, p, q)

    def test_transformed_oracle_still_satisfies_order_axioms(self):
        rng = random.Random(12)
        u = new_utility(SPACE3, (0, 1, 3))
        v = new_utility(SPACE3, tuple(100 * x - 17 for x in u.values))
        triples = sampling.random_triples(SPACE3, rng, 30)
        report = check_order_axioms(UtilityOracle(v), triples)
        assert report.passed


class TestVerifyAffine:
    def test_pass(self):
        u = new_utility(CITY, (1, "0.7", 0))
        v = new_utility(CITY, (3, "2.1", 0))
        check = verify_affine(u, v, AffineTransform(Fraction(3), Fraction(0)))
        assert check.passed
        assert check.details["max_residual"] == "0"

    def test_fail_names_worst_outcome(self):
        u = new_utility(SPACE3, (0, 1, 2))
        v = new_utility(SPACE3, (0, 1, 5))
        check = verify_affine(u, v, AffineTransform(Fraction(1), Fraction(0)))
        assert not check.passed
        assert check.details["max_residual"] == "3"
        assert (check.name, check.checked, check.queries_used) == ("affine", 1, 0)
        assert check.witness == {"outcome": "x3", "transformed": "2", "target": "5"}
