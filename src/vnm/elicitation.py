"""Utility elicitation from a preference oracle by indifference bisection.

The construction mirrors how an expected-utility representation is built:
find a best and worst sure outcome, pin their utilities at 1 and 0, then
for every other outcome locate the mixture weight at which the oracle is
indifferent between "that outcome for sure" and a best/worst gamble. That
weight is the outcome's utility.

Between-lottery comparisons are monotone in the mixing weight for any
oracle satisfying the axioms, which is what makes plain bisection sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NoConvergence, PreconditionViolated, VNMError
from .jsonio import lottery_to_json, number_to_json, utility_to_json
from .lottery import (
    Lottery,
    UtilityFunction,
    coerce_number,
    degenerate,
    expected_utility,
    mix,
)
from .preference import SKIP, Comparison, PreferenceOracle, Report, compare, run_check

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


def find_extreme_degenerates(oracle: PreferenceOracle) -> tuple[str, str, bool]:
    """Best and worst sure outcome, plus whether all outcomes tie.

    One linear scan, keeping a running best and running worst; ties leave
    the earlier index in place. Returns ``(best, worst, all_indifferent)``.
    """
    space = oracle.space
    best = worst = space.labels[0]
    d_best = d_worst = degenerate(space, best)
    for label in space.labels[1:]:
        d = degenerate(space, label)
        if compare(oracle, d, d_best) is Comparison.PREFER_FIRST:
            best, d_best = label, d
        if compare(oracle, d_worst, d) is Comparison.PREFER_FIRST:
            worst, d_worst = label, d
    all_indifferent = compare(oracle, d_best, d_worst) is Comparison.INDIFFERENT
    return best, worst, all_indifferent


def _bisect(
    oracle: PreferenceOracle,
    top: Lottery,
    target: Lottery,
    bottom: Lottery,
    tol,
    max_iter: int,
):
    """Core bisection with ``tol`` read exactly; returns (weight, iterations)."""
    tol = coerce_number(tol)
    c_top = compare(oracle, top, target)
    if c_top is Comparison.PREFER_SECOND:
        raise PreconditionViolated("bisection needs top weakly preferred to target")
    c_bottom = compare(oracle, target, bottom)
    if c_bottom is Comparison.PREFER_SECOND:
        raise PreconditionViolated("bisection needs target weakly preferred to bottom")
    if compare(oracle, top, bottom) is not Comparison.PREFER_FIRST:
        raise PreconditionViolated("bisection needs top strictly preferred to bottom")
    if c_top is Comparison.INDIFFERENT:
        return Fraction(1), 0
    if c_bottom is Comparison.INDIFFERENT:
        return Fraction(0), 0

    # invariant: mix(top, bottom, hi) >= target >= mix(top, bottom, lo)
    lo, hi = Fraction(0), Fraction(1)
    iterations = 0
    while hi - lo > tol:
        if iterations == max_iter:
            raise NoConvergence(iterations, bracket=(lo, hi))
        mid = (lo + hi) / 2
        iterations += 1
        c = compare(oracle, mix(top, bottom, mid), target)
        if c is Comparison.INDIFFERENT:
            return mid, iterations
        if c is Comparison.PREFER_FIRST:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2, iterations


def bisect_indifference(
    oracle: PreferenceOracle,
    top: Lottery,
    target: Lottery,
    bottom: Lottery,
    tol=DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Weight w with ``mix(top, bottom, w)`` indifferent to ``target``.

    Requires top >= target >= bottom with top strictly preferred to bottom
    (all verified through the oracle). If the oracle reports indifference at
    a probed weight the search returns it immediately; if the target ties
    with an endpoint the matching endpoint weight (1 or 0) comes back
    without any bisection. Otherwise the bracket halves until its width is
    at most ``tol``, and the midpoint is returned, so the result is within
    ``tol`` of the true indifference weight.
    """
    value, _ = _bisect(oracle, top, target, bottom, tol, max_iter)
    return value


@dataclass
class ElicitationResult:
    """Elicited utility plus bookkeeping about how much it cost.

    ``queries`` counts oracle comparisons (each is two raw preference
    queries). Utilities are normalized: best outcome 1, worst outcome 0,
    everything in [0, 1]; if every outcome ties, the utility is
    identically 0 and ``all_indifferent`` is set.
    """

    utility: UtilityFunction
    best: str
    worst: str
    all_indifferent: bool
    queries: int
    per_outcome_queries: dict[str, int]
    per_outcome_iterations: dict[str, int]

    def __post_init__(self):
        for x, v in zip(self.utility.space.labels, self.utility.values):
            if v < 0 or v > 1:
                raise VNMError(f"elicited utility out of [0, 1] at {x!r}: {v}")
        if self.all_indifferent and any(v != 0 for v in self.utility.values):
            raise VNMError("all-indifferent elicitation must return the zero utility")

    def to_json(self) -> dict:
        return {
            "utility": utility_to_json(self.utility)["utility"],
            "best": self.best,
            "worst": self.worst,
            "all_indifferent": self.all_indifferent,
            "queries": self.queries,
            "per_outcome_queries": dict(self.per_outcome_queries),
            "per_outcome_iterations": dict(self.per_outcome_iterations),
        }


def elicit_utility(
    oracle: PreferenceOracle,
    tol=DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ElicitationResult:
    """Recover a normalized utility over sure outcomes from the oracle.

    The best and worst outcomes get utilities 1 and 0 directly (every
    outcome gets 0 when all tie); every other outcome is bisected between
    them. Costs O(size * log(1/tol)) comparisons in total.
    """
    space = oracle.space
    start = oracle.query_count
    best, worst, all_indifferent = find_extreme_degenerates(oracle)
    d_best, d_worst = degenerate(space, best), degenerate(space, worst)
    values = []
    per_queries: dict[str, int] = {}
    per_iters: dict[str, int] = {}
    for label in space.labels:
        before = oracle.query_count
        if all_indifferent or label in (best, worst):
            value, iters = Fraction(1 if label == best and not all_indifferent else 0), 0
        else:
            value, iters = _bisect(oracle, d_best, degenerate(space, label), d_worst, tol, max_iter)
        values.append(value)
        per_queries[label] = (oracle.query_count - before) // 2
        per_iters[label] = iters
    return ElicitationResult(
        utility=UtilityFunction(space, tuple(values)),
        best=best,
        worst=worst,
        all_indifferent=all_indifferent,
        queries=(oracle.query_count - start) // 2,
        per_outcome_queries=per_queries,
        per_outcome_iterations=per_iters,
    )


def verify_representation(
    oracle: PreferenceOracle,
    utility: UtilityFunction,
    pairs: Sequence[tuple[Lottery, Lottery]],
    tol=DEFAULT_TOL,
) -> Report:
    """Check that expected utility under ``utility`` reproduces the oracle.

    For each pair, ``pref(p, q)`` must hold exactly when ``EU(p) >= EU(q) -
    tol``, in both query orientations. Pairs whose expected utilities were
    within ``tol`` of each other cannot be adjudicated that way; they are
    counted in ``skipped`` and compared for oracle indifference instead, and
    disagreements are listed under ``details`` without affecting the verdict.
    ``tol`` is read exactly.
    """
    details: dict = {}
    tol = coerce_number(tol)
    mode = oracle.space.mode

    def test(index, pair):
        p, q = pair
        eu_p = expected_utility(p, utility)
        eu_q = expected_utility(q, utility)
        if abs(eu_p - eu_q) <= tol:
            c = compare(oracle, p, q)
            if c is not Comparison.INDIFFERENT:
                details.setdefault("tie_disagreements", []).append(
                    {
                        "index": index,
                        "comparison": c.value,
                        "eu_first": number_to_json(eu_p, mode),
                        "eu_second": number_to_json(eu_q, mode),
                    }
                )
            return SKIP
        pq = oracle.pref(p, q)
        qp = oracle.pref(q, p)
        expect_pq = eu_p > eu_q
        if pq == expect_pq and qp == (not expect_pq):
            return None
        return {
            "kind": "representation",
            "index": index,
            "first": lottery_to_json(p),
            "second": lottery_to_json(q),
            "eu_first": number_to_json(eu_p, mode),
            "eu_second": number_to_json(eu_q, mode),
            "pref_first_second": pq,
            "pref_second_first": qp,
        }

    return run_check(
        "representation",
        oracle,
        enumerate(pairs),
        test,
        note="near-tie pairs are diagnosed separately, not counted as failures",
        details=details,
    )
