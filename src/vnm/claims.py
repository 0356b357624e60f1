"""Checks for five mixture lemmas implied by the preference axioms.

The lemmas, identified here by the roman numerals I through V:

* I: if p > q then p > mix(p, q, a) > q for any interior weight a;
* II: mixing toward the better lottery is strictly monotone in the weight;
* III: if p ~ q then p ~ mix(p, q, a) ~ q;
* IV: indifference survives mixing with any third lottery;
* V: for p >= q >= r with p > r there is exactly one weight a* making
  mix(p, r, a*) indifferent to q.

Claims I through IV are spot-checked on sampled tuples: one pass sorts the
tuples into strict and indifferent ones, then each claim is one
:func:`run_check` over its own list. Claim V is checked constructively:
bisection locates the weight, a closed-form expected-utility computation
cross-checks it, and strict comparisons just above and below confirm
uniqueness.
:func:`verify_claim_v` runs that check on one triple and
:func:`check_claim_v` on sampled triples, both through :func:`run_check`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

from .elicitation import _bisect
from .errors import AlphaOutOfRange, NoConvergence, PreconditionViolated
from .jsonio import lottery_to_json, number_to_json, triple_to_json
from .lottery import Lottery, UtilityFunction, coerce_number, expected_utility, mix
from .preference import (
    SKIP,
    Comparison,
    PreferenceOracle,
    Report,
    UtilityOracle,
    compare,
    run_check,
    strict_order,
)


def _default_beta(alpha):
    # deterministic draw from (alpha, 1]: the midpoint toward 1
    return (alpha + 1) / 2


def _claim_i(oracle, better, worse, r, alpha, beta, m):
    upper, lower = compare(oracle, better, m), compare(oracle, m, worse)
    if upper is lower is Comparison.PREFER_FIRST:
        return None
    return {
        "kind": "claim_i",
        "better": lottery_to_json(better),
        "worse": lottery_to_json(worse),
        "alpha": number_to_json(alpha),
        "better_vs_mix": upper.value,
        "mix_vs_worse": lower.value,
    }


def _claim_ii(oracle, better, worse, r, alpha, beta, m):
    c = compare(oracle, mix(better, worse, beta), m)
    if c is Comparison.PREFER_FIRST:
        return None
    return {
        "kind": "claim_ii",
        "better": lottery_to_json(better),
        "worse": lottery_to_json(worse),
        "alpha": number_to_json(alpha),
        "beta": number_to_json(beta),
        "comparison": c.value,
    }


def _claim_iii(oracle, p, q, r, alpha, beta, m):
    left, right = compare(oracle, p, m), compare(oracle, m, q)
    if left is right is Comparison.INDIFFERENT:
        return None
    return {
        "kind": "claim_iii",
        "p": lottery_to_json(p),
        "q": lottery_to_json(q),
        "alpha": number_to_json(alpha),
        "p_vs_mix": left.value,
        "mix_vs_q": right.value,
    }


def _claim_iv(oracle, p, q, r, alpha, beta, m):
    c = compare(oracle, mix(p, r, alpha), mix(q, r, alpha))
    if c is Comparison.INDIFFERENT:
        return None
    return {
        "kind": "claim_iv",
        **triple_to_json(p, q, r),
        "alpha": number_to_json(alpha),
        "mixed_comparison": c.value,
    }


def verify_claims_i_to_iv(
    oracle: PreferenceOracle,
    tuples: Iterable[tuple],
) -> list[Report]:
    """Check claims I through IV on sampled (p, q, r, alpha[, beta]) tuples.

    One pass classifies each tuple by comparing p and q. Strict tuples,
    oriented so that the better lottery comes first, exercise claims I and
    II; indifferent tuples exercise claims III and IV. Each claim is then
    one :func:`run_check` over its own list, and the tuples of the other
    list count as its ``skipped``. Alpha must be strictly interior; beta
    defaults to the midpoint of (alpha, 1].

    Each claim's ``queries_used`` counts the queries of its own tests. The
    classifying comparison is charged to I for strict tuples and to III for
    indifferent ones, so the four counts sum to the oracle's queries over
    the whole run.
    """
    strict, indifferent = [], []
    for p, q, r, alpha, *rest in tuples:
        (beta,) = rest or (_default_beta(alpha),)
        if alpha <= 0 or alpha >= 1:
            raise AlphaOutOfRange(alpha, required="(0, 1)")
        if beta <= alpha or beta > 1:
            raise AlphaOutOfRange(beta, required=f"({alpha}, 1]")
        base = compare(oracle, p, q)
        if base is Comparison.PREFER_SECOND:
            p, q = q, p
        group = indifferent if base is Comparison.INDIFFERENT else strict
        group.append((p, q, r, alpha, beta, mix(p, q, alpha)))

    reports = []
    for claim, test, own, other, classified in (
        ("I", _claim_i, strict, indifferent, True),
        ("II", _claim_ii, strict, indifferent, False),
        ("III", _claim_iii, indifferent, strict, True),
        ("IV", _claim_iv, indifferent, strict, False),
    ):
        report = run_check(claim, oracle, own, partial(test, oracle))
        report.skipped = len(other)
        if classified:
            report.queries_used += 2 * len(own)
        reports.append(report)
    return reports


def analytic_indifference_alpha(u: UtilityFunction, p: Lottery, q: Lottery, r: Lottery):
    """Closed-form indifference weight (EU(q) - EU(r)) / (EU(p) - EU(r)).

    Requires EU(p) >= EU(q) >= EU(r) with the outer inequality strict.
    Exact in rational mode.
    """
    eu_p = expected_utility(p, u)
    eu_q = expected_utility(q, u)
    eu_r = expected_utility(r, u)
    if eu_p == eu_r:
        raise PreconditionViolated("analytic weight needs EU(p) > EU(r)")
    if not (eu_p >= eu_q >= eu_r):
        raise PreconditionViolated("analytic weight needs EU(p) >= EU(q) >= EU(r)")
    return (eu_q - eu_r) / (eu_p - eu_r)


def verify_claim_v(
    oracle: PreferenceOracle,
    p: Lottery,
    q: Lottery,
    r: Lottery,
    tol=1e-9,
    max_iter: int = 200,
) -> Report:
    """Locate the unique weight with mix(p, r, a) ~ q and certify it.

    Bisection finds a weight within ``tol`` of the indifference point. For
    utility-backed oracles the closed-form weight cross-checks it. Strict
    comparisons at a distance of ten tolerances on each side (where those
    weights stay inside [0, 1]) certify uniqueness: above the point the
    mixture must beat q, below it q must win. One :func:`run_check` call on
    the single instance builds the report; ``details`` records the weight,
    the iterations and every comparison made, up to the first failure.
    """
    details: dict = {}

    def test():
        alpha_hat, iterations = _bisect(oracle, p, q, r, tol, max_iter)
        details.update(alpha_hat=number_to_json(alpha_hat), iterations=iterations)
        details["replay_comparison"] = compare(oracle, mix(p, r, alpha_hat), q).value
        if isinstance(oracle, UtilityOracle):
            analytic = analytic_indifference_alpha(oracle.utility, p, q, r)
            details["analytic_alpha"] = number_to_json(analytic)
            if abs(alpha_hat - analytic) > tol:
                return {
                    "kind": "claim_v_analytic_gap",
                    "alpha_hat": number_to_json(alpha_hat),
                    "analytic_alpha": number_to_json(analytic),
                    "tol": number_to_json(tol),
                    **triple_to_json(p, q, r),
                }
        step = 10 * coerce_number(tol, p.space.mode)
        for side, weight, expected in (
            ("above", alpha_hat + step, Comparison.PREFER_FIRST),
            ("below", alpha_hat - step, Comparison.PREFER_SECOND),
        ):
            if not 0 <= weight <= 1:
                details[f"{side}_comparison"] = "skipped"
                continue
            c = compare(oracle, mix(p, r, weight), q)
            details[f"{side}_comparison"] = c.value
            if c is not expected:
                return {
                    "kind": f"claim_v_not_unique_{side}",
                    "weight": number_to_json(weight),
                    "comparison": c.value,
                    **triple_to_json(p, q, r),
                }
        return None

    return run_check("V", oracle, [()], test, details=details)


def check_claim_v(
    oracle: PreferenceOracle,
    triples: Iterable[tuple[Lottery, Lottery, Lottery]],
    tol=1e-9,
    max_iter: int = 200,
) -> Report:
    """Run :func:`verify_claim_v` on each sampled triple once strictly ordered.

    A triple with a tie counts as skipped. The first failing triple's
    witness ends the run. ``queries_used`` covers the sorting queries too.
    A :class:`PreconditionViolated` from the bisection (an intransitive
    oracle) is that triple's witness, of kind ``claim_v_precondition``; a
    :class:`NoConvergence` is one of kind ``claim_v_no_convergence``, with
    the last bracket.
    """

    def test(*triple):
        ordered = strict_order(oracle, *triple)
        if ordered is None:
            return SKIP
        try:
            return verify_claim_v(oracle, *ordered, tol=tol, max_iter=max_iter).witness
        except PreconditionViolated as exc:
            return {
                "kind": "claim_v_precondition",
                "detail": str(exc),
                **triple_to_json(*ordered),
            }
        except NoConvergence as exc:
            return {
                "kind": "claim_v_no_convergence",
                "detail": str(exc),
                "bracket": [number_to_json(b) for b in exc.bracket],
                **triple_to_json(*ordered),
            }

    return run_check("V", oracle, triples, test)
