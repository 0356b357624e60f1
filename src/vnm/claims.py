"""Checks for five mixture lemmas implied by the preference axioms.

The lemmas, identified here by the roman numerals I through V:

* I: if p > q then p > mix(p, q, a) > q for any interior weight a;
* II: mixing toward the better lottery is strictly monotone in the weight;
* III: if p ~ q then p ~ mix(p, q, a) ~ q;
* IV: indifference survives mixing with any third lottery;
* V: for p >= q >= r with p > r there is exactly one weight a* making
  mix(p, r, a*) indifferent to q.

Claims I through IV are spot-checked on sampled tuples. Claim V is checked
constructively: bisection locates the weight, a closed-form expected-utility
computation cross-checks it, and strict comparisons just above and below
confirm uniqueness. :func:`check_claim_v` runs that check on sampled
triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .elicitation import _bisect
from .errors import AlphaOutOfRange, PreconditionViolated
from .jsonio import lottery_to_json, number_to_json
from .lottery import Lottery, UtilityFunction, coerce_number, expected_utility, mix
from .preference import Comparison, PreferenceOracle, UtilityOracle, compare, strict_order

CLAIM_IDS = ("I", "II", "III", "IV", "V")


@dataclass
class ClaimReport:
    """Verdict for one claim over a sample.

    ``trials`` counts tuples whose precondition held and were checked;
    ``skipped`` counts tuples that did not qualify (wrong comparison kind),
    reported so sample adequacy stays visible.
    """

    claim: str
    passed: bool
    trials: int
    skipped: int
    queries_used: int
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "passed": self.passed,
            "trials": self.trials,
            "skipped": self.skipped,
            "queries_used": self.queries_used,
            "witness": self.witness,
        }
        if self.details:
            out["details"] = self.details
        return out


def _default_beta(alpha):
    # deterministic draw from (alpha, 1]: the midpoint toward 1
    return (alpha + 1) / 2


def verify_claims_i_to_iv(
    oracle: PreferenceOracle,
    tuples: Iterable[tuple],
) -> list[ClaimReport]:
    """Check claims I through IV on sampled (p, q, r, alpha[, beta]) tuples.

    Each tuple is first classified by comparing p and q. Strict tuples
    exercise claims I and II (with q taking the worse role as needed);
    indifferent tuples exercise claims III and IV. A tuple that does not
    satisfy a claim's precondition counts as skipped for that claim. Alpha
    must be strictly interior; beta defaults to the midpoint of (alpha, 1].
    """
    start = oracle.query_count
    trials = {c: 0 for c in ("I", "II", "III", "IV")}
    skipped = {c: 0 for c in ("I", "II", "III", "IV")}
    witnesses: dict[str, Optional[dict]] = {c: None for c in ("I", "II", "III", "IV")}

    for item in tuples:
        if len(item) == 5:
            p, q, r, alpha, beta = item
        else:
            p, q, r, alpha = item
            beta = _default_beta(alpha)
        if alpha <= 0 or alpha >= 1:
            raise AlphaOutOfRange(alpha, required="(0, 1)")
        if beta <= alpha or beta > 1:
            raise AlphaOutOfRange(beta, required=f"({alpha}, 1]")

        base = compare(oracle, p, q)
        if base is Comparison.INDIFFERENT:
            skipped["I"] += 1
            skipped["II"] += 1
            m = mix(p, q, alpha)
            if witnesses["III"] is None:
                trials["III"] += 1
                left = compare(oracle, p, m)
                right = compare(oracle, m, q)
                if left is not Comparison.INDIFFERENT or right is not Comparison.INDIFFERENT:
                    witnesses["III"] = {
                        "kind": "claim_iii",
                        "p": lottery_to_json(p),
                        "q": lottery_to_json(q),
                        "alpha": number_to_json(alpha),
                        "p_vs_mix": left.value,
                        "mix_vs_q": right.value,
                    }
            if witnesses["IV"] is None:
                trials["IV"] += 1
                c = compare(oracle, mix(p, r, alpha), mix(q, r, alpha))
                if c is not Comparison.INDIFFERENT:
                    witnesses["IV"] = {
                        "kind": "claim_iv",
                        "p": lottery_to_json(p),
                        "q": lottery_to_json(q),
                        "r": lottery_to_json(r),
                        "alpha": number_to_json(alpha),
                        "mixed_comparison": c.value,
                    }
        else:
            # orient so that better > worse, then claims I and II apply
            better, worse = (p, q) if base is Comparison.PREFER_FIRST else (q, p)
            skipped["III"] += 1
            skipped["IV"] += 1
            m_alpha = mix(better, worse, alpha)
            if witnesses["I"] is None:
                trials["I"] += 1
                upper = compare(oracle, better, m_alpha)
                lower = compare(oracle, m_alpha, worse)
                if upper is not Comparison.PREFER_FIRST or lower is not Comparison.PREFER_FIRST:
                    witnesses["I"] = {
                        "kind": "claim_i",
                        "better": lottery_to_json(better),
                        "worse": lottery_to_json(worse),
                        "alpha": number_to_json(alpha),
                        "better_vs_mix": upper.value,
                        "mix_vs_worse": lower.value,
                    }
            if witnesses["II"] is None:
                trials["II"] += 1
                c = compare(oracle, mix(better, worse, beta), m_alpha)
                if c is not Comparison.PREFER_FIRST:
                    witnesses["II"] = {
                        "kind": "claim_ii",
                        "better": lottery_to_json(better),
                        "worse": lottery_to_json(worse),
                        "alpha": number_to_json(alpha),
                        "beta": number_to_json(beta),
                        "comparison": c.value,
                    }

    used = oracle.query_count - start
    return [
        ClaimReport(
            claim=c,
            passed=witnesses[c] is None,
            trials=trials[c],
            skipped=skipped[c],
            queries_used=used,
            witness=witnesses[c],
        )
        for c in ("I", "II", "III", "IV")
    ]


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
) -> ClaimReport:
    """Locate the unique weight with mix(p, r, a) ~ q and certify it.

    Bisection finds a weight within ``tol`` of the indifference point. For
    utility-backed oracles the closed-form weight cross-checks it. Strict
    comparisons at a distance of ten tolerances on each side (where those
    weights stay inside [0, 1]) certify uniqueness: above the point the
    mixture must beat q, below it q must win.
    """
    start = oracle.query_count
    alpha_hat, iterations = _bisect(oracle, p, q, r, tol, max_iter)
    details: dict = {
        "alpha_hat": number_to_json(alpha_hat),
        "iterations": iterations,
    }
    witness = None

    replay = compare(oracle, mix(p, r, alpha_hat), q)
    details["replay_comparison"] = replay.value

    if witness is None and isinstance(oracle, UtilityOracle):
        analytic = analytic_indifference_alpha(oracle.utility, p, q, r)
        details["analytic_alpha"] = number_to_json(analytic)
        if abs(alpha_hat - analytic) > tol:
            witness = {
                "kind": "claim_v_analytic_gap",
                "alpha_hat": number_to_json(alpha_hat),
                "analytic_alpha": number_to_json(analytic),
                "tol": tol,
            }

    step = 10 * coerce_number(tol, p.space.mode)
    if witness is None:
        above = alpha_hat + step
        if above <= 1:
            c = compare(oracle, mix(p, r, above), q)
            details["above_comparison"] = c.value
            if c is not Comparison.PREFER_FIRST:
                witness = {
                    "kind": "claim_v_not_unique_above",
                    "weight": number_to_json(above),
                    "comparison": c.value,
                }
        else:
            details["above_comparison"] = "skipped"
    if witness is None:
        below = alpha_hat - step
        if below >= 0:
            c = compare(oracle, mix(p, r, below), q)
            details["below_comparison"] = c.value
            if c is not Comparison.PREFER_SECOND:
                witness = {
                    "kind": "claim_v_not_unique_below",
                    "weight": number_to_json(below),
                    "comparison": c.value,
                }
        else:
            details["below_comparison"] = "skipped"

    if witness is not None:
        witness.update(
            {"p": lottery_to_json(p), "q": lottery_to_json(q), "r": lottery_to_json(r)}
        )
    return ClaimReport(
        claim="V",
        passed=witness is None,
        trials=1,
        skipped=0,
        queries_used=oracle.query_count - start,
        witness=witness,
        details=details,
    )


def check_claim_v(
    oracle: PreferenceOracle,
    triples: Iterable[tuple[Lottery, Lottery, Lottery]],
    tol=1e-9,
    max_iter: int = 200,
) -> ClaimReport:
    """Run :func:`verify_claim_v` on each sampled triple once strictly ordered.

    A triple with a tie counts as skipped. The first failing triple's
    witness ends the run. ``queries_used`` covers the sorting queries too.
    A :class:`PreconditionViolated` from the bisection (an intransitive
    oracle) propagates.
    """
    start = oracle.query_count
    trials = skipped = 0
    witness = None
    for triple in triples:
        ordered = strict_order(oracle, *triple)
        if ordered is None:
            skipped += 1
            continue
        trials += 1
        witness = verify_claim_v(oracle, *ordered, tol=tol, max_iter=max_iter).witness
        if witness is not None:
            break
    return ClaimReport(
        claim="V",
        passed=witness is None,
        trials=trials,
        skipped=skipped,
        queries_used=oracle.query_count - start,
        witness=witness,
    )
