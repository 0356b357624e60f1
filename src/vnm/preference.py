"""Black-box preference oracles and axiom checking.

An oracle answers weak-preference queries ``pref(p, q)`` ("is p at least as
good as q?") over lotteries on one outcome space. Everything else in this
module is built from that single primitive:

* :func:`compare` derives strict preference and indifference from exactly
  two ``pref`` queries;
* :func:`check_order_axioms`, :func:`check_independence`, and
  :func:`check_classical_independence` test sampled instances of the order
  and independence axioms, reporting a replayable witness on failure;
* :func:`probe_continuity` searches for the two mixture witnesses that the
  continuity axiom promises. Finding them certifies the sampled instance
  only; this is a witness search, not a proof of the axiom.
  :func:`check_continuity` runs it on sampled triples after
  :func:`strict_order` sorts each one.

Every sampled check in the package runs through :func:`run_check`, which
counts checked and skipped instances and queries, stops at the first
witness and returns one :class:`Report`. Checks never prove an axiom: a
passing report means no counterexample was found in the given sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import (
    AlphaOutOfRange,
    BudgetExhausted,
    IncompleteOracle,
    PreconditionViolated,
    SearchExhausted,
    SpaceMismatch,
)
from .jsonio import lottery_to_json, number_to_json, triple_to_json
from .lottery import Lottery, OutcomeSpace, UtilityFunction, expected_utility, mix

from enum import Enum


class Comparison(Enum):
    """Outcome of comparing two lotteries."""

    PREFER_FIRST = "prefer_first"
    PREFER_SECOND = "prefer_second"
    INDIFFERENT = "indifferent"


class PreferenceOracle:
    """A weak-preference comparator with a query counter.

    Subclasses override :meth:`_answer`; alternatively pass ``pref_fn``
    taking two lotteries and returning a bool. The counter increases by one
    per query and never resets. With ``query_budget`` set, the oracle raises
    :class:`BudgetExhausted` once the budget is spent.

    Oracles are expected to answer deterministically within a session;
    everything downstream (witness replay, byte-identical reports) relies
    on that.
    """

    def __init__(
        self,
        space: OutcomeSpace,
        pref_fn: Optional[Callable[[Lottery, Lottery], bool]] = None,
        query_budget: Optional[int] = None,
    ):
        self.space = space
        self._pref_fn = pref_fn
        self.query_budget = query_budget
        self._query_count = 0

    @property
    def query_count(self) -> int:
        return self._query_count

    def pref(self, p: Lottery, q: Lottery) -> bool:
        """Answer whether ``p`` is weakly preferred to ``q``. Counts one query."""
        if p.space != self.space or q.space != self.space:
            raise SpaceMismatch("query lotteries must live on the oracle's space")
        if self.query_budget is not None and self._query_count >= self.query_budget:
            raise BudgetExhausted(self.query_budget)
        self._query_count += 1
        return bool(self._answer(p, q))

    def _answer(self, p: Lottery, q: Lottery) -> bool:
        if self._pref_fn is None:
            raise NotImplementedError("provide pref_fn or override _answer")
        return self._pref_fn(p, q)


class ValueOracle(PreferenceOracle):
    """The preference relation of a value function: ``pref(p, q)`` iff ``value(p) >= value(q)``.

    Subclasses override :meth:`_evaluate`. Each value is computed once per
    distinct lottery and kept in one dict keyed on ``lottery.key``, so equal
    lotteries built apart share an entry. A cache hit still counts a query.
    """

    def __init__(self, space: OutcomeSpace, query_budget: Optional[int] = None):
        super().__init__(space, query_budget=query_budget)
        self._values: dict[tuple, object] = {}

    def value(self, p: Lottery):
        key = p.key
        got = self._values.get(key)
        if got is None:
            got = self._evaluate(p)
            self._values[key] = got
        return got

    def _evaluate(self, p: Lottery):
        raise NotImplementedError("override _evaluate")

    def _answer(self, p: Lottery, q: Lottery) -> bool:
        return self.value(p) >= self.value(q)


class UtilityOracle(ValueOracle):
    """The preference relation induced by a utility function: ``EU(p) >= EU(q)``."""

    def __init__(self, utility: UtilityFunction, query_budget: Optional[int] = None):
        super().__init__(utility.space, query_budget=query_budget)
        self.utility = utility

    def _evaluate(self, p: Lottery):
        return expected_utility(p, self.utility)


def compare(oracle: PreferenceOracle, p: Lottery, q: Lottery) -> Comparison:
    """Classify the pair with exactly two queries: pref(p,q) and pref(q,p).

    Raises :class:`IncompleteOracle` if the oracle declines both directions,
    since a complete relation must accept at least one.
    """
    pq = oracle.pref(p, q)
    qp = oracle.pref(q, p)
    if pq and qp:
        return Comparison.INDIFFERENT
    if pq:
        return Comparison.PREFER_FIRST
    if qp:
        return Comparison.PREFER_SECOND
    raise IncompleteOracle(p, q)


SKIP = object()
"""Returned by a :func:`run_check` test when an instance fails its precondition."""


@dataclass
class Report:
    """Result of one sampled check: an axiom, a claim, a representation or a fit.

    ``checked`` counts instances tested, the violating one included;
    ``skipped`` counts instances whose precondition failed, so a pass with
    ``checked == 0`` is vacuous and ``skipped`` says why. ``witness`` is a
    JSON-ready dict present only on failure; it contains every lottery and
    weight needed to replay the violated instance.
    """

    name: str
    passed: bool
    checked: int
    queries_used: int
    skipped: int = 0
    witness: Optional[dict] = None
    note: str = ""
    details: dict = field(default_factory=dict)

    axiom = claim = property(lambda self: self.name)
    trials = property(lambda self: self.checked)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "skipped": self.skipped,
            "queries_used": self.queries_used,
            "witness": self.witness,
        }
        if self.note:
            out["note"] = self.note
        if self.details:
            out["details"] = self.details
        return out


def run_check(
    name: str,
    oracle: Optional[PreferenceOracle],
    instances: Iterable[tuple],
    test: Callable[..., object],
    note: str = "",
    details: Optional[dict] = None,
) -> Report:
    """Run ``test(*instance)`` on each instance until one is violated.

    ``test`` returns None when the instance held, a witness dict when it
    was violated, or :data:`SKIP` when its precondition failed. The first
    witness ends the run. ``queries_used`` is the oracle's query count
    across the whole run, skipped instances included (0 without an oracle).
    ``details`` may be filled by ``test`` as it runs.
    """
    start = oracle.query_count if oracle is not None else 0
    checked = skipped = 0
    witness = None
    for instance in instances:
        outcome = test(*instance)
        if outcome is SKIP:
            skipped += 1
            continue
        checked += 1
        if outcome is not None:
            witness = outcome
            break
    used = oracle.query_count - start if oracle is not None else 0
    return Report(
        name, witness is None, checked, used, skipped, witness, note, details or {}
    )


def check_order_axioms(
    oracle: PreferenceOracle, triples: Iterable[tuple[Lottery, Lottery, Lottery]]
) -> Report:
    """Test completeness and transitivity on each sampled triple.

    For a triple (p, q, r) all six directed queries are made once, then:
    every unordered pair must be accepted in at least one direction
    (completeness), and every chain ``a >= b >= c`` must close with
    ``a >= c`` (transitivity). The first violation becomes the witness.
    """
    names = ("p", "q", "r")

    def test(*lots):
        table = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    table[(i, j)] = oracle.pref(lots[i], lots[j])
        for i in range(3):
            for j in range(i + 1, 3):
                if not table[(i, j)] and not table[(j, i)]:
                    return {
                        "kind": "completeness",
                        "first": lottery_to_json(lots[i]),
                        "second": lottery_to_json(lots[j]),
                        "roles": [names[i], names[j]],
                    }
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) == 3 and table[(i, j)] and table[(j, k)] and not table[(i, k)]:
                        return {
                            "kind": "transitivity",
                            "first": lottery_to_json(lots[i]),
                            "second": lottery_to_json(lots[j]),
                            "third": lottery_to_json(lots[k]),
                            "roles": [names[i], names[j], names[k]],
                        }
        return None

    return run_check("order", oracle, triples, test)


def _require_mixing_weight(alpha) -> None:
    # independence needs alpha in (0, 1]; mix() itself allows 0
    if alpha <= 0 or alpha > 1:
        raise AlphaOutOfRange(alpha, required="(0, 1]")


def check_independence(
    oracle: PreferenceOracle,
    tuples: Iterable[tuple[Lottery, Lottery, Lottery, object]],
) -> Report:
    """Test the independence axiom on sampled (p, q, r, alpha) instances.

    Whatever relation holds between p and q must also hold between
    ``mix(p, r, alpha)`` and ``mix(q, r, alpha)``: strict preference stays
    strict in the same direction, indifference stays indifference.
    """

    def test(p, q, r, alpha):
        _require_mixing_weight(alpha)
        base = compare(oracle, p, q)
        mixed = compare(oracle, mix(p, r, alpha), mix(q, r, alpha))
        if mixed is base:
            return None
        return {
            "kind": "independence",
            **triple_to_json(p, q, r),
            "alpha": number_to_json(alpha),
            "base_comparison": base.value,
            "mixed_comparison": mixed.value,
        }

    return run_check("independence", oracle, tuples, test)


def check_classical_independence(
    oracle: PreferenceOracle,
    tuples: Iterable[tuple[Lottery, Lottery, Lottery, object]],
) -> Report:
    """Test the biconditional form: p >= q iff the alpha-mixtures with r compare the same way.

    Both directions of the equivalence are asserted, for both query
    orientations, so four raw queries per tuple.
    """

    def test(p, q, r, alpha):
        _require_mixing_weight(alpha)
        mp = mix(p, r, alpha)
        mq = mix(q, r, alpha)
        forward = oracle.pref(p, q)
        forward_mixed = oracle.pref(mp, mq)
        backward = oracle.pref(q, p)
        backward_mixed = oracle.pref(mq, mp)
        if forward == forward_mixed and backward == backward_mixed:
            return None
        return {
            "kind": "classical_independence",
            **triple_to_json(p, q, r),
            "alpha": number_to_json(alpha),
            "pref_p_q": forward,
            "pref_mixed_p_q": forward_mixed,
            "pref_q_p": backward,
            "pref_mixed_q_p": backward_mixed,
        }

    return run_check("classical_independence", oracle, tuples, test)


def _grid(space: OutcomeSpace, max_probes: int, upper: bool):
    # 1/2, 3/4, 7/8, ... approaching 1 from below (upper), else 1/2, 1/4, 1/8, ...
    if space.exact:
        for k in range(1, max_probes + 1):
            yield Fraction(2**k - 1 if upper else 1, 2**k)
    else:
        # cap so the float weight stays strictly inside (0, 1)
        for k in range(1, min(max_probes, 50) + 1):
            yield 1.0 - 0.5**k if upper else 0.5**k


def probe_continuity(
    oracle: PreferenceOracle,
    p: Lottery,
    q: Lottery,
    r: Lottery,
    max_probes: int = 64,
):
    """Search for mixture weights witnessing continuity around q.

    Requires the strict sandwich p > q > r (verified through the oracle
    first; anything weaker is rejected, because when q ties with an
    endpoint no strict witness can exist). Returns ``(alpha, beta)`` with
    ``mix(p, r, alpha) > q`` and ``q > mix(p, r, beta)``, both re-verified
    against the oracle before returning. This certifies the instance; it
    says nothing about other triples.
    """
    def beats(x, y) -> bool:
        return compare(oracle, x, y) is Comparison.PREFER_FIRST

    lots = {"p": p, "q": q, "r": r}
    for a, b in ("pq", "qr", "pr"):
        if not beats(lots[a], lots[b]):
            raise PreconditionViolated(f"continuity probe needs {a} strictly preferred to {b}")

    upper = _grid(oracle.space, max_probes, upper=True)
    alpha = next((a for a in upper if beats(mix(p, r, a), q)), None)
    if alpha is None:
        raise SearchExhausted(max_probes, "no upper witness with mix(p, r, alpha) > q")
    lower = _grid(oracle.space, max_probes, upper=False)
    beta = next((b for b in lower if beats(q, mix(p, r, b))), None)
    if beta is None:
        raise SearchExhausted(max_probes, "no lower witness with q > mix(p, r, beta)")

    # replay both witnesses once more before handing them out
    if not beats(mix(p, r, alpha), q):
        raise SearchExhausted(max_probes, "upper witness did not replay")
    if not beats(q, mix(p, r, beta)):
        raise SearchExhausted(max_probes, "lower witness did not replay")
    return alpha, beta


def strict_order(oracle: PreferenceOracle, p: Lottery, q: Lottery, r: Lottery):
    """Sort a triple strictly best to worst, or return None if any comparison ties.

    An insertion sort of two or three comparisons; it assumes transitivity,
    so for an intransitive oracle the first and last need not compare
    strictly. :func:`probe_continuity` re-checks that pair.
    """
    lots = [p, q, r]
    for i in range(1, 3):
        for j in range(i, 0, -1):
            c = compare(oracle, lots[j - 1], lots[j])
            if c is Comparison.INDIFFERENT:
                return None
            if c is Comparison.PREFER_SECOND:
                lots[j - 1], lots[j] = lots[j], lots[j - 1]
    return lots[0], lots[1], lots[2]


def check_continuity(
    oracle: PreferenceOracle,
    triples: Iterable[tuple[Lottery, Lottery, Lottery]],
    max_probes: int = 64,
) -> Report:
    """Run :func:`probe_continuity` on each sampled triple once strictly ordered.

    Triples with a tie, and triples whose best does not strictly beat their
    worst (possible only for an intransitive oracle, which
    :func:`check_order_axioms` reports), are skipped. The first triple whose
    probe raises :class:`SearchExhausted` is the witness.
    """

    def test(*triple):
        ordered = strict_order(oracle, *triple)
        if ordered is None:
            return SKIP
        try:
            probe_continuity(oracle, *ordered, max_probes=max_probes)
        except PreconditionViolated:
            return SKIP
        except SearchExhausted as exc:
            top, middle, bottom = ordered
            return {
                **triple_to_json(top, middle, bottom),
                "detail": str(exc),
            }
        return None

    return run_check(
        "continuity",
        oracle,
        triples,
        test,
        note="witness search on sampled strict triples, not a proof",
    )
