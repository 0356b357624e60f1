"""Pairwise preference datasets: consistency checks and reward-model fitting.

A dataset is a list of (winner, loser) lottery pairs over one outcome
space, the usual raw material of preference learning. Validation looks for
the two ways such data can contradict itself: the same pair recorded in
both directions, and longer strict-preference cycles. Cycle detection goes
beyond pairwise contradiction checking and is reported as such.

Decoding reads each probability once: ``"n/d"`` strings become ints and a
rational lottery is built from them without a ``Fraction``.

Lottery identity is exact on ``(nums, den)`` in rational mode. In float
mode a lottery joins the first earlier lottery within ``FLOAT_EQUALITY_TOL``
in every entry; a dict of cells keyed on the first entry finds it in linear
expected time. A dataset works out this identity graph (node ids, distinct
count, contradictions and cycles) once, on first use, and keeps it, so
validating and then fitting it builds the graph once.

Fitting searches for a utility whose expected-utility ranking reproduces
every pair at a requested margin, via perceptron-style additive updates on
the winner-minus-loser probability vectors. A linear-programming solver
would do the same job; the iterative rule keeps this module dependency-free.
In rational mode the updates, and the re-check of the normalised result,
run on ints over one common denominator, and the margin is read exactly
(``1e-3`` means 1/1000).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import Infeasible, PreconditionViolated, SpaceMismatch
from .jsonio import (
    lottery_from_json,
    lottery_to_json,
    number_to_json,
    space_from_json,
    space_to_json,
    utility_from_json,
    utility_to_json,
)
from .lottery import Lottery, OutcomeSpace, UtilityFunction, coerce_number, expected_utility
from .preference import Report, UtilityOracle, run_check

# float-mode lotteries closer than this componentwise count as the same node
FLOAT_EQUALITY_TOL = 1e-12


class _Graph(NamedTuple):
    """A dataset's lotteries as nodes under dataset identity, its pairs as edges."""

    edges: tuple[tuple[int, int], ...]  # (winner_node, loser_node) per pair
    distinct: int
    contradictions: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PrefDataset:
    """Recorded strict preferences: in every pair the winner beat the loser.

    The identity graph that validation and fitting read is worked out on
    first use and kept, so it is built once per dataset.
    """

    space: OutcomeSpace
    pairs: tuple[tuple[Lottery, Lottery], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(pair) for pair in self.pairs))
        for winner, loser in self.pairs:
            if winner.space != self.space or loser.space != self.space:
                raise SpaceMismatch("dataset pairs must live on the dataset's space")

    @cached_property
    def _graph(self) -> _Graph:
        edges = tuple(_canonical_ids(self))
        by_edge: dict[tuple[int, int], list[int]] = {}
        for i, edge in enumerate(edges):
            by_edge.setdefault(edge, []).append(i)
        contradictions = tuple(
            (i, j)
            for i, (src, dst) in enumerate(edges)
            for j in by_edge.get((dst, src), ())
            if i < j
        )
        return _Graph(
            edges,
            len({n for edge in edges for n in edge}),
            contradictions,
            tuple(map(tuple, _find_cycles(edges))),
        )


@dataclass(frozen=True)
class RewardModel:
    """A utility function read as a preference model: higher EU wins."""

    utility: UtilityFunction

    def oracle(self, query_budget: Optional[int] = None) -> UtilityOracle:
        return UtilityOracle(self.utility, query_budget=query_budget)


def lotteries_equal(p: Lottery, q: Lottery) -> bool:
    """Identity used when grouping dataset rows: exact, or 1e-12 in float mode."""
    if p.space != q.space:
        return False
    if p.space.exact:
        return p.key == q.key
    return all(abs(a - b) <= FLOAT_EQUALITY_TOL for a, b in zip(p.probs, q.probs))


@dataclass
class ValidationReport:
    """What consistency checking found.

    ``direct_contradictions`` lists index pairs (i, j) recorded in both
    directions. ``cycles`` lists strict-preference cycles as lists of pair
    indices; detecting these is an extension over plain pairwise
    contradiction checking. The dataset counts as consistent only when it
    is nonempty and both lists are empty.
    """

    nonempty: bool
    pair_count: int
    distinct_lotteries: int
    direct_contradictions: list[tuple[int, int]]
    cycles: list[list[int]]

    @property
    def consistent(self) -> bool:
        return self.nonempty and not self.direct_contradictions and not self.cycles

    def to_json(self) -> dict:
        return {
            "nonempty": self.nonempty,
            "pair_count": self.pair_count,
            "distinct_lotteries": self.distinct_lotteries,
            "direct_contradictions": [list(c) for c in self.direct_contradictions],
            "cycles": [list(c) for c in self.cycles],
            "consistent": self.consistent,
            "note": "cycle detection extends pairwise contradiction checking",
        }


def _canonical_ids(dataset: PrefDataset) -> list[tuple[int, int]]:
    """Map each pair to (winner_node, loser_node) ids under dataset identity."""
    if dataset.space.exact:
        seen: dict[tuple, int] = {}
        return [
            (seen.setdefault(w.key, len(seen)), seen.setdefault(l.key, len(seen)))
            for w, l in dataset.pairs
        ]
    # float mode: a lottery joins the first representative within tolerance.
    # Cells are 2*tol wide on the first entry, so a match lies in the
    # lottery's own cell or a neighbouring one; each cell lists its
    # representatives in order, so the lowest match over the three is the first.
    width = 2 * FLOAT_EQUALITY_TOL
    representatives: list[Lottery] = []
    cells: dict[int, list[int]] = {}

    def node(lot: Lottery) -> int:
        cell = math.floor(lot.probs[0] / width)
        found = len(representatives)
        for c in (cell - 1, cell, cell + 1):
            for k in cells.get(c, ()):
                if k >= found:
                    break
                if lotteries_equal(lot, representatives[k]):
                    found = k
                    break
        if found == len(representatives):
            representatives.append(lot)
            cells.setdefault(cell, []).append(found)
        return found

    return [(node(w), node(l)) for w, l in dataset.pairs]


def _find_cycles(edge_ids: list[tuple[int, int]]) -> list[list[int]]:
    """All DFS back-edge cycles, each as the list of pair indices along it."""
    adjacency: dict[int, list[tuple[int, int]]] = {}
    nodes: set[int] = set()
    for pair_index, (src, dst) in enumerate(edge_ids):
        adjacency.setdefault(src, []).append((dst, pair_index))
        nodes.add(src)
        nodes.add(dst)

    WHITE, GRAY, BLACK = 0, 1, 2
    state = {n: WHITE for n in nodes}
    cycles: list[list[int]] = []

    for start in sorted(nodes):
        if state[start] != WHITE:
            continue
        state[start] = GRAY
        stack = [(start, iter(adjacency.get(start, ())))]
        path_nodes = [start]
        path_edges: list[int] = []
        while stack:
            node, edge_iter = stack[-1]
            pushed = False
            for nxt, pair_index in edge_iter:
                if state.get(nxt, WHITE) == GRAY:
                    at = path_nodes.index(nxt)
                    cycles.append(path_edges[at:] + [pair_index])
                elif state.get(nxt, WHITE) == WHITE:
                    state[nxt] = GRAY
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    path_nodes.append(nxt)
                    path_edges.append(pair_index)
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                state[node] = BLACK
                path_nodes.pop()
                if path_edges:
                    path_edges.pop()
    return cycles


def validate_dataset(dataset: PrefDataset) -> ValidationReport:
    """Report coverage, direct contradictions, and preference cycles.

    A 2-cycle is a direct contradiction and shows up in both lists; the two
    detectors are independent on purpose. Each call returns a new report
    built from the dataset's kept identity graph.
    """
    graph = dataset._graph
    return ValidationReport(
        nonempty=len(dataset.pairs) > 0,
        pair_count=len(dataset.pairs),
        distinct_lotteries=graph.distinct,
        direct_contradictions=list(graph.contradictions),
        cycles=[list(c) for c in graph.cycles],
    )


def model_fits_data(model: RewardModel, dataset: PrefDataset, margin=0) -> Report:
    """Every winner must beat its loser by at least ``margin`` in EU.

    ``margin`` is read in the dataset's mode, so it is exact in rational mode.
    """
    margin = coerce_number(margin, dataset.space.mode)

    def test(index, pair):
        winner, loser = pair
        eu_w = expected_utility(winner, model.utility)
        eu_l = expected_utility(loser, model.utility)
        if eu_w >= eu_l + margin:
            return None
        return {
            "index": index,
            "winner": lottery_to_json(winner),
            "loser": lottery_to_json(loser),
            "eu_winner": number_to_json(eu_w),
            "eu_loser": number_to_json(eu_l),
            "margin": number_to_json(margin),
        }

    return run_check("fit", None, enumerate(dataset.pairs), test)


def _normalized_fits(weights: list[int], diffs: list[tuple[int, ...]], den: int, margin) -> bool:
    """``model_fits_data`` of the min-max normalised int weights, on ints.

    ``diffs`` are the winner-minus-loser vectors over the common denominator
    ``den``. With ``u = (W - lo) / (hi - lo)`` and every diff summing to zero,
    a pair's EU gap is ``sum(W*d) / ((hi - lo) * den)``. Constant weights
    normalise to the zero utility, whose gaps are all zero.
    """
    lo, hi = min(weights), max(weights)
    if hi == lo:
        return margin <= 0 or not diffs
    need = math.ceil(margin * (hi - lo) * den)
    return all(sum(map(operator.mul, weights, diff)) >= need for diff in diffs)


def fit_reward_model(
    dataset: PrefDataset, margin=1e-3, max_epochs: int = 10000
) -> RewardModel:
    """Find a utility whose EU ranking reproduces every recorded pair.

    Requires a dataset free of contradictions and cycles (checked first; an
    empty dataset fits vacuously with the zero utility). Perceptron-style
    updates walk along violated winner-minus-loser vectors until an epoch
    passes clean; the utility is then min-max normalized to [0, 1] and the
    fit re-checked at the requested margin before it is returned. If
    normalization eats too much of the achieved margin, training resumes at
    a doubled internal margin within the same epoch budget.

    ``margin`` is read in the dataset's mode, so it is exact in rational
    mode. There every lottery is put over one common denominator ``D``: the
    diffs are int vectors, the weights are ``W/D`` with ``W`` an int vector,
    and a score ``sum(W*d)/D**2`` is compared with the margin as an integer
    inequality. The re-check of a converged ``W`` runs on the same ints.
    """
    graph = dataset._graph
    if graph.contradictions or graph.cycles:
        raise PreconditionViolated(
            "dataset is inconsistent: "
            f"{len(graph.contradictions)} contradictions, {len(graph.cycles)} cycles"
        )
    space = dataset.space
    margin = coerce_number(margin, space.mode)
    zero, one = space.zero(), space.one()
    if not dataset.pairs:
        return RewardModel(UtilityFunction(space, tuple([zero] * space.size)))

    if space.exact:
        den = math.lcm(*(lot.den for pair in dataset.pairs for lot in pair))
        diffs = [
            tuple(
                a * (den // winner.den) - b * (den // loser.den)
                for a, b in zip(winner.nums, loser.nums)
            )
            for winner, loser in dataset.pairs
        ]
        weights = [0] * space.size
        scale = den * den
    else:
        diffs = [
            tuple(w - l for w, l in zip(winner.probs, loser.probs))
            for winner, loser in dataset.pairs
        ]
        weights = [zero] * space.size
    internal_margin = margin

    def threshold(m):
        # an int score sum(W*d) reaches m * D**2 iff it reaches its ceiling
        return math.ceil(m * scale) if space.exact else m

    def normalized_model() -> RewardModel:
        lo, hi = min(weights), max(weights)
        if hi == lo:
            values = tuple([zero] * space.size)
        elif space.exact:
            values = tuple(Fraction(w - lo, hi - lo) for w in weights)
        else:
            spread = hi - lo
            values = tuple((w - lo) / spread for w in weights)
        return RewardModel(UtilityFunction(space, values))

    epochs = 0
    bar = threshold(internal_margin)
    while epochs < max_epochs:
        epochs += 1
        updates = 0
        for diff in diffs:
            score = sum(map(operator.mul, weights, diff))
            if not score >= bar:
                weights = [w + d for w, d in zip(weights, diff)]
                updates += 1
        if updates == 0:
            if (
                _normalized_fits(weights, diffs, den, margin)
                if space.exact
                else model_fits_data(normalized_model(), dataset, margin).passed
            ):
                return normalized_model()
            # normalization shrank the slack below the requested margin
            internal_margin = internal_margin * 2 if internal_margin > 0 else one
            bar = threshold(internal_margin)
    candidate = normalized_model()
    violations = []
    for index, (winner, loser) in enumerate(dataset.pairs):
        eu_w = expected_utility(winner, candidate.utility)
        eu_l = expected_utility(loser, candidate.utility)
        shortfall = (eu_l + margin) - eu_w
        if shortfall > 0:
            violations.append((shortfall, index))
    violations.sort(key=lambda t: (-t[0], t[1]))
    worst = [
        {"index": index, "shortfall": number_to_json(shortfall)}
        for shortfall, index in violations[:5]
    ]
    raise Infeasible(max_epochs, worst)


def dataset_to_json(dataset: PrefDataset) -> dict:
    return {
        "space": space_to_json(dataset.space),
        "pairs": [
            {"winner": lottery_to_json(w), "loser": lottery_to_json(l)}
            for w, l in dataset.pairs
        ],
    }


def dataset_from_json(obj, mode: str = "rational") -> PrefDataset:
    if not isinstance(obj, Mapping) or "space" not in obj or not isinstance(obj.get("pairs"), list):
        raise ValueError('dataset must be an object with "space" and a "pairs" array')
    space = space_from_json(obj["space"], mode)
    pairs = []
    for k, entry in enumerate(obj["pairs"]):
        if not isinstance(entry, Mapping) or "winner" not in entry or "loser" not in entry:
            raise ValueError(f'pair {k} must be an object with "winner" and "loser"')
        pairs.append(
            (
                lottery_from_json(entry["winner"], space=space),
                lottery_from_json(entry["loser"], space=space),
            )
        )
    return PrefDataset(space, tuple(pairs))


def model_to_json(model: RewardModel) -> dict:
    return utility_to_json(model.utility)


def model_from_json(obj, mode: str = "rational", space: Optional[OutcomeSpace] = None) -> RewardModel:
    return RewardModel(utility_from_json(obj, space=space, mode=mode))
