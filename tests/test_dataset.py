"""Dataset validation (contradictions, cycles) and reward-model fitting."""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vnm import (
    OutcomeSpace,
    PrefDataset,
    RewardModel,
    check_independence,
    check_order_axioms,
    dataset_from_json,
    dataset_to_json,
    degenerate,
    fit_reward_model,
    jsonio,
    mix,
    model_fits_data,
    model_from_json,
    model_to_json,
    new_lottery,
    new_utility,
    sampling,
    validate_dataset,
)
import vnm.dataset
from vnm.dataset import _canonical_ids, _find_cycles
from vnm.errors import Infeasible, PreconditionViolated, SpaceMismatch

SPACE3 = OutcomeSpace(("x1", "x2", "x3"))
FSPACE2 = OutcomeSpace(("a", "b"), mode="float")


def deg(label):
    return degenerate(SPACE3, label)


def make(pairs):
    return PrefDataset(SPACE3, tuple(pairs))


class TestValidate:
    def test_single_edge_consistent(self):
        report = validate_dataset(make([(deg("x1"), deg("x2"))]))
        assert report.consistent
        assert report.pair_count == 1
        assert report.distinct_lotteries == 2

    def test_two_cycle_is_both_contradiction_and_cycle(self):
        report = validate_dataset(
            make([(deg("x1"), deg("x2")), (deg("x2"), deg("x1"))])
        )
        assert not report.consistent
        assert report.direct_contradictions == [(0, 1)]
        assert sorted(report.cycles[0]) == [0, 1]

    def test_three_cycle_has_no_direct_contradiction(self):
        report = validate_dataset(
            make(
                [
                    (deg("x1"), deg("x2")),
                    (deg("x2"), deg("x3")),
                    (deg("x3"), deg("x1")),
                ]
            )
        )
        assert not report.consistent
        assert report.direct_contradictions == []
        assert report.cycles == [[0, 1, 2]]

    def test_self_loop_is_a_cycle(self):
        p = new_lottery(SPACE3, (Fraction(1, 2), Fraction(1, 2), 0))
        report = validate_dataset(make([(p, p)]))
        assert report.cycles == [[0]]
        assert not report.consistent

    def test_empty_dataset_is_not_consistent(self):
        report = validate_dataset(make([]))
        assert not report.nonempty
        assert not report.consistent
        assert report.direct_contradictions == []
        assert report.cycles == []

    def test_duplicate_edges_do_not_contradict(self):
        report = validate_dataset(
            make([(deg("x1"), deg("x2")), (deg("x1"), deg("x2"))])
        )
        assert report.consistent
        assert report.distinct_lotteries == 2

    def test_float_mode_identity_is_exact(self):
        # equal probabilities written apart are one node; a lottery 1e-15 away is another
        p = new_lottery(FSPACE2, (0.25, 0.75))
        same = new_lottery(FSPACE2, ("1/4", "3/4"))
        near = new_lottery(FSPACE2, (0.25 + 1e-15, 0.75 - 1e-15))
        q = new_lottery(FSPACE2, (0.75, 0.25))
        assert p.key == same.key != near.key
        report = validate_dataset(PrefDataset(FSPACE2, ((p, q), (q, same), (q, near))))
        assert report.distinct_lotteries == 3
        assert report.direct_contradictions == [(0, 1)]

    def test_space_mismatch_rejected(self):
        other = OutcomeSpace(("x1", "x2", "x3", "x4"))
        with pytest.raises(SpaceMismatch):
            PrefDataset(SPACE3, ((degenerate(other, "x1"), degenerate(other, "x2")),))

    def test_verdict_agrees_with_networkx(self):
        rng = random.Random(77)
        for trial in range(40):
            pool = [sampling.random_lottery(SPACE3, rng, max_denominator=4) for _ in range(6)]
            pairs = []
            for _ in range(rng.randint(1, 8)):
                i, j = rng.randrange(6), rng.randrange(6)
                if trial % 2 == 0 and i >= j:
                    continue  # even trials only feed forward edges: acyclic by construction
                if pool[i].probs == pool[j].probs:
                    continue
                pairs.append((pool[i], pool[j]))
            if not pairs:
                continue
            report = validate_dataset(make(pairs))
            graph = nx.DiGraph()
            for winner, loser in pairs:
                graph.add_edge(winner.probs, loser.probs)
            assert bool(report.cycles) == (not nx.is_directed_acyclic_graph(graph))


class TestFit:
    def test_chain_fit_is_exact(self):
        data = make([(deg("x1"), deg("x2")), (deg("x2"), deg("x3"))])
        model = fit_reward_model(data, margin=Fraction(1, 1000))
        assert model.utility.values == (1, Fraction(1, 2), 0)
        assert model_fits_data(model, data, margin=Fraction(1, 1000)).passed

    def test_mixed_lottery_fit(self):
        rng = random.Random(3)
        u = new_utility(SPACE3, (1, Fraction(2, 5), 0))
        oracle = RewardModel(u).oracle()
        pairs = []
        while len(pairs) < 30:
            p = sampling.random_lottery(SPACE3, rng)
            q = sampling.random_lottery(SPACE3, rng)
            if p.probs == q.probs:
                continue
            pairs.append((p, q) if oracle.pref(p, q) else (q, p))
        data = make(pairs)
        model = fit_reward_model(data, margin=0)
        assert model_fits_data(model, data, margin=0).passed

    def test_empty_dataset_fits_vacuously(self):
        model = fit_reward_model(make([]))
        assert model.utility.values == (0, 0, 0)

    def test_contradiction_blocks_fitting(self):
        data = make([(deg("x1"), deg("x2")), (deg("x2"), deg("x1"))])
        with pytest.raises(PreconditionViolated):
            fit_reward_model(data)

    def test_infeasible_when_midpoint_beats_its_best_outcome(self):
        space = OutcomeSpace(("a", "b"))
        best = degenerate(space, "a")
        worst = degenerate(space, "b")
        mid = new_lottery(space, (Fraction(1, 2), Fraction(1, 2)))
        data = PrefDataset(space, ((best, worst), (mid, best)))
        assert validate_dataset(data).consistent  # acyclic, yet linearly unfittable
        with pytest.raises(Infeasible) as exc:
            fit_reward_model(data, margin=Fraction(1, 1000), max_epochs=60)
        assert exc.value.max_epochs == 60
        assert exc.value.worst  # names the pairs that cannot be satisfied

    def test_default_margin_is_exact_in_rational_mode(self):
        space = OutcomeSpace(("a", "b"))
        a, b = degenerate(space, "a"), degenerate(space, "b")
        mid = new_lottery(space, ("1/2", "1/2"))
        data = PrefDataset(space, ((mid, a), (mid, b)))
        with pytest.raises(Infeasible) as exc:
            fit_reward_model(data, max_epochs=5)
        assert exc.value.worst == [
            {"index": 0, "shortfall": "1/1000"},
            {"index": 1, "shortfall": "1/1000"},
        ]
        check = model_fits_data(RewardModel(new_utility(space, (1, 0))), data, margin=1e-3)
        assert check.witness["margin"] == "1/1000"

    def test_fit_witness_on_failure(self):
        u = new_utility(SPACE3, (0, Fraction(1, 2), 1))
        data = make([(deg("x1"), deg("x3"))])
        check = model_fits_data(RewardModel(u), data)
        assert not check.passed
        assert check.witness["index"] == 0
        assert check.witness["eu_winner"] == "0"

    def test_fitted_model_passes_axiom_checks(self):
        rng = random.Random(21)
        data = make(
            [
                (deg("x1"), deg("x2")),
                (deg("x2"), deg("x3")),
                (new_lottery(SPACE3, (Fraction(1, 2), Fraction(1, 2), 0)), deg("x3")),
            ]
        )
        oracle = fit_reward_model(data, margin=Fraction(1, 1000)).oracle()
        order = check_order_axioms(oracle, sampling.random_triples(SPACE3, rng, 25))
        assert order.passed
        independence = check_independence(oracle, sampling.random_mix_tuples(SPACE3, rng, 25))
        assert independence.passed


class TestJson:
    def test_dataset_round_trip(self):
        data = make(
            [
                (new_lottery(SPACE3, (Fraction(7, 10), Fraction(3, 10), 0)), deg("x3")),
                (deg("x1"), deg("x2")),
            ]
        )
        again = dataset_from_json(dataset_to_json(data))
        assert again == data

    def test_model_round_trip(self):
        model = RewardModel(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
        again = model_from_json(model_to_json(model))
        assert again == model


def reference_ids(dataset):
    """The quadratic first-match grouping: each lottery joins the first
    earlier representative with exactly the same probabilities."""
    representatives, ids = [], []
    for pair in dataset.pairs:
        row = []
        for lot in pair:
            node = next((k for k, rep in enumerate(representatives) if lot.probs == rep.probs), None)
            if node is None:
                node = len(representatives)
                representatives.append(lot)
            row.append(node)
        ids.append(tuple(row))
    return ids


FSPACE3 = OutcomeSpace(("a", "b", "c"), mode="float")
# perturbations of up to three float-mode sum tolerances, in units of 1e-12
STEPS = [sign * x for x in (0, 0.5, 1, 1.5, 2, 3) for sign in (1, -1)]


@st.composite
def near_duplicate_dataset(draw):
    """Float lotteries, each copy of a base moved by 0 to 3e-12 in its first
    two entries (the third absorbs it) and written as floats or as the
    ``"n/d"`` strings of the same floats."""
    bases = []
    for _ in range(draw(st.integers(1, 4))):
        first = draw(st.sampled_from([0.125, 0.25, 0.3, 0.5]))
        second = draw(st.sampled_from([0.125, 0.25, 0.375]))
        bases.append((first, second))
    lotteries = []
    for _ in range(draw(st.integers(2, 10))):
        first, second = draw(st.sampled_from(bases))
        d0, d1 = (draw(st.sampled_from(STEPS)) * 1e-12 for _ in range(2))
        probs = (first + d0, second + d1, (1 - first - second) - d0 - d1)
        if draw(st.booleans()):
            probs = tuple(str(Fraction(repr(x))) for x in probs)
        lotteries.append(new_lottery(FSPACE3, probs))
    index = st.integers(0, len(lotteries) - 1)
    pairs = [
        (lotteries[draw(index)], lotteries[draw(index)])
        for _ in range(draw(st.integers(1, 12)))
    ]
    return PrefDataset(FSPACE3, tuple(pairs))


class TestFloatIdentity:
    """Float-mode identity is exact: the kept graph against a quadratic first-match scan."""

    @given(near_duplicate_dataset())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_quadratic_reference(self, data):
        ids = reference_ids(data)
        assert _canonical_ids(data) == ids
        report = validate_dataset(data)
        assert report.distinct_lotteries == len({n for edge in ids for n in edge})
        assert report.direct_contradictions == [
            (i, j)
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
            if ids[i] == ids[j][::-1]
        ]
        assert report.cycles == _find_cycles(ids)


def reference_fit(dataset, margin, max_epochs):
    """The Fraction perceptron: the fitted values, or (max_epochs, worst)."""
    margin = Fraction(margin)
    pairs = [(w.probs, l.probs) for w, l in dataset.pairs]
    diffs = [tuple(a - b for a, b in zip(w, l)) for w, l in pairs]
    weights = [Fraction(0)] * dataset.space.size
    internal = margin

    def normalized():
        lo, hi = min(weights), max(weights)
        return tuple(Fraction(0) if hi == lo else (w - lo) / (hi - lo) for w in weights)

    def shortfalls(values):
        def eu(probs):
            return sum(p * v for p, v in zip(probs, values))

        return [(eu(l) + margin - eu(w), i) for i, (w, l) in enumerate(pairs)]

    for _ in range(max_epochs):
        updates = 0
        for diff in diffs:
            if not sum(w * d for w, d in zip(weights, diff)) >= internal:
                weights = [w + d for w, d in zip(weights, diff)]
                updates += 1
        if updates == 0:
            values = normalized()
            if all(s <= 0 for s, _ in shortfalls(values)):
                return values
            internal = internal * 2 if internal > 0 else Fraction(1)
    violated = sorted((t for t in shortfalls(normalized()) if t[0] > 0), key=lambda t: (-t[0], t[1]))
    return max_epochs, [{"index": i, "shortfall": str(s)} for s, i in violated[:5]]


@st.composite
def acyclic_rational_dataset(draw):
    """Distinct lotteries with mixed denominators, pairs only forward in a random order."""
    n = draw(st.integers(2, 4))
    space = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
    weights = st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any)
    pool = {}
    for w in draw(st.lists(weights, min_size=2, max_size=6)):
        lot = new_lottery(space, [Fraction(x, sum(w)) for x in w])
        pool.setdefault(lot.key, lot)
    assume(len(pool) >= 2)
    lots = draw(st.permutations(list(pool.values())))
    if len(lots) >= 3 and draw(st.booleans()):
        # a midpoint recorded above both its components: consistent, never fittable
        mid = mix(lots[0], lots[1], Fraction(1, 2))
        if mid.key not in pool:
            lots = [mid] + lots
    pairs = []
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, len(lots) - 2))
        pairs.append((lots[i], lots[draw(st.integers(i + 1, len(lots) - 1))]))
    margin = draw(st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 20)]))
    return PrefDataset(space, tuple(pairs)), margin, draw(st.integers(1, 40))


class TestIntegerPerceptron:
    """The int perceptron of rational mode against the Fraction one."""

    @given(acyclic_rational_dataset())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, case):
        data, margin, max_epochs = case
        try:
            got = fit_reward_model(data, margin=margin, max_epochs=max_epochs).utility.values
        except Infeasible as exc:
            got = (exc.max_epochs, exc.worst)
        assert got == reference_fit(data, margin, max_epochs)


class TestValidateOnce:
    """The identity graph is worked out once per dataset; reports stay fresh."""

    def test_reports_are_equal_but_distinct(self):
        a, b, c = deg("x1"), deg("x2"), deg("x3")
        data = make([(a, b), (b, a), (b, c), (c, a)])
        first = validate_dataset(data)
        assert first.direct_contradictions and first.cycles
        expected = validate_dataset(make(data.pairs))
        first.direct_contradictions.append((7, 8))
        first.cycles[0].append(9)
        first.cycles.append([9])
        second = validate_dataset(data)
        assert second is not first and second == expected

    def test_fit_reads_the_graph_validation_built(self, monkeypatch):
        calls = []

        def counted(dataset):
            calls.append(dataset)
            return _canonical_ids(dataset)

        monkeypatch.setattr(vnm.dataset, "_canonical_ids", counted)
        data = make([(deg("x1"), deg("x2")), (deg("x2"), deg("x3"))])
        assert validate_dataset(data).consistent
        fit_reward_model(data, margin=Fraction(1, 20))
        assert len(calls) == 1


def reference_fits(model, data, margin):
    """``model_fits_data``'s verdict and witness, computed on Fractions."""
    mode, values = data.space.mode, model.utility.values
    for index, (w, l) in enumerate(data.pairs):
        eu_w = sum(p * v for p, v in zip(w.probs, values))
        eu_l = sum(p * v for p, v in zip(l.probs, values))
        if not eu_w - eu_l >= margin:
            return False, {
                "index": index,
                "winner": jsonio.lottery_to_json(w),
                "loser": jsonio.lottery_to_json(l),
                "eu_winner": jsonio.number_to_json(eu_w, mode),
                "eu_loser": jsonio.number_to_json(eu_l, mode),
                "margin": jsonio.number_to_json(margin, mode),
            }
    return True, None


def in_mode(data, mode):
    """The same dataset read in ``mode``."""
    return dataset_from_json(dataset_to_json(data), mode)


@st.composite
def utility_case(draw):
    """A consistent dataset in either mode, a utility (constant ones too) and a margin."""
    data, _, _ = draw(acyclic_rational_dataset())
    data = in_mode(data, draw(st.sampled_from(["rational", "float"])))
    n = data.space.size
    values = draw(
        st.one_of(
            st.integers(-50, 50).map(lambda w: [w] * n),
            st.lists(st.fractions(-50, 50, max_denominator=60), min_size=n, max_size=n),
        )
    )
    margin = draw(st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 20), Fraction(-1, 20)]))
    return data, new_utility(data.space, values), margin


class TestIntegerRecheck:
    """``model_fits_data``, the fit's one re-check on ints, against a Fraction reference."""

    @given(utility_case())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, case):
        data, utility, margin = case
        report = model_fits_data(RewardModel(utility), data, margin)
        assert (report.passed, report.witness) == reference_fits(RewardModel(utility), data, margin)

    @pytest.mark.parametrize("margin, passes", [(Fraction(0), True), (Fraction(1, 20), False)])
    def test_constant_weights_are_the_zero_utility(self, margin, passes):
        # constant perceptron weights normalise to the zero utility, whose EU gaps are all 0
        for mode in ("rational", "float"):
            data = in_mode(make([(deg("x1"), deg("x2")), (deg("x2"), deg("x3"))]), mode)
            model = RewardModel(new_utility(data.space, (0, 0, 0)))
            report = model_fits_data(model, data, margin)
            assert (report.passed, report.witness) == reference_fits(model, data, margin)
            assert report.passed is passes
