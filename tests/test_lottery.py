"""Lottery algebra: construction, mixing, expected utility, serialization."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnm import (
    FLOAT,
    RATIONAL,
    Lottery,
    OutcomeSpace,
    degenerate,
    expected_utility,
    jsonio,
    mix,
    new_lottery,
    new_utility,
    utility_from_mapping,
)
from vnm.errors import (
    AlphaOutOfRange,
    LengthMismatch,
    NegativeProbability,
    NonFiniteProbability,
    NonFiniteUtility,
    SpaceMismatch,
    SumNotOne,
    UnknownOutcome,
)
from vnm.lottery import MAX_EXPONENT, coerce_number

from conftest import alpha_strategy, rational_lottery_strategy, utility_values_strategy

SPACE3 = OutcomeSpace(("x1", "x2", "x3"), RATIONAL)

# worked by hand:
#   0.6*0.7 + 0.4*0.2 = 0.50, 0.6*0.3 + 0.4*0.3 = 0.30, 0.6*0.0 + 0.4*0.5 = 0.20
MIX_PQ = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
#   0.6*0.7 + 0.4*0.1 = 0.46, 0.6*0.3 + 0.4*0.1 = 0.22, 0.6*0.0 + 0.4*0.8 = 0.32
MIX_PR = (Fraction(23, 50), Fraction(11, 50), Fraction(8, 25))
#   0.6*0.5 + 0.4*0.1 = 0.34, 0.6*0.2 + 0.4*0.1 = 0.16, 0.6*0.3 + 0.4*0.8 = 0.50
MIX_QR = (Fraction(17, 50), Fraction(4, 25), Fraction(1, 2))
#   0.5*10 + 0.3*5 + 0.2*0 = 6.5
EU_MIX = Fraction(13, 2)


class TestConstruction:
    def test_decimal_literals_are_exact_in_rational_mode(self):
        p = new_lottery(SPACE3, (0.2, 0.5, 0.3))
        assert p.probs == (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))
        assert sum(p.probs) == 1

    def test_fraction_strings(self):
        p = new_lottery(SPACE3, ("1/2", "3/10", "1/5"))
        assert p.probs == MIX_PQ

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne) as exc:
            new_lottery(SPACE3, (0.5, 0.6, 0.0))
        assert exc.value.actual_sum == Fraction(11, 10)

    def test_negative_probability_rejected_with_index(self):
        with pytest.raises(NegativeProbability) as exc:
            new_lottery(SPACE3, (Fraction(3, 2), Fraction(-1, 2), 0))
        assert exc.value.index == 1

    @pytest.mark.parametrize(
        "probs, index",
        [((float("nan"), 1.0), 0), ((0.0, float("nan")), 1), ((float("inf"), 0.0), 0)],
    )
    def test_non_finite_probability_rejected_with_index(self, probs, index):
        with pytest.raises(NonFiniteProbability) as exc:
            new_lottery(OutcomeSpace(("a", "b"), FLOAT), probs)
        assert exc.value.index == index

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            new_lottery(SPACE3, (1, 0))

    def test_degenerate(self):
        d = degenerate(SPACE3, "x2")
        assert d.probs == (0, 1, 0)
        assert d.support() == ("x2",)

    def test_degenerate_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            degenerate(SPACE3, "nope")

    def test_space_needs_distinct_labels(self):
        with pytest.raises(ValueError):
            OutcomeSpace(("a", "a"))
        with pytest.raises(ValueError):
            OutcomeSpace(())

    def test_singleton_space(self):
        s = OutcomeSpace(("only",))
        p = new_lottery(s, (1,))
        assert p.support() == ("only",)

    def test_float_mode_sum_tolerance(self):
        s = OutcomeSpace(("a", "b"), FLOAT)
        Lottery(s, (0.5, 0.5 + 1e-13))  # inside tolerance
        with pytest.raises(SumNotOne):
            Lottery(s, (0.5, 0.51))

    def test_float_mode_support_threshold(self):
        # float entries are read exactly, so any positive entry is in the support
        s = OutcomeSpace(("a", "b", "c"), FLOAT)
        p = Lottery(s, (1.0 - 1e-16, 1e-16, 0.0))
        assert p.probs == (Fraction("0.9999999999999999"), Fraction("1e-16"), 0)
        assert p.support() == ("a", "b")


class TestMix:
    def test_worked_mix_examples(self):
        p = new_lottery(SPACE3, (0.7, 0.3, 0.0))
        q = new_lottery(SPACE3, (0.2, 0.3, 0.5))
        r = new_lottery(SPACE3, (0.1, 0.1, 0.8))
        q2 = new_lottery(SPACE3, (0.5, 0.2, 0.3))
        assert mix(p, q, Fraction(3, 5)).probs == MIX_PQ
        assert mix(p, r, Fraction(3, 5)).probs == MIX_PR
        assert mix(q2, r, Fraction(3, 5)).probs == MIX_QR

    def test_endpoint_weights(self):
        p = new_lottery(SPACE3, (0.7, 0.3, 0.0))
        q = new_lottery(SPACE3, (0.2, 0.3, 0.5))
        assert mix(p, q, 1) == p
        assert mix(p, q, 0) == q

    def test_alpha_out_of_range(self):
        p = degenerate(SPACE3, "x1")
        q = degenerate(SPACE3, "x2")
        for bad in (-0.1, 1.1, Fraction(3, 2)):
            with pytest.raises(AlphaOutOfRange):
                mix(p, q, bad)

    def test_nan_alpha_rejected_in_float_mode(self):
        s = OutcomeSpace(("a", "b"), FLOAT)
        with pytest.raises(AlphaOutOfRange):
            mix(degenerate(s, "a"), degenerate(s, "b"), float("nan"))

    def test_space_mismatch(self):
        other = OutcomeSpace(("y1", "y2", "y3"), RATIONAL)
        with pytest.raises(SpaceMismatch):
            mix(degenerate(SPACE3, "x1"), degenerate(other, "y1"), 0.5)

    @given(
        p=rational_lottery_strategy(SPACE3),
        q=rational_lottery_strategy(SPACE3),
        a=alpha_strategy(),
    )
    def test_closure(self, p, q, a):
        m = mix(p, q, a)
        assert sum(m.probs) == 1
        assert all(v >= 0 for v in m.probs)

    @given(p=rational_lottery_strategy(SPACE3), a=alpha_strategy())
    def test_self_mix_is_identity(self, p, a):
        assert mix(p, p, a) == p

    @given(
        p=rational_lottery_strategy(SPACE3),
        q=rational_lottery_strategy(SPACE3),
        a=alpha_strategy(),
    )
    def test_mix_symmetry(self, p, q, a):
        assert mix(p, q, a) == mix(q, p, 1 - a)


class TestExpectedUtility:
    def test_worked_eu(self):
        m = new_lottery(SPACE3, MIX_PQ)
        u = new_utility(SPACE3, (10, 5, 0))
        assert expected_utility(m, u) == EU_MIX

    def test_space_mismatch(self):
        other = OutcomeSpace(("y1", "y2", "y3"), RATIONAL)
        with pytest.raises(SpaceMismatch):
            expected_utility(degenerate(SPACE3, "x1"), new_utility(other, (1, 2, 3)))

    def test_non_finite_utility_rejected(self):
        s = OutcomeSpace(("a", "b"), FLOAT)
        with pytest.raises(NonFiniteUtility):
            new_utility(s, (1.0, float("inf")))
        with pytest.raises(NonFiniteUtility):
            new_utility(s, (float("nan"), 0.0))

    @given(
        p=rational_lottery_strategy(SPACE3),
        q=rational_lottery_strategy(SPACE3),
        a=alpha_strategy(),
        values=utility_values_strategy(3),
    )
    @settings(deadline=None)
    def test_linearity_exact(self, p, q, a, values):
        u = new_utility(SPACE3, values)
        left = expected_utility(mix(p, q, a), u)
        right = a * expected_utility(p, u) + (1 - a) * expected_utility(q, u)
        assert left == right

    @given(p=rational_lottery_strategy(SPACE3), values=utility_values_strategy(3))
    def test_eu_bounded_by_utility_range(self, p, values):
        u = new_utility(SPACE3, values)
        eu = expected_utility(p, u)
        assert min(values) <= eu <= max(values)

    def test_linearity_float_mode_relative(self):
        s = OutcomeSpace(("a", "b", "c"), FLOAT)
        p = new_lottery(s, (0.2, 0.5, 0.3))
        q = new_lottery(s, (0.6, 0.1, 0.3))
        u = new_utility(s, (11.5, -3.25, 7.75))
        for a in (0.0, 0.123456, 0.5, 0.875, 1.0):
            left = expected_utility(mix(p, q, a), u)
            right = a * expected_utility(p, u) + (1 - a) * expected_utility(q, u)
            assert left == pytest.approx(right, rel=1e-9)

    def test_zero_probability_terms_are_skipped(self):
        # the sum runs over the support, so a zero-weight outcome never contributes
        s = OutcomeSpace(("a", "b"), FLOAT)
        p = Lottery(s, (1.0, 0.0))
        u = new_utility(s, (2.0, 1e308))
        assert expected_utility(p, u) == 2.0


class TestUtilityFunction:
    def test_from_mapping_requires_full_cover(self):
        with pytest.raises(UnknownOutcome):
            utility_from_mapping(SPACE3, {"x1": 1, "x2": 2})
        with pytest.raises(UnknownOutcome):
            utility_from_mapping(SPACE3, {"x1": 1, "x2": 2, "x3": 3, "x4": 4})

    def test_values_follow_space_order(self):
        u = utility_from_mapping(SPACE3, {"x3": 0, "x1": 1, "x2": 2})
        assert u.values == (1, 2, 0)

    def test_is_constant(self):
        assert new_utility(SPACE3, (2, 2, 2)).is_constant()
        assert not new_utility(SPACE3, (2, 2, 3)).is_constant()


class TestJson:
    def test_rational_round_trip(self):
        p = new_lottery(SPACE3, ("1/2", "3/10", "1/5"))
        blob = jsonio.lottery_to_json(p)
        assert blob == {"space": ["x1", "x2", "x3"], "probs": ["1/2", "3/10", "1/5"]}
        assert jsonio.lottery_from_json(blob, space=SPACE3) == p

    def test_float_round_trip(self):
        s = OutcomeSpace(("a", "b"), FLOAT)
        p = new_lottery(s, (0.25, 0.75))
        blob = jsonio.lottery_to_json(p)
        assert blob["probs"] == [0.25, 0.75]
        assert jsonio.lottery_from_json(blob, space=s) == p

    def test_numbers_print_in_the_space_mode(self):
        for value, rational, floating in [
            (Fraction(7, 10), "7/10", 0.7),
            (Fraction(-3), "-3", -3.0),
            (Fraction(10**400, 3), f"{10**400}/3", math.inf),  # beyond the float range
            (Fraction(-(10**400)), f"-{10**400}", -math.inf),
        ]:
            assert jsonio.number_to_json(value, RATIONAL) == rational
            assert jsonio.number_to_json(value, FLOAT) == floating

    def test_lottery_space_mismatch_detected(self):
        blob = {"space": ["a", "b", "c"], "probs": ["1", "0", "0"]}
        with pytest.raises(ValueError):
            jsonio.lottery_from_json(blob, space=SPACE3)

    def test_utility_round_trip(self):
        u = new_utility(SPACE3, (1, "7/10", 0))
        blob = jsonio.utility_to_json(u)
        assert blob["utility"] == {"x1": "1", "x2": "7/10", "x3": "0"}
        assert jsonio.utility_from_json(blob, space=SPACE3) == u

    def test_utility_space_from_key_order(self):
        u = jsonio.utility_from_json({"utility": {"b": "1", "a": "0"}})
        assert u.space.labels == ("b", "a")


@st.composite
def core_case(draw):
    """An outcome space of 1-8 outcomes, two weight vectors (some degenerate), alpha and utility."""
    n = draw(st.integers(1, 8))
    space = OutcomeSpace(tuple(f"x{i}" for i in range(n)), RATIONAL)

    def weights():
        index = st.integers(0, n - 1)
        degenerate_weights = index.map(lambda i: [int(j == i) for j in range(n)])
        spread = st.lists(st.integers(0, 1000), min_size=n, max_size=n).filter(any)
        return draw(st.one_of(degenerate_weights, spread))

    alpha = draw(
        st.one_of(
            st.sampled_from([Fraction(0), Fraction(1)]),
            st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        )
    )
    values = draw(st.lists(st.fractions(max_denominator=1000), min_size=n, max_size=n))
    return space, weights(), weights(), alpha, values


def reference_probs(weights):
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


class TestIntegerCore:
    """The int-numerator core against a plain-Fraction computation."""

    @given(core_case())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, case):
        space, wp, wq, alpha, values = case
        ref_p, ref_q = reference_probs(wp), reference_probs(wq)
        p, q = Lottery(space, ref_p), new_lottery(space, [str(v) for v in ref_q])
        u = new_utility(space, values)
        ref_m = tuple(alpha * x + (1 - alpha) * y for x, y in zip(ref_p, ref_q))

        m = mix(p, q, alpha)
        assert m.probs == ref_m
        assert all(type(v) is Fraction for v in m.probs)
        assert [str(v) for v in m.probs] == [str(v) for v in ref_m]
        assert m.den > 0 and math.gcd(m.den, *m.nums) == 1
        assert expected_utility(m, u) == sum(x * v for x, v in zip(ref_m, values))
        assert expected_utility(p, u) == sum(x * v for x, v in zip(ref_p, values))
        assert m.support() == tuple(x for x, v in zip(space.labels, ref_m) if v > 0)
        rebuilt = Lottery(space, ref_m)
        assert m == rebuilt and hash(m) == hash(rebuilt)
        assert (p == q) == (ref_p == ref_q)
        if p == q:
            assert hash(p) == hash(q)
        assert (m == p) == (ref_m == ref_p)

    @pytest.mark.parametrize(
        "probs, error",
        [
            ((Fraction(1, 2), Fraction(1, 2)), LengthMismatch),
            ((Fraction(3, 2), Fraction(-1, 2), 0), NegativeProbability),
            ((float("nan"), 1, 0), NonFiniteProbability),
            ((0, float("inf"), 0), NonFiniteProbability),
            ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), SumNotOne),
        ],
    )
    def test_public_constructor_still_validates(self, probs, error):
        with pytest.raises(error):
            Lottery(SPACE3, probs)

    @pytest.mark.parametrize("name", ["space", "probs", "nums", "den", "other"])
    def test_instances_are_immutable(self, name):
        p = new_lottery(SPACE3, ("1/2", "1/4", "1/4"))
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(p, name)
        assert p.nums == (2, 1, 1) and p.den == 4

    def test_exponent_bound_in_both_modes(self):
        assert coerce_number(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
        assert coerce_number(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
        for text in (f"1e{MAX_EXPONENT + 1}", f"2.5E-{MAX_EXPONENT + 1}", "1e999999999"):
            with pytest.raises(ValueError):
                coerce_number(text)
            for mode in (RATIONAL, FLOAT):
                with pytest.raises(ValueError):
                    new_utility(OutcomeSpace(("a", "b"), mode), (text, 0))


# ASCII, Arabic-Indic, Devanagari and fullwidth decimal digits: str.isdecimal,
# int() and the \d of Fraction's parser all accept them
DIGITS = "0123456789" + "٠١٢٣٤٥٦٧٨٩" + "०१२३४५६७८९" + "０１２３４５６７８９"


@st.composite
def numeric_text(draw):
    """``"n"`` or ``"n/d"`` with leading zeros, long parts, zero denominators
    and a few strings the plain-digit reading must leave to the full parser."""
    part = st.one_of(
        st.text(DIGITS, min_size=1, max_size=6),
        st.text("0", min_size=1, max_size=3).map(lambda z: z + "7"),
        st.text(DIGITS, min_size=400, max_size=400),
        st.sampled_from(["0", "00", "1", "1²", "①"]),  # digits, but not decimal ones
    )
    text = draw(st.one_of(part, st.tuples(part, part).map("/".join)))
    return draw(
        st.sampled_from(
            [text, text, text, "-" + text, " " + text, text + "/", "/" + text, text + "e2"]
        )
    )


class TestCoerceNumberParity:
    """Strings read as ``Fraction(s)`` reads them, or fail the same way."""

    @given(numeric_text())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_matches_fraction_parser(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            with pytest.raises(ValueError) as err:
                coerce_number(text)
            assert str(exc) in str(err.value)
            return
        got = coerce_number(text)
        assert type(got) is Fraction and got == expected

    @pytest.mark.parametrize("text", ["0/0", "7/0", "007/000"])
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_zero_denominator_is_a_value_error(self, text, mode):
        # the lottery reader of each mode leaves such a string to coerce_number
        message = r"cannot read .*Fraction\(\d+, 0\)"
        with pytest.raises(ValueError, match=message):
            coerce_number(text)
        with pytest.raises(ValueError, match=message):
            new_lottery(OutcomeSpace(("a", "b"), mode), (text, "1"))


def reference_lottery(space, probs):
    """The reading rule step by step on Fractions: read every entry, then
    check the length, the first negative or non-finite entry and the sum."""
    probs = [
        v if isinstance(v, float) and not math.isfinite(v) else coerce_number(v) for v in probs
    ]
    if len(probs) != space.size:
        raise LengthMismatch(space.size, len(probs))
    for i, v in enumerate(probs):
        if not 0 <= v < math.inf:
            raise (NegativeProbability if v < 0 else NonFiniteProbability)(i, v)
    total = sum(probs)
    if total != 1 and (space.mode == RATIONAL or abs(total - 1) > Fraction(1, 10**12)):
        raise SumNotOne(total)
    probs = tuple(v / total for v in probs)
    den = math.lcm(*(v.denominator for v in probs))
    return tuple(v.numerator * (den // v.denominator) for v in probs), den, probs


def decoded(build, space, probs):
    """``(nums, den, probs)`` of the built lottery, or its error's type and message."""
    try:
        p = build(space, probs)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    if isinstance(p, tuple):
        return p
    assert p.key == (p.nums, p.den)
    return p.nums, p.den, p.probs


# entries a caller or a JSON file may hand over, valid or not
ODD_ENTRY = st.one_of(
    numeric_text(),
    st.sampled_from(DIGITS).map(lambda c: c * 4400),
    st.sampled_from(["1/" + "1" * 4400, "1" * 400 + "/1", "1e99999", "0.25", "", "x"]),
    st.integers(-3, 3),
    st.integers(10**400, 10**400 + 1),
    st.fractions(min_value=-2, max_value=2, max_denominator=50),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -0.25, Fraction(-1, 4), "-1/4"]),
    st.booleans(),
    st.none(),
)


@st.composite
def decode_case(draw):
    """A space of 1-4 outcomes and entries: a lottery written in mixed forms, then perturbed."""
    n = draw(st.integers(1, 4))
    space = OutcomeSpace(tuple(f"x{i}" for i in range(n)), draw(st.sampled_from([RATIONAL, FLOAT])))
    weights = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any))
    total, scale = sum(weights), draw(st.integers(1, 3))
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

    def written(w):
        forms = [
            f"{w * scale}/{total * scale}",
            f"00{w}/{total}".translate(arabic),
            Fraction(w, total),
            float(Fraction(w, total)),
        ]
        if w in (0, total):
            forms += [str(w // total), w // total]
        return draw(st.sampled_from(forms))

    probs = [written(w) for w in weights]
    for _ in range(draw(st.integers(0, 2))):
        probs[draw(st.integers(0, n - 1))] = draw(ODD_ENTRY)
    change = draw(st.sampled_from(["none", "none", "none", "none", "append", "drop"]))
    if change == "append":
        probs.append(draw(st.one_of(st.just("0"), ODD_ENTRY)))
    elif change == "drop":
        probs.pop()
    return space, probs


class TestDecodeParity:
    """``new_lottery``'s one pass, and ``Lottery(space, probs)``, against the
    reading rule applied step by step on Fractions."""

    @given(decode_case())
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_matches_two_step_reference(self, case):
        space, probs = case
        expected = decoded(reference_lottery, space, probs)
        assert decoded(new_lottery, space, probs) == expected
        assert decoded(Lottery, space, probs) == expected

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize(
        "probs",
        [
            ["1/2", "1/2", "0", "0"],  # wrong length
            ["1/2", "x", "1/2", "0"],  # a bad entry outranks the wrong length
            ["1/2", Fraction(-1, 2), "1", float("nan")],  # the first bad index is named
            ["1/2", float("inf"), "1/2"],
            [float("nan"), "1", "0"],
            ["1/3", "1/3", "1/4"],  # a sum other than one
            ["1/0", "1", "0"],
            ["1" * 400 + "/1", "0", "0"],  # read exactly in both modes, far from a sum of one
            [True, 0, 0],
            [None, 1, 0],
        ],
    )
    def test_errors_match_reference(self, probs, mode):
        space = OutcomeSpace(SPACE3.labels, mode)
        expected = decoded(reference_lottery, space, probs)
        assert isinstance(expected[0], type) and issubclass(expected[0], Exception)
        assert decoded(new_lottery, space, probs) == expected
        assert decoded(Lottery, space, probs) == expected

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_constructor_reads_like_new_lottery(self, mode):
        space = OutcomeSpace(("a", "b"), mode)
        assert Lottery(space, ("1/2", "1/2")) == new_lottery(space, ("1/2", "1/2"))
        mixed = Lottery(space, (Fraction(1, 2), 0.5))
        assert all(type(v) is Fraction for v in mixed.probs) and mixed.key == ((1, 1), 2)
        with pytest.raises(ValueError, match="expected a number, got None"):
            Lottery(space, (None, 1))


class TestReadingRule:
    """Float mode reads numbers exactly and divides out a sum within 1e-12 of one."""

    @pytest.mark.parametrize("second", [0.500000000001, 0.499999999999, 0.5000000000005])
    def test_float_sum_within_tolerance_is_divided_out(self, second):
        for build in (new_lottery, Lottery):
            p = build(OutcomeSpace(("a", "b"), FLOAT), (0.5, second))
            total = Fraction("0.5") + Fraction(repr(second))
            assert sum(p.probs) == 1
            assert p.probs == (Fraction(1, 2) / total, Fraction(repr(second)) / total)

    @pytest.mark.parametrize("second", [0.50000000001, 0.49999999999])
    def test_float_sum_beyond_tolerance_is_rejected(self, second):
        with pytest.raises(SumNotOne) as exc:
            new_lottery(OutcomeSpace(("a", "b"), FLOAT), (0.5, second))
        assert exc.value.actual_sum == Fraction("0.5") + Fraction(repr(second))

    @pytest.mark.parametrize("second", [0.500000000001, 0.5000000000005])
    def test_rational_sum_must_be_exactly_one(self, second):
        for build in (new_lottery, Lottery):
            with pytest.raises(SumNotOne):
                build(OutcomeSpace(("a", "b"), RATIONAL), (0.5, second))

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize(
        "probs, error",
        [
            ((float("nan"), 1.0), NonFiniteProbability),
            ((0.0, float("inf")), NonFiniteProbability),
            ((float("-inf"), 1.0), NegativeProbability),
            ((1.25, -0.25), NegativeProbability),
            ((Fraction(5, 4), Fraction(-1, 4)), NegativeProbability),
        ],
    )
    def test_bad_entries_keep_their_error_type(self, probs, error, mode):
        for build in (new_lottery, Lottery):
            with pytest.raises(error):
                build(OutcomeSpace(("a", "b"), mode), probs)


class TestLotteryFromJsonSpace:
    """A lottery's own labels are checked against an expected space."""

    SPACE = OutcomeSpace(("a", "b"))

    @pytest.mark.parametrize("mode", [None, RATIONAL, FLOAT])
    def test_equal_labels_decode_on_the_expected_space(self, mode):
        p = jsonio.lottery_from_json({"space": ["a", "b"], "probs": ["1/4", "3/4"]}, self.SPACE, mode)
        assert p.space is self.SPACE and (p.nums, p.den) == ((1, 3), 4)

    @pytest.mark.parametrize("labels", [["b", "a"], ["a"], ["a", "b", "c"]])
    def test_other_labels_are_a_mismatch(self, labels):
        obj = {"space": labels, "probs": ["1"] + ["0"] * (len(labels) - 1)}
        message = f"lottery space {labels} does not match expected ['a', 'b']"
        with pytest.raises(ValueError) as err:
            jsonio.lottery_from_json(obj, self.SPACE)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("ab", "space must be a JSON array of outcome labels"),
            (("a", "b"), "space must be a JSON array of outcome labels"),
            (["a", 1], "space must be a JSON array of outcome labels"),
            ([None, "b"], "space must be a JSON array of outcome labels"),
            (["a", "a"], "outcome labels must be distinct"),
            ([], "outcome space needs at least one outcome"),
        ],
    )
    def test_bad_labels_keep_their_error(self, labels, message):
        with pytest.raises(ValueError) as err:
            jsonio.lottery_from_json({"space": labels, "probs": ["1", "0"]}, self.SPACE)
        assert str(err.value) == message

    def test_labels_that_are_not_strings_keep_their_error(self):
        space = OutcomeSpace((1, 2))
        with pytest.raises(ValueError, match="space must be a JSON array of outcome labels"):
            jsonio.lottery_from_json({"space": [1, 2], "probs": ["1", "0"]}, space)

    def test_invalid_mode_keeps_its_error(self):
        obj = {"space": ["a", "b"], "probs": ["1", "0"]}
        with pytest.raises(ValueError) as err:
            jsonio.lottery_from_json(obj, self.SPACE, mode="decimal")
        assert str(err.value) == "mode must be 'rational' or 'float', got 'decimal'"
