"""Finite-outcome lotteries: construction, mixing, and expected utility.

A lottery is a probability distribution over a fixed finite outcome space.
All values here are immutable and all operations are pure: mixing two
lotteries returns a third, it never mutates.

Arithmetic is always exact: probabilities and utilities are
:class:`fractions.Fraction` values, and a lottery is a tuple of int
numerators over one denominator, so mixing and expected utility run on ints.
Float inputs are read as the decimal they print as, so ``0.3`` becomes
``3/10``, not the nearest binary float.

Each :class:`OutcomeSpace` carries a mode, ``rational`` or ``float``, which
is only a rule for reading and printing numbers. In float mode a lottery
whose entries sum to within ``FLOAT_SUM_TOL`` of one is divided by its exact
sum, and reports print numbers as JSON floats (see :mod:`vnm.jsonio`).
Rational mode requires a sum of exactly one and prints ``"n/d"`` strings.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import (
    AlphaOutOfRange,
    LengthMismatch,
    NegativeProbability,
    NonFiniteProbability,
    NonFiniteUtility,
    SpaceMismatch,
    SumNotOne,
    UnknownOutcome,
)

RATIONAL = "rational"
FLOAT = "float"

# float mode reads a lottery whose exact sum is within this of 1
FLOAT_SUM_TOL = Fraction(1, 10**12)

# a numeric string's decimal exponent; past Python's own limit on the digits
# of an int string, expanding it exactly would take unbounded time
_EXPONENT = re.compile(r"[eE]\s*([-+]?\d+(?:_\d+)*)\s*$")
MAX_EXPONENT = sys.int_info.default_max_str_digits


def _digit_ratio(text: str) -> Optional[tuple[int, int]]:
    """``(n, d)`` for a string of decimal digits, or two of them around one ``/``."""
    num, slash, den = text.partition("/")
    if num.isdecimal() and (den.isdecimal() or not slash):
        return int(num), int(den) if slash else 1
    return None


def coerce_number(value) -> Fraction:
    """Read ``value`` as an exact number.

    Accepts ints, Fractions, strings like ``"3/10"`` or ``"0.3"``, and
    finite floats. Floats are converted through their shortest decimal
    repr, so a literal written as ``0.7`` means exactly 7/10. Bools, None,
    containers, NaN, infinities and strings with a decimal exponent beyond
    ``MAX_EXPONENT`` in magnitude raise ``ValueError``.

    A string of decimal digits, or two of them around one ``/``, is read
    with ``int()`` directly; the result equals ``Fraction(value)``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        if isinstance(value, str):
            if ratio := _digit_ratio(value):
                return Fraction(*ratio)
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ValueError(f"exponent of {value!r} is beyond ±{MAX_EXPONENT}")
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"cannot represent {value} as a rational")
            value = str(value)
        return Fraction(value)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot read {value!r} as a number: {exc}") from None


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered tuple of distinct outcome labels plus an arithmetic mode."""

    labels: tuple[str, ...]
    mode: str = RATIONAL

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 1:
            raise ValueError("outcome space needs at least one outcome")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be distinct")
        if self.mode not in (RATIONAL, FLOAT):
            raise ValueError(f"mode must be {RATIONAL!r} or {FLOAT!r}, got {self.mode!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def exact(self) -> bool:
        return self.mode == RATIONAL

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownOutcome(label) from None


def _over_one_denominator(values: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``, in lowest terms.

    Each value is in lowest terms, so their least common denominator is too.
    """
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class Lottery:
    """A probability distribution over an outcome space.

    Invariants, checked at construction by :func:`new_lottery`'s reader:
    one probability per outcome, every entry finite and nonnegative,
    entries summing to one (exactly in rational mode; in float mode a sum
    within ``FLOAT_SUM_TOL`` of one is divided out).

    The lottery is stored as int numerators ``nums`` over one positive
    denominator ``den``, in lowest terms; ``probs`` is a ``Fraction`` view
    built on first use and then kept. Instances are immutable.
    """

    def __init__(self, space: OutcomeSpace, probs: Iterable):
        self.__post_init__(space, probs)

    def __post_init__(self, space: OutcomeSpace, probs: Iterable):
        """Read ``probs`` with :func:`new_lottery`'s one pass.

        A method of its own, apart from ``__init__``, so that a tracer can time it.
        """
        self.__dict__.update(new_lottery(space, probs).__dict__)

    @classmethod
    def _exact(cls, space: OutcomeSpace, nums: tuple[int, ...], den: int) -> Lottery:
        """A lottery from nonnegative ints summing to ``den > 0``.

        Trusted: nothing is validated. One gcd brings it to lowest terms.
        """
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        lot = object.__new__(cls)
        lot.__dict__.update(space=space, nums=nums, den=den)
        return lot

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """Built from ``(nums, den)`` on first use."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def key(self) -> tuple:
        """``(nums, den)``: equal iff the probabilities are."""
        return self.nums, self.den

    def __eq__(self, other):
        if not isinstance(other, Lottery):
            return NotImplemented
        return self.space == other.space and self.key == other.key

    def __hash__(self):
        return hash((self.space, self.key))

    def __repr__(self):
        return f"Lottery(space={self.space!r}, probs={self.probs!r})"

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def support(self) -> tuple[str, ...]:
        """Labels carrying mass."""
        return tuple(x for x, n in zip(self.space.labels, self.nums) if n)


def new_lottery(space: OutcomeSpace, probs: Iterable) -> Lottery:
    """Build a lottery, reading each entry with one pass.

    A string of decimal digits, or two of them around one ``/`` with a
    nonzero denominator, becomes the ints ``(n, d)`` at once; a NaN or
    infinite float is a :class:`NonFiniteProbability`; any other value goes
    through :func:`coerce_number`, whose ``ValueError`` ends the pass. Then
    the length is checked, then the first negative or non-finite entry is
    reported, then the sum, on ints over one common denominator: exactly
    one in rational mode, within ``FLOAT_SUM_TOL`` of one in float mode,
    where the entries are then divided by their exact sum. No ``Fraction``
    is built on the way.
    """
    nums: list[int] = []
    dens: list[int] = []
    bad = None  # (index, value) of the first negative or non-finite entry
    for v in probs:
        if isinstance(v, str) and (ratio := _digit_ratio(v)) and ratio[1] != 0:
            n, d = ratio
        elif isinstance(v, float) and not math.isfinite(v):
            if bad is None:
                bad = (len(nums), v)
            n, d = 0, 1
        else:
            x = coerce_number(v)
            if x < 0 and bad is None:
                bad = (len(nums), x)
            n, d = x.numerator, x.denominator
        nums.append(n)
        dens.append(d)
    if len(nums) != space.size:
        raise LengthMismatch(space.size, len(nums))
    if bad is not None:
        i, x = bad
        raise (NegativeProbability if x < 0 else NonFiniteProbability)(i, x)
    den = math.lcm(*dens)
    nums = [n * (den // d) for n, d in zip(nums, dens)]
    total = sum(nums)
    if total != den:
        if space.exact or not abs(Fraction(total, den) - 1) <= FLOAT_SUM_TOL:
            raise SumNotOne(Fraction(total, den))
        den = total
    return Lottery._exact(space, tuple(nums), den)


def degenerate(space: OutcomeSpace, label: str) -> Lottery:
    """The lottery that yields ``label`` with certainty."""
    i = space.index(label)
    return Lottery._exact(space, tuple(int(j == i) for j in range(space.size)), 1)


def mix(p: Lottery, q: Lottery, alpha) -> Lottery:
    """Convex combination: weight ``alpha`` on ``p``, the rest on ``q``.

    The result assigns ``alpha * p(x) + (1 - alpha) * q(x)`` to each outcome,
    so it is itself a valid lottery over the same space. A NaN or infinite
    weight is out of range.
    """
    if p.space != q.space:
        raise SpaceMismatch()
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise AlphaOutOfRange(alpha)
    a = coerce_number(alpha)
    if not 0 <= a <= 1:
        raise AlphaOutOfRange(a)
    # a = an/ad: each entry is (an*x*q.den + (ad-an)*y*p.den) / (ad*p.den*q.den)
    an, ad = a.numerator, a.denominator
    s, t = an * q.den, (ad - an) * p.den
    nums = tuple(s * x + t * y for x, y in zip(p.nums, q.nums))
    return Lottery._exact(p.space, nums, ad * p.den * q.den)


@dataclass(frozen=True)
class UtilityFunction:
    """A real value per outcome. Values must be finite.

    The values are Fractions and ``_ints`` holds them as ``(nums, den)``,
    int numerators over one denominator.
    """

    space: OutcomeSpace
    values: tuple[Fraction, ...]
    _ints: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) != self.space.size:
            raise LengthMismatch(self.space.size, len(values))
        for x, v in zip(self.space.labels, values):
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteUtility(x, v)
        values = tuple(coerce_number(v) for v in values)
        object.__setattr__(self, "_ints", _over_one_denominator(values))
        object.__setattr__(self, "values", values)

    def value(self, label: str) -> Fraction:
        return self.values[self.space.index(label)]

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)


def new_utility(space: OutcomeSpace, values: Iterable) -> UtilityFunction:
    """Build a utility function, reading each entry with :func:`coerce_number`."""
    return UtilityFunction(space, tuple(values))


def utility_from_mapping(space: OutcomeSpace, mapping: Mapping[str, object]) -> UtilityFunction:
    missing = [x for x in space.labels if x not in mapping]
    if missing:
        raise UnknownOutcome(missing[0])
    extra = [x for x in mapping if x not in space.labels]
    if extra:
        raise UnknownOutcome(extra[0])
    return new_utility(space, (mapping[x] for x in space.labels))


def expected_utility(p: Lottery, u: UtilityFunction) -> Fraction:
    """Probability-weighted sum of utilities, on ints over ``p.den * u``'s denominator.

    Zero-probability outcomes contribute nothing, since their numerator is 0.
    """
    if p.space != u.space:
        raise SpaceMismatch()
    nums, den = u._ints
    return Fraction(sum(map(operator.mul, p.nums, nums)), p.den * den)
