"""Finite-outcome lotteries: construction, mixing, and expected utility.

A lottery is a probability distribution over a fixed finite outcome space.
All values here are immutable and all operations are pure: mixing two
lotteries returns a third, it never mutates.

Arithmetic runs in one of two modes, fixed per :class:`OutcomeSpace`:

* ``rational``: probabilities and utilities are :class:`fractions.Fraction`
  values and every operation is exact. Float inputs are read as the decimal
  they print as, so ``0.3`` becomes ``3/10``, not the nearest binary float.
  Internally a lottery is a tuple of int numerators over one denominator,
  so mixing and expected utility run on ints.
* ``float``: plain IEEE doubles, for large sweeps where exactness is not
  worth the cost. Probability sums are accepted within ``1e-12``.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

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

# |sum(probs) - 1| must stay below this in float mode
FLOAT_SUM_TOL = 1e-12
# float-mode support threshold: entries at or below this count as zero
FLOAT_SUPPORT_TOL = 1e-15

Numeric = Union[Fraction, float]

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


def coerce_number(value, mode: str) -> Numeric:
    """Convert ``value`` to the arithmetic type of ``mode``.

    Rational mode accepts ints, Fractions, strings like ``"3/10"`` or
    ``"0.3"``, and floats. Floats are converted through their shortest
    decimal repr, so a literal written as ``0.7`` means exactly 7/10.
    Bools, None, containers, values that do not fit the mode and strings
    with a decimal exponent beyond ``MAX_EXPONENT`` in magnitude raise
    ``ValueError``.

    A string of decimal digits, or two of them around one ``/``, is read
    with ``int()`` directly; the result equals ``Fraction(value)`` or
    ``float(Fraction(value))``, since int division is correctly rounded.
    """
    if isinstance(value, bool) or not isinstance(value, (str, Fraction, int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        if isinstance(value, str):
            if ratio := _digit_ratio(value):
                n, d = ratio
                if mode == RATIONAL:
                    return Fraction(n, d)
                if mode == FLOAT and d:
                    return n / d
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ValueError(f"exponent of {value!r} is beyond ±{MAX_EXPONENT}")
        if mode == RATIONAL:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise ValueError(f"cannot represent {value} as a rational")
                return Fraction(str(value))
            return Fraction(value)  # an int or a string
        if mode == FLOAT:
            if isinstance(value, str):
                return float(Fraction(value))
            return float(value)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot read {value!r} as a number: {exc}") from None
    raise ValueError(f"unknown arithmetic mode: {mode!r}")


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

    def zero(self) -> Numeric:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Numeric:
        return Fraction(1) if self.exact else 1.0


def _over_one_denominator(values: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``, in lowest terms.

    Each value is in lowest terms, so their least common denominator is too.
    """
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class Lottery:
    """A probability distribution over an outcome space.

    Invariants, checked at construction: one probability per outcome, every
    entry finite and nonnegative, entries summing to one (exactly in
    rational mode, within ``FLOAT_SUM_TOL`` in float mode).

    In rational mode the lottery is stored as int numerators ``nums`` over
    one positive denominator ``den``, in lowest terms; ``probs`` is a
    ``Fraction`` view built on first use and then kept. In float mode
    ``probs`` holds the floats and ``nums`` and ``den`` are None. Instances
    are immutable.
    """

    def __init__(self, space: OutcomeSpace, probs: Iterable[Numeric]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "probs", tuple(probs))
        self.__post_init__()

    def __post_init__(self):
        """Validate the entries; in rational mode also store ``(nums, den)``.

        A method of its own, apart from ``__init__``, so that a tracer can time it.
        """
        probs = self.probs
        if len(probs) != self.space.size:
            raise LengthMismatch(self.space.size, len(probs))
        # chained comparisons, so NaN and infinities fail without math.isfinite
        for i, v in enumerate(probs):
            if not 0 <= v < math.inf:
                raise (NegativeProbability if v < 0 else NonFiniteProbability)(i, v)
        if not self.space.exact:
            total = sum(probs)
            if not abs(total - 1.0) <= FLOAT_SUM_TOL:
                raise SumNotOne(total)
            object.__setattr__(self, "nums", None)
            object.__setattr__(self, "den", None)
            return
        probs = tuple(coerce_number(v, RATIONAL) for v in probs)
        nums, den = _over_one_denominator(probs)
        if sum(nums) != den:
            raise SumNotOne(Fraction(sum(nums), den))
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _exact(cls, space: OutcomeSpace, nums: tuple[int, ...], den: int) -> Lottery:
        """A rational lottery from nonnegative ints summing to ``den > 0``.

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
    def probs(self) -> tuple[Numeric, ...]:
        """Built from ``(nums, den)`` on first use; set at construction otherwise."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def key(self) -> tuple:
        """``(nums, den)``, or ``probs`` in float mode: equal iff the probabilities are."""
        return self.probs if self.den is None else (self.nums, self.den)

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
        """Labels carrying mass. Float mode ignores dust below 1e-15."""
        if self.space.exact:
            return tuple(x for x, n in zip(self.space.labels, self.nums) if n)
        return tuple(
            x for x, v in zip(self.space.labels, self.probs) if v > FLOAT_SUPPORT_TOL
        )


def new_lottery(space: OutcomeSpace, probs: Iterable) -> Lottery:
    """Build a lottery, coercing each entry to the space's arithmetic mode.

    One pass reads every entry. In rational mode a string of decimal digits,
    or two of them around one ``/`` with a nonzero denominator, becomes the
    ints ``(n, d)`` at once; any other value, and every value in float mode,
    goes through :func:`coerce_number`, which reads such a string as
    ``n / d``. Rational mode then checks the sum on ints over one common
    denominator and builds no ``Fraction``. The result and every error equal
    those of ``Lottery(space, [coerce_number(v, mode) for v in probs])``.
    """
    exact = space.exact
    nums: list = []  # float mode: the entries themselves
    dens: list[int] = []
    bad = None  # (index, value) of the first negative or non-finite entry
    for v in probs:
        if exact and isinstance(v, str) and (ratio := _digit_ratio(v)) and ratio[1] != 0:
            nums.append(ratio[0])
            dens.append(ratio[1])
            continue
        x = coerce_number(v, space.mode)
        if not 0 <= x < math.inf and bad is None:
            bad = (len(nums), x)
        if exact:
            nums.append(x.numerator)
            dens.append(x.denominator)
        else:
            nums.append(x)
    if len(nums) != space.size:
        raise LengthMismatch(space.size, len(nums))
    if bad is not None:
        i, x = bad
        raise (NegativeProbability if x < 0 else NonFiniteProbability)(i, x)
    if not exact:
        total = sum(nums)
        if not abs(total - 1.0) <= FLOAT_SUM_TOL:
            raise SumNotOne(total)
        lot = object.__new__(Lottery)
        lot.__dict__.update(space=space, probs=tuple(nums), nums=None, den=None)
        return lot
    den = math.lcm(*dens)
    nums = [n * (den // d) for n, d in zip(nums, dens)]
    total = sum(nums)
    if total != den:
        raise SumNotOne(Fraction(total, den))
    return Lottery._exact(space, tuple(nums), den)


def degenerate(space: OutcomeSpace, label: str) -> Lottery:
    """The lottery that yields ``label`` with certainty."""
    i = space.index(label)
    if space.exact:
        return Lottery._exact(space, tuple(int(j == i) for j in range(space.size)), 1)
    return Lottery(space, tuple(float(j == i) for j in range(space.size)))


def mix(p: Lottery, q: Lottery, alpha) -> Lottery:
    """Convex combination: weight ``alpha`` on ``p``, the rest on ``q``.

    The result assigns ``alpha * p(x) + (1 - alpha) * q(x)`` to each outcome,
    so it is itself a valid lottery over the same space.
    """
    if p.space != q.space:
        raise SpaceMismatch()
    a = coerce_number(alpha, p.space.mode)
    if not 0 <= a <= 1:
        raise AlphaOutOfRange(a)
    if p.space.exact:
        # a = an/ad: each entry is (an*x*q.den + (ad-an)*y*p.den) / (ad*p.den*q.den)
        an, ad = a.numerator, a.denominator
        s, t = an * q.den, (ad - an) * p.den
        nums = tuple(s * x + t * y for x, y in zip(p.nums, q.nums))
        return Lottery._exact(p.space, nums, ad * p.den * q.den)
    b = 1.0 - a
    return Lottery(p.space, tuple(a * x + b * y for x, y in zip(p.probs, q.probs)))


@dataclass(frozen=True)
class UtilityFunction:
    """A real value per outcome. Values must be finite.

    In rational mode the values are Fractions and ``_ints`` holds them as
    ``(nums, den)``, int numerators over one denominator.
    """

    space: OutcomeSpace
    values: tuple[Numeric, ...]
    _ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) != self.space.size:
            raise LengthMismatch(self.space.size, len(values))
        for x, v in zip(self.space.labels, values):
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteUtility(x, v)
        if self.space.exact:
            values = tuple(coerce_number(v, RATIONAL) for v in values)
            object.__setattr__(self, "_ints", _over_one_denominator(values))
        object.__setattr__(self, "values", values)

    def value(self, label: str) -> Numeric:
        return self.values[self.space.index(label)]

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)


def new_utility(space: OutcomeSpace, values: Iterable) -> UtilityFunction:
    """Build a utility function, coercing entries to the space's mode."""
    return UtilityFunction(space, tuple(coerce_number(v, space.mode) for v in values))


def utility_from_mapping(space: OutcomeSpace, mapping: Mapping[str, object]) -> UtilityFunction:
    missing = [x for x in space.labels if x not in mapping]
    if missing:
        raise UnknownOutcome(missing[0])
    extra = [x for x in mapping if x not in space.labels]
    if extra:
        raise UnknownOutcome(extra[0])
    return new_utility(space, (mapping[x] for x in space.labels))


def expected_utility(p: Lottery, u: UtilityFunction) -> Numeric:
    """Probability-weighted sum of utilities over the lottery's support.

    Zero-probability outcomes contribute nothing by construction; the sum
    runs over the support only.
    """
    if p.space != u.space:
        raise SpaceMismatch()
    if p.space.exact:
        nums, den = u._ints
        return Fraction(sum(map(operator.mul, p.nums, nums)), p.den * den)
    total = p.space.zero()
    for pv, uv in zip(p.probs, u.values):
        if pv:
            total += pv * uv
    return total
