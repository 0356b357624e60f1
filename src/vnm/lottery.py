"""Finite-outcome lotteries: construction, mixing, and expected utility.

A lottery is a probability distribution over a fixed finite outcome space.
All values here are immutable and all operations are pure: mixing two
lotteries returns a third, it never mutates.

Arithmetic runs in one of two modes, fixed per :class:`OutcomeSpace`:

* ``rational``: probabilities and utilities are :class:`fractions.Fraction`
  values and every operation is exact. Float inputs are read as the decimal
  they print as, so ``0.3`` becomes ``3/10``, not the nearest binary float.
* ``float``: plain IEEE doubles, for large sweeps where exactness is not
  worth the cost. Probability sums are accepted within ``1e-12``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

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


def coerce_number(value, mode: str) -> Numeric:
    """Convert ``value`` to the arithmetic type of ``mode``.

    Rational mode accepts ints, Fractions, strings like ``"3/10"`` or
    ``"0.3"``, and floats. Floats are converted through their shortest
    decimal repr, so a literal written as ``0.7`` means exactly 7/10.
    Bools, None, containers and values that do not fit the mode raise
    ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
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


@dataclass(frozen=True)
class Lottery:
    """A probability distribution over an outcome space.

    Invariants, checked at construction: one probability per outcome, every
    entry finite and nonnegative, entries summing to one (exactly in
    rational mode, within ``FLOAT_SUM_TOL`` in float mode).
    """

    space: OutcomeSpace
    probs: tuple[Numeric, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))
        if len(self.probs) != self.space.size:
            raise LengthMismatch(self.space.size, len(self.probs))
        # negated comparisons so NaN fails them without a per-entry isfinite
        for i, v in enumerate(self.probs):
            if not v >= 0:
                raise (NegativeProbability if v < 0 else NonFiniteProbability)(i, v)
        total = sum(self.probs)
        if self.space.exact:
            if total != 1:
                raise SumNotOne(total)
        elif not abs(total - 1.0) <= FLOAT_SUM_TOL:
            for i, v in enumerate(self.probs):
                if math.isinf(v):
                    raise NonFiniteProbability(i, v)
            raise SumNotOne(total)

    def prob(self, label: str) -> Numeric:
        return self.probs[self.space.index(label)]

    def support(self) -> tuple[str, ...]:
        """Labels carrying mass. Float mode ignores dust below 1e-15."""
        if self.space.exact:
            return tuple(x for x, v in zip(self.space.labels, self.probs) if v > 0)
        return tuple(
            x for x, v in zip(self.space.labels, self.probs) if v > FLOAT_SUPPORT_TOL
        )


def new_lottery(space: OutcomeSpace, probs: Iterable) -> Lottery:
    """Build a lottery, coercing each entry to the space's arithmetic mode."""
    return Lottery(space, tuple(coerce_number(v, space.mode) for v in probs))


def degenerate(space: OutcomeSpace, label: str) -> Lottery:
    """The lottery that yields ``label`` with certainty."""
    i = space.index(label)
    one, zero = space.one(), space.zero()
    return Lottery(space, tuple(one if j == i else zero for j in range(space.size)))


def mix(p: Lottery, q: Lottery, alpha) -> Lottery:
    """Convex combination: weight ``alpha`` on ``p``, the rest on ``q``.

    The result assigns ``alpha * p(x) + (1 - alpha) * q(x)`` to each outcome,
    so it is itself a valid lottery over the same space.
    """
    if p.space != q.space:
        raise SpaceMismatch()
    a = coerce_number(alpha, p.space.mode)
    if a < 0 or a > 1:
        raise AlphaOutOfRange(a)
    b = p.space.one() - a
    return Lottery(p.space, tuple(a * x + b * y for x, y in zip(p.probs, q.probs)))


@dataclass(frozen=True)
class UtilityFunction:
    """A real value per outcome. Values must be finite."""

    space: OutcomeSpace
    values: tuple[Numeric, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.space.size:
            raise LengthMismatch(self.space.size, len(self.values))
        for x, v in zip(self.space.labels, self.values):
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteUtility(x, v)

    def value(self, label: str) -> Numeric:
        return self.values[self.space.index(label)]

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    def as_mapping(self) -> dict[str, Numeric]:
        return dict(zip(self.space.labels, self.values))


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
    total = p.space.zero()
    for pv, uv in zip(p.probs, u.values):
        if pv:
            total += pv * uv
    return total
