"""Seeded random generation of lotteries, mixing weights, and utilities.

Everything takes an explicit :class:`random.Random` so that a fixed seed
reproduces the exact sample. Draws use numerators over a bounded
denominator (default 1000) and then normalize, keeping all downstream
arithmetic exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lottery import Lottery, OutcomeSpace, UtilityFunction, new_utility

DEFAULT_MAX_DENOMINATOR = 1000


def random_lottery(
    space: OutcomeSpace, rng: random.Random, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> Lottery:
    """A lottery with probabilities drawn by normalizing random weights."""
    n = space.size
    while True:
        draws = [rng.randint(0, max_denominator) for _ in range(n)]
        total = sum(draws)
        if total:
            break
    return Lottery._exact(space, tuple(draws), total)


def random_alpha(
    rng: random.Random, max_denominator: int = DEFAULT_MAX_DENOMINATOR, include_one: bool = True
):
    """A mixing weight in (0, 1] (or (0, 1) with ``include_one=False``)."""
    hi = max_denominator if include_one else max_denominator - 1
    return Fraction(rng.randint(1, hi), max_denominator)


def random_utility(
    space: OutcomeSpace,
    rng: random.Random,
    lo: int = -1000,
    hi: int = 1000,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    nonconstant: bool = False,
) -> UtilityFunction:
    """A utility with rational values num/den, num in [lo, hi], den <= max_denominator."""
    while True:
        nums = [rng.randint(lo, hi) for _ in range(space.size)]
        if not nonconstant or space.size == 1 or len(set(nums)) > 1:
            break
    den = rng.randint(1, max_denominator)
    return new_utility(space, tuple(Fraction(n, den) for n in nums))


def _triple(space, rng, max_denominator=DEFAULT_MAX_DENOMINATOR):
    # p, q, r drawn in that order, so a seed gives the same sample everywhere
    p = random_lottery(space, rng, max_denominator)
    q = random_lottery(space, rng, max_denominator)
    return p, q, random_lottery(space, rng, max_denominator)


def random_triples(space: OutcomeSpace, rng: random.Random, count: int, **kw):
    """``count`` independent (p, q, r) triples."""
    return [_triple(space, rng, **kw) for _ in range(count)]


def random_mix_tuples(
    space: OutcomeSpace,
    rng: random.Random,
    count: int,
    include_one: bool = True,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
):
    """``count`` independent (p, q, r, alpha) tuples for independence checks."""
    return [
        (*_triple(space, rng, max_denominator), random_alpha(rng, max_denominator, include_one))
        for _ in range(count)
    ]


def random_claim_tuples(
    space: OutcomeSpace,
    rng: random.Random,
    count: int,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
):
    """``count`` (p, q, r, alpha, beta) tuples with alpha in (0,1), beta in (alpha, 1]."""
    out = []
    for _ in range(count):
        p, q, r = _triple(space, rng, max_denominator)
        a = random_alpha(rng, max_denominator, include_one=False)
        t = random_alpha(rng, max_denominator, include_one=True)
        out.append((p, q, r, a, a + (1 - a) * t))
    return out
