"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from vnm import FLOAT, RATIONAL, Lottery, OutcomeSpace

MAX_DEN = 1000
SRC = str(Path(__file__).resolve().parents[1] / "src")


def rational_lottery_strategy(space: OutcomeSpace):
    """Normalized vectors of numerators over a bounded denominator."""
    n = space.size

    def build(nums):
        total = sum(nums)
        return Lottery(space, tuple(Fraction(v, total) for v in nums))

    return (
        st.lists(st.integers(0, MAX_DEN), min_size=n, max_size=n)
        .filter(lambda nums: sum(nums) > 0)
        .map(build)
    )


def float_lottery_strategy(space: OutcomeSpace):
    n = space.size

    def build(nums):
        total = sum(nums)
        return Lottery(space, tuple(v / total for v in nums))

    return (
        st.lists(st.integers(0, MAX_DEN), min_size=n, max_size=n)
        .filter(lambda nums: sum(nums) > 0)
        .map(build)
    )


def alpha_strategy(include_zero=True, include_one=True):
    lo = 0 if include_zero else 1
    hi = MAX_DEN if include_one else MAX_DEN - 1
    return st.integers(lo, hi).map(lambda k: Fraction(k, MAX_DEN))


def utility_values_strategy(n: int):
    return st.lists(
        st.integers(-1000, 1000).map(lambda k: Fraction(k, 10)), min_size=n, max_size=n
    )


@pytest.fixture
def space3() -> OutcomeSpace:
    return OutcomeSpace(("x1", "x2", "x3"), RATIONAL)


@pytest.fixture
def space2() -> OutcomeSpace:
    return OutcomeSpace(("x1", "x2"), RATIONAL)


@pytest.fixture
def fspace3() -> OutcomeSpace:
    return OutcomeSpace(("x1", "x2", "x3"), FLOAT)


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Child interpreters (`python -m vnm`) import the checkout that pytest's
    `pythonpath` setting puts on sys.path, even when vnm is not installed."""
    with pytest.MonkeyPatch.context() as patch:
        paths = (SRC, os.environ.get("PYTHONPATH"))
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
