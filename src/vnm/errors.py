"""Exception types raised by the lottery, preference, and fitting layers.

Every domain error derives from :class:`VNMError` so callers can catch the
whole family with one clause. Each subclass carries the offending datum as
attributes, not just message text, so failures can be inspected and replayed.
"""

from __future__ import annotations


class VNMError(Exception):
    """Base class for all domain errors in this package."""


class LengthMismatch(VNMError):
    """Probability vector length differs from the outcome space size."""

    def __init__(self, expected: int, actual: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"expected {expected} probabilities, got {actual}")


class NegativeProbability(VNMError):
    """A probability entry is below zero."""

    def __init__(self, index: int, value):
        self.index = index
        self.value = value
        super().__init__(f"probability at index {index} is negative: {value}")


class NonFiniteProbability(VNMError):
    """A probability entry is NaN or infinite."""

    def __init__(self, index: int, value):
        self.index = index
        self.value = value
        super().__init__(f"probability at index {index} is not finite: {value}")


class SumNotOne(VNMError):
    """Probabilities do not sum to one (within the mode's tolerance)."""

    def __init__(self, actual_sum):
        self.actual_sum = actual_sum
        super().__init__(f"probabilities sum to {actual_sum}, not 1")


class UnknownOutcome(VNMError):
    """An outcome label is not part of the outcome space."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown outcome: {label!r}")


class SpaceMismatch(VNMError):
    """Two values built over different outcome spaces were combined."""

    def __init__(self, detail: str = "operands belong to different outcome spaces"):
        super().__init__(detail)


class AlphaOutOfRange(VNMError):
    """A mixing weight lies outside the range required by the operation."""

    def __init__(self, alpha, required: str = "[0, 1]"):
        self.alpha = alpha
        self.required = required
        super().__init__(f"mixing weight {alpha} outside {required}")


class NonFiniteUtility(VNMError):
    """A utility value is NaN or infinite."""

    def __init__(self, label, value):
        self.label = label
        self.value = value
        super().__init__(f"utility for {label!r} is not finite: {value}")


class IncompleteOracle(VNMError):
    """The oracle declined both directions of a comparison."""

    def __init__(self, p, q):
        self.p = p
        self.q = q
        super().__init__("oracle prefers neither lottery; completeness violated")


class OracleFailure(VNMError):
    """An external comparator could not be started or gave no usable answer."""


class BudgetExhausted(VNMError):
    """The oracle's query budget was spent."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"oracle query budget of {budget} exhausted")


class PreconditionViolated(VNMError):
    """Inputs do not satisfy the documented precondition of an operation."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class SearchExhausted(VNMError):
    """A witness search hit its probe limit without succeeding."""

    def __init__(self, max_probes: int, detail: str = ""):
        self.max_probes = max_probes
        msg = f"no witness found within {max_probes} probes"
        super().__init__(msg + (f": {detail}" if detail else ""))


class NoConvergence(VNMError):
    """Bisection failed to shrink the bracket below tolerance."""

    def __init__(self, iterations: int, bracket=None):
        self.iterations = iterations
        self.bracket = bracket
        super().__init__(f"no convergence after {iterations} iterations")


class RankMismatch(VNMError):
    """Two utility functions order some pair of outcomes differently."""

    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"utilities disagree on the ranking of {witness[0]!r} and {witness[1]!r}")


class NotAffine(VNMError):
    """No positive affine map carries one utility onto the other."""

    def __init__(self, witness: tuple):
        self.witness = witness
        label, expected, actual = witness
        super().__init__(
            f"no positive affine transform fits: at {label!r} expected {expected}, got {actual}"
        )


class Infeasible(VNMError):
    """Fitting gave up: no utility satisfied every constraint at the margin."""

    def __init__(self, max_epochs: int, worst: list):
        self.max_epochs = max_epochs
        self.worst = worst
        super().__init__(f"no fit within {max_epochs} epochs; {len(worst)} constraints still violated")
