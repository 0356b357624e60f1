"""Recovery of the positive affine map between equivalent utilities.

Two utility functions represent the same preferences exactly when one is a
positive affine transform of the other, ``v = alpha * u + beta`` with
``alpha > 0``. :func:`recover_affine` computes the only candidate transform
from the extremes of ``u`` and rejects inputs where no such transform
exists; :func:`verify_affine` independently checks a claimed transform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAffine, PreconditionViolated, RankMismatch, SpaceMismatch
from .jsonio import number_to_json
from .lottery import UtilityFunction
from .preference import Report, run_check


@dataclass(frozen=True)
class AffineTransform:
    """v(x) = alpha * u(x) + beta with a strictly positive slope."""

    alpha: object
    beta: object

    def __post_init__(self):
        if not self.alpha > 0:
            raise PreconditionViolated(f"affine slope must be positive, got {self.alpha}")

    def apply(self, value):
        return self.alpha * value + self.beta


def _checked_tol(u: UtilityFunction, v: UtilityFunction, tol):
    # u and v must share a space; tol defaults to 0 in rational mode, 1e-9 in float mode
    if u.space != v.space:
        raise SpaceMismatch("utilities must share one outcome space")
    return (0 if u.space.exact else 1e-9) if tol is None else tol


def _residual_witness(u: UtilityFunction, v: UtilityFunction, t: AffineTransform):
    # the largest gap and its (outcome, transformed, target); ties go to the first
    rows = [(x, t.apply(uv), vv) for x, uv, vv in zip(u.space.labels, u.values, v.values)]
    worst = max(rows, key=lambda row: abs(row[2] - row[1]))
    return abs(worst[2] - worst[1]), worst


def recover_affine(u: UtilityFunction, v: UtilityFunction, tol=None) -> AffineTransform:
    """The positive affine transform carrying ``u`` onto ``v``.

    The two utilities must rank every pair of outcomes identically
    (including ties); that is checked first and a disagreeing pair raises
    :class:`RankMismatch`. If ``u`` is constant the slope defaults to 1 and
    the offset is the constant gap. Otherwise the slope comes from the
    spread between u's argmax and argmin (ties toward the lower index) and
    the offset anchors the minimum. Residuals beyond ``tol`` (0 in rational
    mode, 1e-9 in float mode) raise :class:`NotAffine`.
    """
    tol = _checked_tol(u, v, tol)

    labels = u.space.labels
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            du = u.values[i] - u.values[j]
            dv = v.values[i] - v.values[j]
            sign_u = (du > 0) - (du < 0)
            sign_v = (dv > 0) - (dv < 0)
            if sign_u != sign_v:
                raise RankMismatch((labels[i], labels[j]))

    if u.is_constant():
        transform = AffineTransform(u.space.one(), v.values[0] - u.values[0])
    else:
        i_max = max(range(len(labels)), key=lambda i: (u.values[i], -i))
        i_min = min(range(len(labels)), key=lambda i: (u.values[i], i))
        alpha = (v.values[i_max] - v.values[i_min]) / (u.values[i_max] - u.values[i_min])
        beta = v.values[i_min] - alpha * u.values[i_min]
        transform = AffineTransform(alpha, beta)

    gap, witness = _residual_witness(u, v, transform)
    if gap > tol:
        raise NotAffine(witness)
    return transform


def verify_affine(
    u: UtilityFunction, v: UtilityFunction, transform: AffineTransform, tol=None
) -> Report:
    """Does ``alpha * u + beta`` reproduce ``v`` within ``tol`` everywhere?

    A :func:`run_check` report with ``details.max_residual``, the largest gap.
    """
    tol = _checked_tol(u, v, tol)
    gap, (label, expected, actual) = _residual_witness(u, v, transform)

    def test():
        if gap <= tol:
            return None
        return {
            "outcome": label,
            "transformed": number_to_json(expected),
            "target": number_to_json(actual),
        }

    return run_check("affine", None, [()], test, details={"max_residual": number_to_json(gap)})
