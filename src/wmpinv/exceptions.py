"""Exception types raised by the library.

Plain ``ValueError`` is reserved for malformed arguments (wrong shapes,
empty schedules, and similar caller mistakes).  Everything that reflects a
mathematical precondition failing on well-formed input derives from
``WmpError`` so callers can catch the whole family at once.
"""

from __future__ import annotations

import sys

__all__ = [
    "WmpError",
    "WeightError",
    "NonExistentError",
    "NotIdempotentError",
    "NotPositiveSemidefiniteError",
    "NotPositiveOnRangeError",
    "NotSeparatedError",
    "CriteriaDisagreeError",
    "VerificationError",
    "RankFlipWarning",
]


class RankFlipWarning(UserWarning):
    """A limit trace solved a scaled system whose condition number exceeds ``inv_cond_max``.

    The schedule points concerned are listed in ``LimitTrace.rank_flips``;
    the iterates there are unreliable.
    """


def _cond_text(cond: float) -> str:
    """A condition number as failure messages quote it.

    At or above ``1 / eps`` the computed value is rounding noise of an
    exactly singular matrix, so the text names only that verdict.
    """
    if cond * sys.float_info.epsilon >= 1.0:
        return "condition number >= 1/eps, singular to working precision"
    return f"condition number {cond:.6e}"


class WmpError(Exception):
    """Base class for mathematical failures on well-formed input."""


class WeightError(WmpError):
    """A candidate weight is not self-adjoint or not numerically invertible."""


class NonExistentError(WmpError):
    """The weighted pseudoinverse does not exist for the given weights.

    Carries the name of the singular factor and its condition number so
    callers can report which side failed.
    """

    def __init__(self, factor: str, cond: float):
        self.factor = factor
        self.cond = cond
        super().__init__(
            f"weighted pseudoinverse does not exist: factor {factor} is "
            f"numerically singular ({_cond_text(cond)})"
        )


class NotIdempotentError(WmpError):
    """Input to the matched projection is not idempotent within tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"matrix is not idempotent: ||Q^2 - Q|| = {residual:.6e} exceeds tolerance"
        )


class NotPositiveSemidefiniteError(WmpError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""

    def __init__(self, which: str, min_eig: float):
        self.which = which
        self.min_eig = min_eig
        super().__init__(
            f"{which} is not positive semidefinite: smallest eigenvalue {min_eig:.6e}"
        )


class NotPositiveOnRangeError(WmpError):
    """A restriction that must be positive definite fails on its subspace."""

    def __init__(self, which: str, min_eig: float):
        self.which = which
        self.min_eig = min_eig
        super().__init__(
            f"{which} is not positive definite on the required subspace: "
            f"smallest restricted eigenvalue {min_eig:.6e}"
        )


class NotSeparatedError(WmpError):
    """The row spaces of the given pair are not separated."""

    def __init__(self, pq_norm: float):
        self.pq_norm = pq_norm
        super().__init__(
            f"row spaces are not separated: ||P Q|| = {pq_norm:.9f} is not below 1"
        )


class CriteriaDisagreeError(WmpError):
    """The two separation criteria land on opposite sides of their margins.

    ``pq_norm`` is within the margin band of 1 while the invertibility test
    of ``2I - P - Q`` (or vice versa) still passes, so no verdict is safe.
    """

    def __init__(self, pq_norm: float, cond: float):
        self.pq_norm = pq_norm
        self.cond = cond
        super().__init__(
            f"separation criteria disagree near the margin: ||P Q|| = {pq_norm:.12f}, "
            f"cond(2I - P - Q) = {cond:.6e}; refusing a silent verdict"
        )


class VerificationError(WmpError):
    """An internal identity check failed beyond the verification tolerance."""

    def __init__(self, what: str, residual: float, atol: float):
        self.what = what
        self.residual = residual
        self.atol = atol
        super().__init__(
            f"{what}: residual {residual:.6e} exceeds tolerance {atol:.6e}"
        )
