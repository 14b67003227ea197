"""Validated self-adjoint invertible weights.

A weight may be indefinite; positive definiteness is recorded as a flag
because several operations (the square-root reduction oracle, the limit
formulas) require it while the core factored formula does not.
"""

from __future__ import annotations

import numpy as np

from .exceptions import WeightError, _cond_text
from .linalg import DEFAULT_TOL, ToleranceConfig, _clears_positive_floor, _self_adjointness, as_matrix

__all__ = ["Weight", "as_weight"]


class Weight:
    """Self-adjoint numerically invertible matrix with a lazily cached inverse.

    Construction symmetrizes inputs whose asymmetry is within
    ``verify_atol`` and rejects anything further from self-adjoint, or
    whose condition number exceeds ``inv_cond_max``.  It makes one
    conjugate transpose, which both checks and symmetrizes, and one
    ``eigvalsh``: the eigenvalues alone decide singularity, ``cond`` and
    ``positive_definite``.  The inverse is built only when first read,
    through the eigendecomposition (the one place an explicit inverse is
    a deliverable), then cached; it is exactly Hermitian.  The core
    formula never reads it: it needs M only through a solve.

    Attributes
    ----------
    matrix : numpy.ndarray
        The symmetrized weight.
    inverse : numpy.ndarray
        Hermitian inverse, computed on first access and cached.
    positive_definite : bool
        True when the smallest eigenvalue clears the invertibility floor.
    cond : float
        2-norm condition number.
    """

    __slots__ = ("matrix", "positive_definite", "cond", "_inverse")

    def __init__(self, matrix, tol: ToleranceConfig = DEFAULT_TOL):
        w = as_matrix(matrix)
        if w.shape[0] != w.shape[1]:
            raise WeightError(f"weight must be square, got shape {w.shape}")
        ok, asym, h = _self_adjointness(w, tol)
        if not ok:
            raise WeightError(
                f"weight is not self-adjoint: ||W - W*|| = {asym:.6e} "
                f"exceeds {tol.verify_atol:.1e}"
            )
        if h.size == 0:
            raise WeightError("weight must be nonempty")
        eigvals = np.linalg.eigvalsh(h)
        smax = float(max(-eigvals[0], eigvals[-1]))  # eigvals ascend
        smin = float(np.abs(eigvals).min())
        if smin == 0.0 or smax / smin > tol.inv_cond_max:
            cond = float("inf") if smin == 0.0 else smax / smin
            raise WeightError(
                f"weight is numerically singular: {_cond_text(cond)} "
                f"exceeds {tol.inv_cond_max:.1e}"
            )
        self.matrix = h
        self.positive_definite = _clears_positive_floor(eigvals, tol)
        self.cond = smax / smin
        self._inverse = None

    @property
    def inverse(self) -> np.ndarray:
        """Hermitian inverse ``V diag(1 / w) V*`` from ``eigh``, built on first read."""
        if self._inverse is None:
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            inv = (eigvecs / eigvals) @ eigvecs.conj().T
            self._inverse = 0.5 * (inv + inv.conj().T)
        return self._inverse

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Weight":
        return cls(np.eye(n, dtype=np.complex128))

    def __repr__(self) -> str:
        kind = "positive definite" if self.positive_definite else "indefinite"
        return f"Weight(dim={self.dim}, {kind}, cond={self.cond:.3e})"


def as_weight(w, tol: ToleranceConfig = DEFAULT_TOL) -> Weight:
    """Pass a ``Weight`` through, or validate a raw matrix into one."""
    if isinstance(w, Weight):
        return w
    return Weight(w, tol)
