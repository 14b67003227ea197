"""Dense kernels: truncated-SVD pseudoinverse, projectors, rank decisions.

Everything in the package funnels through these helpers so that rank
cutoffs and invertibility thresholds are decided in exactly one place.
All computation is done in complex128.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import RankFlipWarning, VerificationError, WmpError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SvdFactorization",
    "LimitTrace",
    "as_matrix",
    "svd_factor",
    "numerical_rank",
    "mp_inverse",
    "projector_rowspace",
    "operator_norm",
    "condition_number",
    "is_hermitian",
    "is_positive_definite",
    "hermitian_power",
    "solve_linear",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by every operation.

    Parameters
    ----------
    rank_rtol : float or None
        Relative singular-value cutoff for rank decisions.  ``None`` means
        the per-matrix default ``max(rows, cols) * eps``; the cutoff is
        always relative to the largest singular value.
    inv_cond_max : float
        A square matrix counts as numerically invertible when its
        2-norm condition number does not exceed this bound.
    verify_atol : float
        Absolute tolerance for identity verification residuals.
    """

    rank_rtol: float | None = None
    inv_cond_max: float = 1e12
    verify_atol: float = 1e-9

    def __post_init__(self):
        if self.rank_rtol is not None and not (0.0 < self.rank_rtol < 1.0):
            raise ValueError("rank_rtol must lie strictly between 0 and 1")
        # written so that NaN fails each test
        if not self.inv_cond_max > 1.0:
            raise ValueError("inv_cond_max must exceed 1")
        if not self.verify_atol > 0.0:
            raise ValueError("verification tolerances must be positive")

    def rank_rtol_for(self, shape: tuple[int, int]) -> float:
        """Effective relative rank cutoff for a matrix of the given shape."""
        if self.rank_rtol is not None:
            return self.rank_rtol
        return max(shape) * _EPS


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array."""
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _rank_cutoff(sigma_max: float, shape: tuple[int, int], tol: ToleranceConfig) -> float:
    """Absolute singular-value cutoff of every rank decision in the package."""
    return tol.rank_rtol_for(shape) * sigma_max


def _solve_cutoff(sigma: np.ndarray, shape: tuple[int, int]) -> float:
    """Singular values at or below this are dropped by :meth:`SvdFactorization.solve`.

    It is the cutoff of ``numpy.linalg.lstsq(rcond=None)``,
    ``eps * max(rows, cols) * sigma_max``, for nonincreasing ``sigma``.
    """
    return _EPS * max(shape) * (sigma[0] if sigma.size else 0.0)


def _cond(sigma: np.ndarray) -> float:
    if sigma.size == 0:
        return 1.0
    if sigma[-1] == 0.0:
        return float("inf")
    return float(sigma[0] / sigma[-1])


@dataclass(frozen=True)
class SvdFactorization:
    """Economy SVD together with the numerical rank decision.

    ``u`` is rows x k, ``sigma`` is the nonincreasing singular value vector
    of length k = min(rows, cols), ``vh`` is k x cols.  It answers rank,
    pseudoinverse, range and row bases and solves, under two cutoffs:

    - ``rank``, ``pinv`` and the bases count the singular values above
      ``cutoff`` (an absolute threshold), which ``tol.rank_rtol`` sets;
    - ``solve`` drops singular values at or below
      ``eps * max(rows, cols) * sigma_max``, the cutoff of
      ``numpy.linalg.lstsq(rcond=None)``, whatever ``tol`` says, so a
      coarse user ``rank_rtol`` never truncates an invertible system.

    Null-space bases need the full SVD; :func:`_split_basis` makes it.
    """

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray
    rank: int
    cutoff: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.vh.shape[1])

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the numerical range (rows x rank)."""
        return self.u[:, : self.rank]

    @property
    def row_basis(self) -> np.ndarray:
        """Orthonormal basis of the numerical row space (cols x rank)."""
        return self.vh[: self.rank].conj().T

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse with the singular values at or below ``cutoff`` dropped."""
        return (self.row_basis / self.sigma[: self.rank]) @ self.range_basis.conj().T

    def solve(self, b) -> np.ndarray:
        """Minimum-norm least-squares solution of ``a x = b``."""
        bm = as_matrix(b)
        s = self.sigma
        keep = s > _solve_cutoff(s, self.shape)
        return (self.vh[keep].conj().T / s[keep]) @ (self.u[:, keep].conj().T @ bm)


def svd_factor(a, tol: ToleranceConfig = DEFAULT_TOL, *, sigma_floor: float = 0.0) -> SvdFactorization:
    """Economy SVD of ``a`` with the rank cutoff applied.

    ``sigma_floor`` sets an absolute lower bound on retained singular
    values.  The relative cutoff alone misjudges matrices that are exact
    zeros contaminated by rounding (their largest singular value is
    itself noise); callers that know the scale of that noise pass it
    here.
    """
    m = as_matrix(a)
    if m.size == 0:
        k = min(m.shape)
        return SvdFactorization(
            u=np.zeros((m.shape[0], k), dtype=np.complex128),
            sigma=np.zeros(k),
            vh=np.zeros((k, m.shape[1]), dtype=np.complex128),
            rank=0,
            cutoff=0.0,
        )
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = max(_rank_cutoff(s[0], m.shape, tol), sigma_floor)
    rank = int(np.count_nonzero(s > cutoff))
    return SvdFactorization(u=u, sigma=s, vh=vh, rank=rank, cutoff=cutoff)


class SplitBasis(NamedTuple):
    """Full SVD of a matrix cut at the rank cutoff: ``a = u_r diag(sigma_r) v_r*``.

    ``[u_r u_0]`` and ``[v_r v_0]`` are unitary, so ``u_0`` spans the
    orthogonal complement of the range and ``v_0`` the null space.
    """

    u_r: np.ndarray
    u_0: np.ndarray
    sigma_r: np.ndarray
    v_r: np.ndarray
    v_0: np.ndarray

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse ``v_r diag(1 / sigma_r) u_r*``."""
        return (self.v_r / self.sigma_r) @ self.u_r.conj().T


def _split_basis(m: np.ndarray, tol: ToleranceConfig) -> SplitBasis:
    """Range and null-space bases of both sides of ``m`` from one full SVD.

    The rank is decided by the same cutoff as :func:`svd_factor`.
    """
    if m.size:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    else:
        u, vh = (np.eye(k, dtype=np.complex128) for k in m.shape)
        s = np.zeros(0)
    r = int(np.count_nonzero(s > _rank_cutoff(s[0] if s.size else 0.0, m.shape, tol)))
    v = vh.conj().T
    return SplitBasis(u[:, :r], u[:, r:], s[:r], v[:, :r], v[:, r:])


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    return svd_factor(a, tol).rank


def mp_inverse(a, tol: ToleranceConfig = DEFAULT_TOL, *, sigma_floor: float = 0.0) -> np.ndarray:
    """Moore-Penrose inverse via truncated SVD.

    Parameters
    ----------
    a : array_like
        Matrix to invert, any shape including rank deficient.
    tol : ToleranceConfig
        Supplies the relative singular-value cutoff.
    sigma_floor : float, optional
        Absolute cutoff floor, forwarded to :func:`svd_factor`.  Use it
        when ``a`` was produced by a cancellation-prone computation whose
        rounding noise would otherwise be inverted.

    Returns
    -------
    numpy.ndarray
        The unique matrix satisfying the four Penrose identities, computed
        by inverting the retained singular values.
    """
    return svd_factor(a, tol, sigma_floor=sigma_floor).pinv()


def projector_rowspace(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the range of ``a*`` (equals ``A^+ A``)."""
    vr = svd_factor(a, tol).row_basis
    return vr @ vr.conj().T


def operator_norm(a) -> float:
    """Largest singular value; zero for empty matrices.

    It is the values-only SVD that ``numpy.linalg.norm(a, 2)`` runs, so the
    result is bitwise the same, without that function's dispatch.
    """
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


# Below this squared Frobenius norm of a residual, products of its entries
# may lose precision to underflow
_GRAM_FLOOR = 1e-280


def _residual_norm(d: np.ndarray, *, anti_hermitian: bool = False) -> float:
    """Exact 2-norm of ``d`` from Hermitian eigenvalues instead of an SVD.

    An anti-Hermitian ``d`` makes ``1j * d`` exactly Hermitian, whose
    largest eigenvalue magnitude is the norm.  Otherwise the norm is the
    root of the largest eigenvalue of the Gram matrix of the smaller side.
    ``||d||_F^2`` bounds every entry of that Gram matrix, so when it
    overflows, or falls to ``_GRAM_FLOOR`` while ``d`` is not exactly
    zero, the norm is left to the SVD.
    """
    if d.size == 0:
        return 0.0
    if anti_hermitian:
        return float(np.max(np.abs(np.linalg.eigvalsh(1j * d))))
    if not _GRAM_FLOOR < np.vdot(d, d).real < np.inf:
        return operator_norm(d) if d.any() else 0.0
    dh = d.conj().T
    gram = d @ dh if d.shape[0] <= d.shape[1] else dh @ d
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _verify(what: str, resid: float, scale: float, tol: ToleranceConfig) -> None:
    """The package's one verification rule: ``resid`` may not exceed ``verify_atol * scale``.

    Raises ``VerificationError`` naming ``what`` otherwise.
    """
    if resid > tol.verify_atol * scale:
        raise VerificationError(what, resid, tol.verify_atol * scale)


def condition_number(a) -> float:
    """2-norm condition number, ``inf`` when the smallest singular value is 0."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("condition number is defined here for square matrices")
    if m.size == 0:
        return 1.0
    return _cond(np.linalg.svd(m, compute_uv=False))


def _self_adjointness(m: np.ndarray, tol: ToleranceConfig) -> tuple[bool, float]:
    """The package's one self-adjointness rule for a square matrix.

    Returns the verdict ``||m - m*|| <= verify_atol`` (operator norm) and
    the asymmetry itself, which callers quote when they reject ``m``.
    A Frobenius norm of ``m - m*`` within ``verify_atol`` accepts at once
    (and is returned in place of the asymmetry): since
    ``||.||_2 <= ||.||_F``, that cannot change the verdict, and exactly
    self-adjoint input costs O(n^2) instead of an SVD.
    """
    d = m - m.conj().T
    fro = float(np.sqrt(np.vdot(d, d).real))
    if fro <= tol.verify_atol:
        return True, fro
    asym = operator_norm(d)
    return asym <= tol.verify_atol, asym


def _hermitian(a, what: str, tol: ToleranceConfig, dim: int | None = None) -> np.ndarray:
    """The Hermitian part of a self-adjoint input that is not a ``Weight``.

    Raises ``ValueError`` naming ``what`` unless ``a`` is square, of order
    ``dim`` when that is given, and self-adjoint by
    :func:`_self_adjointness`.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim):
        size = "square" if dim is None else f"{dim} x {dim}"
        raise ValueError(f"{what} must be {size}, got shape {m.shape}")
    ok, asym = _self_adjointness(m, tol)
    if not ok:
        raise ValueError(f"{what} must be self-adjoint, asymmetry {asym:.3e}")
    return 0.5 * (m + m.conj().T)


def _clears_positive_floor(w: np.ndarray, tol: ToleranceConfig) -> bool:
    """The positive-definiteness rule on nonempty ascending eigenvalues ``w``.

    The smallest eigenvalue must exceed ``max |w| / inv_cond_max``, so the
    zero matrix is not positive definite.  Only a positive ``w[0]`` can
    pass, and then ``max |w|`` is ``w[-1]``, so one entry is read.
    """
    return bool(w[0] > abs(w[-1]) / tol.inv_cond_max)


def is_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Self-adjoint within ``verify_atol`` in operator norm."""
    m = as_matrix(a)
    return m.shape[0] == m.shape[1] and _self_adjointness(m, tol)[0]


def is_positive_definite(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Hermitian with all eigenvalues above the invertibility floor."""
    m = as_matrix(a)
    if not is_hermitian(m, tol):
        return False
    if m.size == 0:
        return True
    return _clears_positive_floor(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), tol)


def hermitian_power(a, power: float, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Real power of a Hermitian matrix through its eigendecomposition.

    ``a`` must be self-adjoint (``ValueError`` otherwise).  Negative or
    fractional powers require positive eigenvalues; eigenvalues in the
    rounding band below zero are rejected rather than clamped.
    """
    w, v = np.linalg.eigh(_hermitian(a, "hermitian_power input", tol))
    if (power != int(power) or power < 0) and w.size and w[0] <= 0.0:
        raise WmpError(
            f"hermitian_power({power}) needs positive eigenvalues, found {w[0]:.6e}"
        )
    return (v * np.power(w, power)) @ v.conj().T


def solve_linear(a, b) -> np.ndarray:
    """Minimum-norm least-squares solve of ``a x = b`` on the SVD path.

    Callers are responsible for checking that ``a`` is well conditioned;
    this helper never forms an explicit inverse.  Callers that also need
    the condition number of ``a`` keep ``svd_factor(a)`` instead.
    """
    return svd_factor(a).solve(b)


@dataclass
class LimitTrace:
    """Evaluation of a matrix limit along a monotone parameter schedule.

    ``params`` holds the schedule (decreasing for t -> 0 limits, increasing
    for growing-parameter limits), ``iterates[i]`` the matrix at
    ``params[i]``, and ``errors[i]`` its operator-norm distance to
    ``target``.  ``converged`` is true exactly when the final error is at
    most ``limit_atol``.  ``rank_flips`` lists schedule indices where the
    condition number of the scaled system solved for the iterate exceeded
    ``inv_cond_max``, so the iterate there is unreliable.
    """

    params: np.ndarray
    iterates: list[np.ndarray]
    errors: np.ndarray
    target: np.ndarray
    limit_atol: float
    converged: bool
    rank_flips: tuple[int, ...] = field(default_factory=tuple)

    def rows(self):
        """Iterate over (param, iterate, error) triples in schedule order."""
        for t, it, e in zip(self.params, self.iterates, self.errors):
            yield float(t), it, float(e)


def _check_schedule(schedule, *, decreasing: bool) -> np.ndarray:
    s = np.asarray(schedule, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("schedule must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise ValueError("schedule values must be finite and positive")
    diffs = np.diff(s)
    if decreasing and not np.all(diffs < 0.0):
        raise ValueError("schedule must be strictly decreasing")
    if not decreasing and not np.all(diffs > 0.0):
        raise ValueError("schedule must be strictly increasing")
    return s


def _check_atol(atol) -> None:
    """Reject a convergence threshold that is not ``None`` or finite and nonnegative."""
    # written so that NaN fails
    if atol is not None and not 0.0 <= atol < np.inf:
        raise ValueError(f"atol must be finite and nonnegative, got {atol}")


def limit_atol_for(target: np.ndarray) -> float:
    """Convergence tolerance used by every limit trace."""
    return 1e-8 * (1.0 + _residual_norm(target))


def _trace_over(schedule: np.ndarray, step, target, tol: ToleranceConfig, atol=None) -> LimitTrace:
    """The one loop that evaluates a limit along a checked schedule.

    ``step(p)`` returns the iterate at parameter ``p`` and the condition
    number of the system solved for it, or an upper bound on it that does
    not exceed ``inv_cond_max``; points where that exceeds
    ``inv_cond_max`` are recorded as rank flips and reported through one
    ``RankFlipWarning``.  Each error is an exact 2-norm taken from Gram
    eigenvalues (:func:`_residual_norm`).  ``atol`` defaults to
    :func:`limit_atol_for`.
    """
    iterates = []
    errors = np.empty(schedule.size)
    flips = []
    for i, p in enumerate(schedule):
        it, cond = step(float(p))
        iterates.append(it)
        errors[i] = _residual_norm(it - target)
        if cond > tol.inv_cond_max:
            flips.append(i)
    if flips:
        warnings.warn(
            f"the scaled pencil system degenerated at schedule indices {flips}; "
            f"iterates there are unreliable",
            RankFlipWarning,
            stacklevel=3,
        )
    if atol is None:
        atol = limit_atol_for(target)
    return LimitTrace(
        params=schedule,
        iterates=iterates,
        errors=errors,
        target=target,
        limit_atol=atol,
        converged=bool(errors[-1] <= atol),
        rank_flips=tuple(flips),
    )
