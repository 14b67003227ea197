"""Dense kernels: truncated-SVD pseudoinverse, projectors, rank decisions.

Everything in the package funnels through these helpers so that rank
cutoffs and invertibility thresholds are decided in exactly one place: a
rank that needs bases is cut by :func:`svd_factor` or :func:`_split_basis`,
whose one override is the same absolute ``cutoff``.
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
    "mp_inverse",
    "projector_rowspace",
    "operator_norm",
    "condition_number",
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
      ``cutoff`` (an absolute threshold), which ``tol.rank_rtol`` sets
      unless :func:`svd_factor` is given one;
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


def svd_factor(a, tol: ToleranceConfig = DEFAULT_TOL, *, cutoff: float | None = None) -> SvdFactorization:
    """Economy SVD of ``a`` with the rank cutoff of :func:`_split_basis` applied.

    ``cutoff``, an absolute threshold, replaces the relative one of ``tol``
    for a caller that anchors the rank to a scale other than ``sigma_max(a)``.
    """
    m = as_matrix(a)
    if m.size:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    else:
        k = min(m.shape)
        u, s, vh = np.zeros((m.shape[0], k), np.complex128), np.zeros(k), np.zeros((k, m.shape[1]), np.complex128)
    if cutoff is None:
        cutoff = _rank_cutoff(s[0] if m.size else 0.0, m.shape, tol)
    return SvdFactorization(u=u, sigma=s, vh=vh, rank=int(np.count_nonzero(s > cutoff)), cutoff=cutoff)


class SplitBasis(NamedTuple):
    """Full SVD of a matrix cut at the rank cutoff: ``a = u_r diag(sigma_r) v_r*``.

    ``[u_r u_0]`` and ``[v_r v_0]`` are unitary, so ``u_0`` spans the
    orthogonal complement of the range and ``v_0`` the null space.
    ``sigma_next`` is the largest singular value cut off, 0 when none is.
    """

    u_r: np.ndarray
    u_0: np.ndarray
    sigma_r: np.ndarray
    v_r: np.ndarray
    v_0: np.ndarray
    sigma_next: float

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse ``v_r diag(1 / sigma_r) u_r*``."""
        return (self.v_r / self.sigma_r) @ self.u_r.conj().T


def _split_basis(m: np.ndarray, tol: ToleranceConfig, cutoff: float | None = None) -> SplitBasis:
    """Range and null-space bases of both sides of ``m`` from one full SVD.

    The rank is decided by the same cutoff as :func:`svd_factor`, or by
    ``cutoff``, an absolute one, from a caller that anchors it to a scale
    other than ``sigma_max(m)``.
    """
    if m.size:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    else:
        u, vh = (np.eye(k, dtype=np.complex128) for k in m.shape)
        s = np.zeros(0)
    if cutoff is None:
        cutoff = _rank_cutoff(s[0] if s.size else 0.0, m.shape, tol)
    r = int(np.count_nonzero(s > cutoff))
    v = vh.conj().T
    return SplitBasis(u[:, :r], u[:, r:], s[:r], v[:, :r], v[:, r:], float(s[r]) if r < s.size else 0.0)


def mp_inverse(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via truncated SVD.

    Parameters
    ----------
    a : array_like
        Matrix to invert, any shape including rank deficient.
    tol : ToleranceConfig
        Supplies the relative singular-value cutoff.

    Returns
    -------
    numpy.ndarray
        The unique matrix satisfying the four Penrose identities, computed
        by inverting the retained singular values.
    """
    return svd_factor(a, tol).pinv()


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


def _gram_or_norm(d: np.ndarray) -> tuple[np.ndarray | None, float]:
    """The Gram matrix of nonempty ``d`` on its smaller side, or the 2-norm of ``d`` where that Gram is not safe.

    The largest eigenvalue of the Gram matrix is ``||d||^2``.  ``||d||_F^2``
    bounds every entry of it, so when that overflows, or falls to
    ``_GRAM_FLOOR`` while ``d`` is not exactly zero, ``(None, ||d||)`` is
    returned with the norm from the SVD; otherwise ``(gram, 0.0)``.
    """
    if not _GRAM_FLOOR < np.vdot(d, d).real < np.inf:
        return None, (operator_norm(d) if d.any() else 0.0)
    dh = d.conj().T
    return (d @ dh if d.shape[0] <= d.shape[1] else dh @ d), 0.0


def _residual_norm(d: np.ndarray) -> float:
    """Exact 2-norm of ``d`` from Hermitian eigenvalues instead of an SVD.

    The norm is the root of the largest eigenvalue of the Gram matrix of
    the smaller side, or the SVD's where :func:`_gram_or_norm` finds that
    Gram unsafe.
    """
    if d.size == 0:
        return 0.0
    gram, norm = _gram_or_norm(d)
    if gram is None:
        return norm
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the 2-norm."""
    return float(np.sqrt(np.vdot(x, x).real))


def _orthonormality_defect(q: np.ndarray) -> float:
    """An upper bound on ``eta = ||Q* Q - I||_2``, ``inf`` unless every column of ``q`` has norm at most sqrt(2).

    ``fl(Q* Q)`` errs by ``h eps`` in the model of :func:`_projected_norm`,
    as much as the whole budget of the Gram route, so Q is split into
    ``Q_hi + Q_lo`` with the real and imaginary parts of ``Q_hi`` rounded
    to multiples of 2^-20; ``Q_lo`` is exact and at most 2^-21 in each
    part.  Every product of parts of ``Q_hi`` is a multiple of 2^-40, and,
    the columns of ``Q_hi`` having norm below 2 for h < 2^38, by
    Cauchy-Schwarz every partial sum of an entry of ``Q_hi* Q_hi`` (a sum
    of such products over the rows, or a combination of the three real
    products of the 3M scheme) is below 16 in modulus.  Multiples of 2^-40
    below 2^13 are doubles, so that entry and its difference with I are
    exact in any order of summation.  The rest, ``Q_hi* Q_lo + Q_lo* Q``, is of order
    2^-20: its products err by ``h eps ||Q_lo|| (||Q_hi|| + ||Q||)`` and
    the two sums by a relative u.
    """
    h = q.shape[0]
    if not np.all(np.sum(q.real**2 + q.imag**2, axis=0) <= 2.0):
        return np.inf
    hi = np.round(q * 2.0**20) * 2.0**-20
    lo = q - hi
    exact = hi.conj().T @ hi
    exact[np.diag_indices_from(exact)] -= 1.0
    rest = hi.conj().T @ lo + lo.conj().T @ q
    u = 0.5 * _EPS
    return (1.0 + _EPS) * (_fro(exact + rest) + u * _fro(rest)) + h * _EPS * _fro(lo) * (_fro(hi) + _fro(q))


def _projected_norm(d: np.ndarray, q: np.ndarray, eta: float) -> float | None:
    """``||d||_2`` from the Gram of ``W = Q* d``, of order r, or ``None`` where that is not certified as exact.

    ``q`` (h x r, ``2r <= min(h, k)`` for d of h x k) is a basis whose span
    holds d up to rounding, and ``eta`` bounds ``||Q* Q - I||``
    (:func:`_orthonormality_defect`).  Rounding follows the normwise bounds
    of the kernels taken with p(n) = n, as :func:`_hermitian_floor` takes
    LAPACK's: a product of inner dimension m errs by ``m eps ||X|| ||Y||``,
    ``eigvalsh`` of order s by ``s eps ||G||``, a sum by a relative u = eps /
    2.  So the Gram route of :func:`_residual_norm` carries ``(h + k) eps
    ||d||^2`` in ``||d||^2``.

    With the computed W and R, and ``R_e = d - Q W`` exactly,
    ``d* d = W* (Q* Q) W + W* N + N* W + R_e* R_e``, ``N = Q* R_e``.  At the
    top right singular vector of W and at that of d this gives, with ``w =
    ||W||``, ``nu >= ||N||`` and ``rho >= ||R_e||``,

        (1 - eta) w^2 - 2 w nu  <=  ||d||^2  <=  (1 + eta) w^2 + 2 w nu + rho^2.

    N is measured, not bounded by ``eta w`` plus the rounding of W, which
    would cost ``2 h eps``: ``R = fl(d - fl(Q W))`` is ``R_e`` less the
    error of ``Q W``, at most ``r eps ||Q|| w``, plus that of the
    difference, at most ``u ||R||_F / (1 - u)``, and ``fl(Q* R)`` errs by
    ``h eps ||Q|| ||R||``; ``||Q|| <= sqrt(1 + eta)``.  So ``nu = a + b w``
    and ``rho = c + e w`` with ``a = ||fl(Q* R)||_F + sqrt(1 + eta) ||R||_F
    (h eps + u / (1 - u))``, ``b = r eps (1 + eta)``, ``c = ||R||_F / (1 - u)``
    and ``e = r eps sqrt(1 + eta)``.  The interval's relative width, ``2 eta
    + 4 nu / w + rho^2 / w^2``, falls as w grows; the Gram route's is ``2 (h
    + k) eps``.  It is tested at ``||W||_F >= w`` before the Gram of W is
    formed, so that a hopeless point makes no ``eigvalsh`` of order r, and
    then at ``w_lo = sqrt(mu / (1 + (k + r + 1) eps)) <= w``, mu the largest
    computed eigenvalue of ``W W*``.  Where both pass, ``sqrt(mu)`` is
    returned: mu errs by at most ``(k + r) eps w^2`` and w^2 lies within the
    interval, so mu lies within three times the Gram route's own bound of
    ``||d||^2``.  ``None`` where a test fails, or where d's Gram is not safe
    (:func:`_gram_or_norm`).
    """
    h, k = d.shape
    r = q.shape[1]
    if not _GRAM_FLOOR < np.vdot(d, d).real < np.inf:
        return None
    w = q.conj().T @ d
    rem = d - q @ w
    u = 0.5 * _EPS
    sq = np.sqrt(1.0 + eta)
    rem_fro = _fro(rem)
    a = _fro(q.conj().T @ rem) + sq * rem_fro * (h * _EPS + u / (1.0 - u))
    b, c, e = r * _EPS * (1.0 + eta), rem_fro / (1.0 - u), r * _EPS * sq
    budget = 2.0 * (h + k) * _EPS

    def certified(w_low: float) -> bool:
        # written so that NaN fails
        return w_low > 0.0 and 2.0 * eta + 4.0 * (a / w_low + b) + (c / w_low + e) ** 2 <= budget

    if not certified(_fro(w)):
        return None
    mu = float(np.linalg.eigvalsh(w @ w.conj().T)[-1])
    if not certified(np.sqrt(max(mu, 0.0) / (1.0 + (k + r + 1) * _EPS))):
        return None
    return float(np.sqrt(mu))


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


def _schedule_values(schedule) -> np.ndarray:
    """``schedule`` as floats; ``ValueError`` unless it is nonempty, 1-D, finite and positive."""
    s = np.asarray(schedule, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("schedule must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise ValueError("schedule values must be finite and positive")
    return s


def _check_schedule(schedule, *, decreasing: bool) -> np.ndarray:
    s = _schedule_values(schedule)
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


def _trace_over(schedule: np.ndarray, step, target, tol: ToleranceConfig, atol=None, basis=None) -> LimitTrace:
    """The one loop that evaluates a limit along a checked schedule.

    ``step(p)`` returns the iterate at parameter ``p`` and the condition
    number of the system solved for it, or an upper bound on it that does
    not exceed ``inv_cond_max``; points where that exceeds
    ``inv_cond_max`` are recorded as rank flips and reported through one
    ``RankFlipWarning``.  Each error is an exact 2-norm taken from the
    largest eigenvalue of a Gram matrix.  ``basis``, an optional h x r
    matrix with ``2r <= min(h, k)`` for h x k iterates, spans every error
    up to rounding; where :func:`_projected_norm` certifies that the
    interval the projection onto it leaves for ``||error||^2`` is no wider
    than the one the rounding of the Gram route leaves, the error comes
    from the Gram of order r of that projection, and elsewhere from the
    Gram of order ``min(h, k)`` of the whole error (:func:`_residual_norm`).  ``atol`` defaults to
    :func:`limit_atol_for`.
    """
    iterates = []
    errors = np.empty(schedule.size)
    flips = []
    eta = None if basis is None else _orthonormality_defect(basis)
    for i, p in enumerate(schedule):
        it, cond = step(float(p))
        iterates.append(it)
        d = it - target
        err = None if basis is None else _projected_norm(d, basis, eta)
        errors[i] = _residual_norm(d) if err is None else err
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
