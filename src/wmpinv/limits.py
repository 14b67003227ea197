"""Limit formulas tying regularized pencils to weighted inverses.

The central object is the pencil ``C_t = A* V A + t B* W B`` with positive
definite V and W.  As t drops to zero, ``C_t^+ A* V`` converges to the
weighted inverse ``A+_{V,U}`` for any admissible domain weight U drawn
from the family built by :func:`omega_weight`.  When the row spaces of A
and B are separated the limit collapses to a closed form that is reached
at every t, not just in the limit; the general case reduces to the
separated one by splitting B against the weighted inverse.  The second
limit, ``(lambda A + B)^+ B`` for positive semidefinite A and B, is the
same kind of pencil: it equals ``(A + t B)^+ (t B)`` with t = 1 / lambda.

Neither pencil is inverted directly: at small t the O(t) eigenvalue
block would be resolved only to ``eps / t`` relative accuracy, drowning
the limit in rounding.  One graded solver serves both: it splits off the
part of the joint space where the t-free term acts, divides the
t-grading out exactly and solves a uniformly well-conditioned system, so
the iterate error stays at the truncation level down the whole schedule.

A bound on the condition number of that system S decides whether a
point can be a rank flip.  The solver bounds ``cond_2(S(t))`` for the
whole schedule at once, through the Schur complement of its K22 block:
two ``eigvalsh`` per trace, of H11 and K22, and the rounding of the
computed blocks absorbed by a derived margin.  Every point makes one LU
solve of S for its right-hand side alone.  Where that bound clears
``inv_cond_max`` with a margin, that is all; elsewhere the singular
values of S are taken as well: they decide the flag, and the truncated
SVD solve replaces the LU iterate where LU fails or the smallest
singular value falls to the ``lstsq`` cutoff ``eps * n * sigma_max``.
Each error is an exact 2-norm from the eigenvalues of a Gram matrix.

The splits are made once per call, and the solvers make none of their
own.  ``limit_t_to_zero`` and ``general_limit_via_decomposition`` split
``[A; B]`` once for the domain weight and the solver, and A once for the
target or the separation verdict; the pencil solver reads its blocks off
those two splits with one QR, and its bases, which do not depend on W,
serve every W the closed form is checked against.  ``limit_lambda_to_inf``
splits A once and takes one SVD of B's compression to the complement of
A's range, which decides the target and gives the solver the rest of
its basis.  The separation verdict reads A's row basis and the sum rank
off splits its caller holds, and one SVD of ``2I - P - Q`` decides
invertibility and solves for Pi, so no matrix of the separated pipeline
is decomposed twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CriteriaDisagreeError,
    NotPositiveOnRangeError,
    NotPositiveSemidefiniteError,
    NotSeparatedError,
    WeightError,
)
from .linalg import (
    DEFAULT_TOL,
    LimitTrace,
    SplitBasis,
    SvdFactorization,
    ToleranceConfig,
    _EPS,
    _check_atol,
    _check_schedule,
    _clears_positive_floor,
    _cond,
    _hermitian,
    _residual_norm,
    _self_adjointness,
    _solve_cutoff,
    _split_basis,
    _trace_over,
    _verify,
    as_matrix,
    mp_inverse,
    operator_norm,
    svd_factor,
)
from .weights import Weight, as_weight

__all__ = [
    "DEFAULT_T_SCHEDULE",
    "DEFAULT_LAMBDA_SCHEDULE",
    "SEPARATION_MARGIN",
    "OmegaWeight",
    "SeparatedPairReport",
    "BDecomposition",
    "GeneralLimitResult",
    "omega_weight",
    "limit_t_to_zero",
    "limit_lambda_to_inf",
    "separated_pair_check",
    "closed_form_separated",
    "decompose_b",
    "general_limit_via_decomposition",
]

DEFAULT_T_SCHEDULE = tuple(10.0 ** (-k) for k in range(1, 11))
DEFAULT_LAMBDA_SCHEDULE = tuple(10.0 ** k for k in range(0, 9))

# Verdict margin for ||P Q|| against 1; inside the band between this margin
# and the invertibility threshold of 2I - P - Q no verdict is returned.
SEPARATION_MARGIN = 1e-6


@dataclass(frozen=True)
class OmegaWeight:
    """Admissible domain weight ``U = A* X A + B* W B + Y0`` with context.

    ``y_effective`` is the compression of Y to the intersection of the two
    null spaces (the projector itself under the default Y = I), and
    ``restricted_min_eig`` is the smallest eigenvalue of
    ``A* X A + B* W B`` compressed to the joint row space, which the
    construction requires to be positive.
    """

    u: Weight
    x: np.ndarray
    y_effective: np.ndarray
    null_projector: np.ndarray
    restricted_min_eig: float


def _stacked(am, bm) -> np.ndarray:
    """``[A; B]``, once A and B are checked to share a column count."""
    if am.shape[1] != bm.shape[1]:
        raise ValueError(f"column counts differ: {am.shape[1]} vs {bm.shape[1]}")
    return np.vstack([am, bm])


def _pencil_inputs(a, b, v, w, tol: ToleranceConfig):
    """A, B, the split of ``[A; B]`` and the weights V, W of the pencil ``A* V A + t B* W B``.

    Checks only that the dimensions fit; each caller keeps its own rule
    on the definiteness of V and W.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    stacked = _stacked(am, bm)
    vw = as_weight(v, tol)
    ww = as_weight(w, tol)
    if vw.dim != am.shape[0]:
        raise ValueError(f"v must weigh the rows of a (dimension {am.shape[0]})")
    if ww.dim != bm.shape[0]:
        raise ValueError(f"w must weigh the rows of b (dimension {bm.shape[0]})")
    return am, bm, _split_basis(stacked, tol), vw, ww


def _positive_compression(mat, basis, what: str, tol: ToleranceConfig) -> tuple[np.ndarray, float]:
    """``basis* mat basis`` (Hermitian part) and its smallest eigenvalue.

    Raises ``NotPositiveOnRangeError`` naming ``what`` unless the
    compression is positive definite by the rule of
    :func:`is_positive_definite`; an empty basis passes with ``inf``.
    """
    comp = basis.conj().T @ mat @ basis
    comp = 0.5 * (comp + comp.conj().T)
    if not comp.size:
        return comp, np.inf
    eigs = np.linalg.eigvalsh(comp)
    if not _clears_positive_floor(eigs, tol):
        raise NotPositiveOnRangeError(what, float(eigs[0]))
    return comp, float(eigs[0])


def omega_weight(a, b, w, x=None, y=None, tol: ToleranceConfig = DEFAULT_TOL) -> OmegaWeight:
    """Build an admissible domain weight for the t -> 0 limit.

    Parameters
    ----------
    a, b : array_like
        Matrices with a common column count h.
    w : Weight or array_like
        Self-adjoint invertible weight on the rows of ``b``.
    x : array_like, optional
        Self-adjoint matrix on the rows of ``a``; identity by default.
        ``A* X A + B* W B`` must be positive definite on the joint row
        space of A and B.
    y : array_like, optional
        Self-adjoint matrix on the columns; identity by default.  Only its
        compression to the joint null space of A and B enters, and that
        compression must be positive definite.

    Returns
    -------
    OmegaWeight
        Carrying the assembled positive-definite weight and diagnostics.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    stacked = _stacked(am, bm)
    ww = as_weight(w, tol)
    if ww.dim != bm.shape[0]:
        raise ValueError(f"weight dimension {ww.dim} does not match rows of b {bm.shape[0]}")
    k, h = am.shape
    xm = np.eye(k, dtype=np.complex128) if x is None else _hermitian(x, "x", tol, k)
    ym = None if y is None else _hermitian(y, "y", tol, h)
    return _omega(am, bm, ww, xm, ym, _split_basis(stacked, tol), tol)


def _omega(am, bm, ww: Weight, xm, ym, joint: SplitBasis, tol) -> OmegaWeight:
    """:func:`omega_weight` on checked inputs and the split ``joint`` of ``[A; B]``;
    ``xm`` and ``ym`` are the Hermitian X and Y, ``ym`` ``None`` for Y = I.
    """
    core = am.conj().T @ xm @ am + bm.conj().T @ ww.matrix @ bm
    core = 0.5 * (core + core.conj().T)

    *_, v_row, v_null = joint
    _, restricted_min = _positive_compression(
        core, v_row, "A*XA + B*WB restricted to the joint row space", tol
    )
    p_null = v_null @ v_null.conj().T
    if ym is None:
        y_eff = p_null
    else:
        comp, _ = _positive_compression(ym, v_null, "Y restricted to the joint null space", tol)
        y_eff = v_null @ comp @ v_null.conj().T

    u_mat = core + y_eff
    u_mat = 0.5 * (u_mat + u_mat.conj().T)
    u = Weight(u_mat, tol)
    if not u.positive_definite:
        eigs = np.linalg.eigvalsh(u.matrix)
        raise NotPositiveOnRangeError("assembled domain weight", float(eigs[0]))
    return OmegaWeight(
        u=u,
        x=xm,
        y_effective=y_eff,
        null_projector=p_null,
        restricted_min_eig=restricted_min,
    )


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the 2-norm."""
    return float(np.sqrt(np.vdot(x, x).real))


def _hermitian_floor(x: np.ndarray) -> tuple[float, float]:
    """``(h, ||x - x_h||_F)`` for square ``x`` with Hermitian part ``x_h``, where ``h >= ||x_h^-1||_2``.

    ``eigvalsh`` returns the eigenvalues of ``x_h + E`` with ``||E||_2 <=
    p(n) eps ||x_h||_2`` (LAPACK's bound, taken with p(n) = n), so the
    smallest eigenvalue of ``x_h`` is at least the computed one less
    ``n eps ||x_h||_F``.  ``h`` is the reciprocal of that floor, ``inf``
    when the floor is not positive, and 0 for the empty matrix.
    """
    if not x.size:
        return 0.0, 0.0
    xh = 0.5 * (x + x.conj().T)
    floor = np.linalg.eigvalsh(xh)[0] - x.shape[0] * _EPS * _fro(xh)
    return (1.0 / floor if floor > 0.0 else np.inf), _fro(x - xh)


def _product_rounding(d: int) -> float:
    """``2g + g^2``, which bounds ``|fl(fl(X* M) Y) - X* M Y| / (|X|* |M| |Y|)`` entrywise, M of order d.

    Each entry of a complex product of inner dimension d is a pair of real
    inner products of length 2d, each within ``gamma_2d = 2d u / (1 - 2d
    u)`` (u = eps / 2) of the sum of the moduli of its terms, whatever the
    order of summation; the complex modulus adds a factor sqrt(2), so one
    product errs by ``g = sqrt(2) gamma_2d``.  In Frobenius norm the error
    is at most ``(2g + g^2) ||X||_F ||M||_F ||Y||_F``.
    """
    two_du = d * _EPS
    g = np.sqrt(2.0) * two_du / (1.0 - two_du)
    return 2.0 * g + g * g


def _weight_defect(w: Weight) -> float:
    """A bound on ``max(0, -lambda_min(W))`` for a positive definite ``Weight``.

    The matrix of a ``Weight`` is exactly Hermitian and its ``eigvalsh``
    found every eigenvalue positive, so by the bound of
    :func:`_hermitian_floor` no exact eigenvalue lies below ``-d eps ||W||_F``.
    """
    return w.dim * _EPS * _fro(w.matrix)


def _psd_shift(kk: float, mid_defect: float, k_mid: np.ndarray) -> float:
    """``delta = kk (mid_defect + gamma ||k_mid||_F)``, with ``kk = ||k||_F^2``, of
    :meth:`_GradedSolver._schur_constants`: the shift that makes the computed
    ``k* k_mid k`` positive semidefinite when ``lambda_min(k_mid) >= -mid_defect``.
    """
    return kk * (mid_defect + _product_rounding(k_mid.shape[0]) * _fro(k_mid))


class _GradedSolver:
    """Evaluates a pencil iterate ``x(t) = (G + t K)^+ r(t)`` stably for tiny t.

    In an orthonormal basis ``v0`` of the joint space of G and K, split
    off the subspace where G acts (columns of q1) from its complement
    (q2).  The q2 block row of the system carries an overall factor t
    that divides out exactly, leaving

        S(t) = [[H11 + t K11, t K12], [K21, K22]],

    whose condition number is bounded uniformly as t -> 0.  The solver
    holds the blocks H11, K11, K12 and K22 of ``K = k* k_mid k`` (``k = [k1
    k2]``, ``k1 = F q1``, ``k2 = F q2`` for ``K = F* k_mid F``), the basis
    ``v0 [q1 q2]`` the iterate is read back through, and ``rhs(t)`` with
    the factor t divided out of its q2 rows; it forms no product of its
    own.  The two limits differ only in how they build these pieces
    (:meth:`pencil`, :meth:`pair`), from splits their callers already
    hold.  A caller that knows ``k_mid`` to be Hermitian with a bounded
    PSD defect passes ``delta``, the shift of :meth:`_schur_constants`
    that makes the computed K positive semidefinite; the solver then
    bounds ``cond_2(S(t))`` for every t from two ``eigvalsh``, of ``H11``
    and ``K22``, and :meth:`iterate` makes one LU solve per point, for the
    right-hand side alone, wherever that bound clears.
    """

    def __init__(self, basis, h11, k11, k12, k22, rhs, tol: ToleranceConfig = DEFAULT_TOL,
                 delta: float | None = None):
        self.basis = basis
        self.h11, self.k11, self.k12, self.k22 = h11, k11, k12, k22
        self.rhs = rhs
        self.tol = tol
        self.schur = None if delta is None else self._schur_constants(delta)

    def _schur_constants(self, delta: float):
        """Constants of the bound :meth:`_schur_bound`, or ``None`` where it cannot clear.

        The system is ``S(t) = [[H11 + t K11, t K12], [K12*, K22]]``.  In
        exact arithmetic H11 is Hermitian positive definite and ``K = k*
        k_mid k`` (``k = [k1 k2]``) positive semidefinite, with K22
        positive definite: B is injective on the q2 directions, or they
        would lie in the joint null space.  Eliminating K22 leaves the
        Schur complement ``Z(t) = H11 + t (K11 - K12 K22^-1 K12*)``, at
        least H11 for every t >= 0, so ``||Z^-1|| <= h = 1 /
        lambda_min(H11)``, and the block inverse

            S^-1 = [I; -K22^-1 K12*] Z^-1 [I, -t K12 K22^-1] + diag(0, K22^-1)

        gives ``||S^-1||_2 <= beta(t) = h (1 + c g) (1 + t c g) + g`` with
        ``g = 1 / lambda_min(K22)`` and ``c = ||K12||_F``.

        The computed blocks keep that structure only up to rounding.  They
        are ``S0 + E``, where S0 is built as S from the Hermitian parts
        ``H_h``, ``K11_h``, ``K22_h`` and from ``K' = K_h + delta I``:

        - the PSD defect: ``K_h`` lies within ``gamma ||k_mid||_F ||k||_F^2``
          of the exact ``k* k_mid k`` (:func:`_product_rounding`), which is
          at least ``-mid_defect ||k||_F^2`` when ``lambda_min(k_mid) >=
          -mid_defect``; so ``delta = ||k||_F^2 (mid_defect + gamma
          ||k_mid||_F)`` (:func:`_psd_shift`, computed by the factory that
          knows k and k_mid) makes K' positive semidefinite, and S0 obeys
          the bound above;
        - ``||E||_2 <= r0 + t r1 + 2u ||S||_F`` (u = eps / 2), with
          ``r0 = ||H11 - H_h||_F + ||K22 - K22_h||_F + delta`` (the
          non-Hermitian parts and the shift), ``r1 = ||K11 - K11_h||_F +
          delta + u (||K11||_F + ||K12||_F)`` (the same for K11, and the
          rounding of ``t K11`` and ``t K12``), and ``2u ||S||_F`` for the
          rounding of the sum ``H11 + t K11``;
        - h and g are the floors of ``H_h`` and ``K22_h`` from
          :func:`_hermitian_floor`, and ``K22' >= K22_h``.

        Returns ``(h, g, c, r0, r1)``, or ``None`` when a floor is not
        positive, so that the bound is infinite at every t.
        """
        h, h_skew = _hermitian_floor(self.h11)
        g, k22_skew = _hermitian_floor(self.k22)
        if not (np.isfinite(h) and np.isfinite(g)):
            return None
        k11_herm = 0.5 * (self.k11 + self.k11.conj().T)
        c = _fro(self.k12)
        u = 0.5 * _EPS
        r0 = h_skew + k22_skew + delta
        r1 = _fro(self.k11 - k11_herm) + delta + u * (_fro(self.k11) + c)
        return h, g, c, r0, r1

    def _schur_bound(self, t: float, system: np.ndarray) -> float:
        """``||S||_F beta(t) / (1 - beta(t) r(t))``, an upper bound on ``cond_2(S)``.

        Since ``sigma_min(S) >= 1 / beta - ||E||_2`` (the terms of
        :meth:`_schur_constants`), it holds wherever ``beta r < 1``; it is
        taken where ``beta r <= 1/2``, and is ``inf`` elsewhere or without
        the constants.  Its own arithmetic is on norms, sums and products
        of nonnegative numbers, and the one difference ``1 - beta r`` at
        most doubles their relative error, so the computed bound is within
        a relative ``m eps`` or so of the exact one, m the most entries
        summed in one norm; the factor-2 margin of the cap in
        :meth:`iterate` absorbs that.
        """
        if self.schur is None:
            return np.inf
        h, g, c, r0, r1 = self.schur
        # overflow only means that the bound does not clear
        with np.errstate(over="ignore", invalid="ignore"):
            s_norm = _fro(system)
            cg = c * g
            beta = h * (1.0 + cg) * (1.0 + t * cg) + g
            r = r0 + t * r1 + _EPS * s_norm
            # written so that NaN fails
            if not beta * r <= 0.5:
                return np.inf
            return s_norm * beta / (1.0 - beta * r)

    @classmethod
    def pencil(cls, am, bm, vmat, tol: ToleranceConfig, joint: SplitBasis, split_a: SplitBasis):
        """``(A* V A + t B* W B)^+ A* V`` as a map ``(W, w_defect)`` to its solver.

        The solver works in the row basis v0 of ``[A; B]`` (``joint``).
        ``q1 = v0* V_r`` carries the row basis of A from ``split_a``, the
        split of A its caller holds, and one complete QR of q1 gives its
        complement q2, so no SVD is made here.  A direction of A below the
        cutoff of ``joint`` is noise on the scale of ``[A; B]`` and is left
        out, so q1 has at most as many columns as v0.  The bases do not
        depend on W; every W shares them and H11, and a W passed with
        ``w_defect``, a bound on its PSD defect, gets the Schur bound.
        """
        v0 = joint.v_r
        q1 = v0.conj().T @ split_a.v_r[:, : v0.shape[1]]
        q2 = np.linalg.qr(q1, mode="complete")[0][:, q1.shape[1]:]
        at, bt = am @ v0, bm @ v0
        a1 = at @ q1
        h11, k1, k2 = a1.conj().T @ vmat @ a1, bt @ q1, bt @ q2
        # q2 is orthogonal to v0* V_r, so A v0 q2 = U_r diag(sigma_r) q1* q2
        # vanishes and so does the second block of the right-hand side
        rhs = np.vstack([a1.conj().T @ vmat, np.zeros((q2.shape[1], am.shape[0]))])
        basis = v0 @ np.hstack([q1, q2])
        kk = _fro(k1) ** 2 + _fro(k2) ** 2

        def solver(wmat, w_defect=None):
            k1w = k1.conj().T @ wmat
            delta = None if w_defect is None else _psd_shift(kk, w_defect, wmat)
            return cls(basis, h11, k1w @ k1, k1w @ k2, k2.conj().T @ wmat @ k2, lambda t: rhs, tol, delta)

        return solver

    @classmethod
    def pair(cls, a_sym, b_sym, u_r, u_w, b_min: float, tol: ToleranceConfig) -> "_GradedSolver":
        """``(A + t B)^+ (t B)``, which is ``(lambda A + B)^+ B`` at t = 1 / lambda.

        A and B are Hermitian positive semidefinite, ``b_min`` the smallest
        computed eigenvalue of B.  ``u_r`` is the range basis of A and
        ``u_w = U_0 W``, with W the range basis of B's compression ``U_0* B
        U_0`` to the complement U_0 of that range; both come from the
        splits the target was computed on.  The solver works in ``v0 =
        [u_r, u_w]``, where q1 and q2 are coordinate blocks, so v0 is the
        basis and the K blocks are slices of ``k_mid``, the Hermitian part
        of ``v0* B v0``.  The joint dimension is rank(A) plus the rank of
        B's compression, and that second rank is the target's own decision:
        the target and the solver read B's part from one rank decision.
        By the bounds of :func:`_hermitian_floor` and
        :func:`_product_rounding` the smallest eigenvalue of ``k_mid`` is at
        least ``-||v0||_F^2 (max(0, n eps ||B||_F - b_min) + gamma ||B||_F)``.
        """
        v0 = np.hstack([u_r, u_w])
        r = u_r.shape[1]
        h11 = u_r.conj().T @ a_sym @ u_r
        h11 = 0.5 * (h11 + h11.conj().T)
        vb = v0.conj().T @ b_sym
        bt = vb @ v0
        bt = 0.5 * (bt + bt.conj().T)
        g1, g2 = vb[:r], vb[r:]
        n, b_norm = b_sym.shape[0], _fro(b_sym)
        defect = _fro(v0) ** 2 * (max(0.0, n * _EPS * b_norm - b_min) + _product_rounding(n) * b_norm)
        rhs = lambda t: np.vstack([t * g1, g2])
        # k = [q1 q2] is the identity, so ||k||_F^2 is the joint dimension
        delta = _psd_shift(float(v0.shape[1]), defect, bt)
        return cls(v0, h11, bt[:r, :r], bt[:r, r:], bt[r:, r:], rhs, tol, delta)

    def iterate(self, t: float) -> tuple[np.ndarray, float]:
        """The iterate at ``t`` and the condition number of its system, or a bound on it.

        Where the Schur bound of :meth:`_schur_bound` is at most ``min(
        inv_cond_max / 2, 1e-3 / (eps n))``, S is no rank flip and its
        smallest singular value lies above the cutoff of
        :meth:`SvdFactorization.solve`, so one LU solve for the right-hand
        side alone gives the iterate and the bound is returned in place of
        the condition number.  Elsewhere the point makes the same LU solve
        and takes the singular values of S: they give the condition number,
        and the truncated SVD solve replaces the LU iterate where LU meets
        an exactly singular S or the smallest singular value falls to that
        cutoff.  The empty system gives a zero iterate and condition number 1.
        """
        system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
        rhs = self.rhs(t)
        if not system.size:
            return self.basis @ rhs, 1.0
        cap = min(self.tol.inv_cond_max / 2.0, 1e-3 / (_EPS * system.shape[0]))
        bound = self._schur_bound(t, system)
        if bound <= cap:
            return self.basis @ np.linalg.solve(system, rhs), bound
        try:
            y = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            y = None
        sigma = np.linalg.svd(system, compute_uv=False)
        if y is None or not sigma[-1] > _solve_cutoff(sigma, system.shape):
            y = svd_factor(system).solve(rhs)
        return self.basis @ y, _cond(sigma)


def limit_t_to_zero(
    a,
    b,
    v,
    w,
    u: OmegaWeight | Weight | None = None,
    schedule=None,
    tol: ToleranceConfig = DEFAULT_TOL,
    atol: float | None = None,
) -> LimitTrace:
    """Trace ``(A* V A + t B* W B)^+ A* V`` down a decreasing schedule.

    Converges to the weighted inverse ``A+_{V,U}`` for every admissible
    U; the default U is built by :func:`omega_weight` with X = V.  V and
    W must be positive definite.  A degenerate scaled system at some
    schedule point (the finite analogue of the pencil dropping rank) is
    reported through ``RankFlipWarning`` and recorded on the trace.
    ``atol`` overrides the convergence threshold recorded on the trace;
    the default is ``1e-8 * (1 + ||target||)``.
    """
    s = _check_schedule(DEFAULT_T_SCHEDULE if schedule is None else schedule, decreasing=True)
    _check_atol(atol)
    am, bm, joint, vw, ww = _pencil_inputs(a, b, v, w, tol)
    if not vw.positive_definite:
        raise WeightError("v must be positive definite for the t -> 0 limit")
    if not ww.positive_definite:
        raise WeightError("w must be positive definite for the t -> 0 limit")

    if u is None:
        u = _omega(am, bm, ww, vw.matrix, None, joint, tol)
    u_weight = u.u if isinstance(u, OmegaWeight) else as_weight(u, tol)
    if u_weight.dim != am.shape[1]:
        raise ValueError(f"u must weigh the columns of a (dimension {am.shape[1]})")

    from .core import _required_on_split

    split_a = _split_basis(am, tol)
    target = _required_on_split(split_a, vw, u_weight, tol)[1]
    solver = _GradedSolver.pencil(am, bm, vw.matrix, tol, joint, split_a)(ww.matrix, _weight_defect(ww))
    return _trace_over(s, solver.iterate, target, tol, atol)


def limit_lambda_to_inf(
    a,
    b,
    schedule=None,
    tol: ToleranceConfig = DEFAULT_TOL,
    atol: float | None = None,
) -> LimitTrace:
    """Trace ``(lambda A + B)^+ B`` up an increasing schedule.

    For positive semidefinite A and B the iterates converge to
    ``((I - P) B (I - P))^+ B`` with P the orthogonal projector onto the
    range of A.  Inputs failing positive semidefiniteness within
    ``verify_atol`` are rejected.  The error decays like 1 / lambda, so
    the default convergence threshold is the coarser
    ``1e-6 * (1 + ||target||)``, matched to the default schedule's top
    value; pass ``atol`` to tighten it alongside a longer schedule.
    """
    s = _check_schedule(DEFAULT_LAMBDA_SCHEDULE if schedule is None else schedule, decreasing=False)
    _check_atol(atol)
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[0] != am.shape[1] or am.shape != bm.shape:
        raise ValueError("a and b must be square with equal shapes")
    for name, mat in (("a", am), ("b", bm)):
        ok, asym = _self_adjointness(mat, tol)
        if not ok:
            raise NotPositiveSemidefiniteError(f"{name} (not self-adjoint)", -asym)
    a_sym = 0.5 * (am + am.conj().T)
    b_sym = 0.5 * (bm + bm.conj().T)
    # an empty matrix passes with the one eigenvalue 0
    a_eigs, b_eigs = (np.linalg.eigvalsh(m) if m.size else np.zeros(1) for m in (a_sym, b_sym))
    for name, eigs in (("a", a_eigs), ("b", b_eigs)):
        if eigs[0] < -tol.verify_atol:
            raise NotPositiveSemidefiniteError(name, float(eigs[0]))

    n = a_sym.shape[0]
    split_a = _split_basis(a_sym, tol)
    # with P the projector onto the range of A, ((I - P) B (I - P))^+ B is
    # U_0 (U_0* B U_0)^+ U_0* B
    u_0 = split_a.u_0
    ub = u_0.conj().T @ b_sym
    comp = ub @ u_0
    comp = 0.5 * (comp + comp.conj().T)
    # when the range of A covers the range of B the compression is an
    # exact zero and anything left in it is rounding; anchor the rank
    # cutoff to the scale of B so that noise is not inverted; B is
    # Hermitian, so its largest |eigenvalue| is ||B||.  The floor is that
    # of an order-n matrix, and it dominates the relative cutoff, since
    # sigma_max of the compression is at most ||B||
    floor = tol.rank_rtol_for((n, n)) * float(np.max(np.abs(b_eigs)))
    comp_svd = svd_factor(comp, tol, sigma_floor=floor)
    target = u_0 @ (comp_svd.pinv() @ ub)
    u_w = u_0 @ comp_svd.range_basis
    solver = _GradedSolver.pair(a_sym, b_sym, split_a.u_r, u_w, float(b_eigs[0]), tol)
    if atol is None:
        atol = 1e-6 * (1.0 + _residual_norm(target))
    return _trace_over(s, lambda lam: solver.iterate(1.0 / lam), target, tol, atol)


@dataclass(frozen=True)
class SeparatedPairReport:
    """Separation verdict for the row spaces of a pair of matrices.

    Two criteria are computed: ``||P Q|| < 1`` with a margin of
    ``SEPARATION_MARGIN``, and numerical invertibility of ``2I - P - Q``.
    They agree outside a narrow band; inside it
    ``CriteriaDisagreeError`` is raised instead of guessing.
    """

    is_separated: bool
    pq_norm: float
    two_minus_sum_cond: float
    intersection_dim: int
    sum_rank: int


def separated_pair_check(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> SeparatedPairReport:
    """Decide whether the row spaces of ``a`` and ``b`` are separated."""
    am = as_matrix(a)
    bm = as_matrix(b)
    joint = _split_basis(_stacked(am, bm), tol)
    return _separation(_split_basis(am, tol).v_r, bm, joint, tol)[0]


def _separation(va, bm, joint: SplitBasis, tol) -> tuple[SeparatedPairReport, np.ndarray, SvdFactorization]:
    """:func:`separated_pair_check` on A's row basis ``va`` and the split ``joint`` of
    ``[A; B]``, with the projector P onto ``va`` and the SVD of ``2I - P - Q`` it used."""
    vb = svd_factor(bm, tol).row_basis
    p = va @ va.conj().T
    q = vb @ vb.conj().T
    pq_norm = operator_norm(p @ q)
    two = svd_factor(2.0 * np.eye(va.shape[0], dtype=np.complex128) - p - q, tol)
    # anchor the smallest singular value to the scale of 2I rather than
    # to sigma_max(two): when the row spaces coincide, two is an exact
    # zero plus rounding, and the relative condition of noise looks
    # deceptively small
    smin = float(two.sigma[-1]) if two.sigma.size else 0.0
    if smin <= tol.rank_rtol_for(two.shape) * 2.0:
        cond = float("inf")
    else:
        cond = float(two.sigma[0] / smin)
    by_norm = pq_norm <= 1.0 - SEPARATION_MARGIN
    by_inverse = cond <= tol.inv_cond_max
    if by_norm != by_inverse:
        raise CriteriaDisagreeError(pq_norm, cond)
    rs = joint.sigma_r.size
    report = SeparatedPairReport(by_norm, pq_norm, cond, va.shape[1] + vb.shape[1] - rs, rs)
    return report, p, two


def closed_form_separated(
    a,
    b,
    v,
    w,
    tol: ToleranceConfig = DEFAULT_TOL,
    rng=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the pencil inverse action for separated row spaces.

    Returns ``(Pi, D)`` with

        Pi = (2I - P - Q)^{-1} (A* V A)^+ A* V,
        D  = (A* V A)^+ A* V - (I - P) Pi,

    and verifies that ``(A* V A + B* W B)^+ A* V`` equals D both for the
    given W and for a fresh random positive-definite replacement, because
    the closed form depends on B only through its row space.  Raises
    ``NotSeparatedError`` when the row spaces are not separated.
    """
    from .sampling import random_spd, rng_from

    am, bm, joint, vw, ww = _pencil_inputs(a, b, v, w, tol)
    split_a = _split_basis(am, tol)
    report, p, two = _separation(split_a.v_r, bm, joint, tol)
    if not report.is_separated:
        raise NotSeparatedError(report.pq_norm)
    gen = rng_from(rng)
    draws = (("given W", ww.matrix), ("replacement W", random_spd(gen, bm.shape[0])))
    what = "separated closed form against the pencil"
    return _separated_closed_form(am, bm, joint, split_a, vw, p, two, draws, what, tol)


def _separated_closed_form(am, bm, joint, split_a, vw, p, two, draws, what: str, tol) -> tuple[np.ndarray, np.ndarray]:
    """``(Pi, D)`` for separated row spaces, checked against the pencil at t = 1.

    ``joint`` is the split of ``[A; B]`` and ``split_a`` that of A, P the
    row-space projector of A and ``two`` the SVD of ``2I - P - Q`` that
    decided the separation.
    ``draws`` holds ``(label, W)`` pairs; ``(A* V A + B* W B)^+ A* V``
    must equal D for each of them, else ``VerificationError`` names
    ``what`` and the label.
    """
    core_a = am.conj().T @ vw.matrix @ am
    core_a = 0.5 * (core_a + core_a.conj().T)
    base = mp_inverse(core_a, tol) @ am.conj().T @ vw.matrix
    pi = two.solve(base)
    d = base - (np.eye(am.shape[1], dtype=np.complex128) - p) @ pi

    scale = 1.0 + operator_norm(d)
    solver_for = _GradedSolver.pencil(am, bm, vw.matrix, tol, joint, split_a)
    for label, wmat in draws:
        lhs, _ = solver_for(wmat).iterate(1.0)
        _verify(f"{what} ({label})", operator_norm(lhs - d), scale, tol)
    return pi, d


@dataclass(frozen=True)
class BDecomposition:
    """Split of B against the weighted inverse ``Z = A+_{V,U}``.

    ``b1 = B Z A`` has row space inside that of A, ``b2 = B - b1`` has row
    space separated from it, and ``b2* W b1 = 0``.  The three checks are
    carried as measured: ``w_orthogonality`` is ``||b2* W b1||``,
    ``containment`` is ``||(I - P) b1*||`` with P the projector onto the
    row space of A, and ``separation`` is the verdict on (A, ``b2``).
    """

    b1: np.ndarray
    b2: np.ndarray
    z: np.ndarray
    w_orthogonality: float
    containment: float
    separation: SeparatedPairReport


def decompose_b(a, b, v, w, tol: ToleranceConfig = DEFAULT_TOL) -> BDecomposition:
    """Split B so the t -> 0 pencil limit reduces to the separated case.

    Uses the admissible weight ``U = A* V A + B* W B + P0`` (P0 the
    projector onto the joint null space) and the weighted inverse
    ``Z = A+_{V,U}``.  Singular values of ``b2`` below
    ``verify_atol * (1 + ||B||)`` are rounding debris inherited from Z
    and are truncated away, so the row space of ``b2`` is decided on its
    genuine directions; ``b1 = B - b2`` keeps the split exact.  The three
    structural properties are verified before returning:
    W-orthogonality of the parts, containment of the rows of ``b1`` in
    the row space of A, and separation of ``b2`` from A.
    """
    return _decompose_b(*_pencil_inputs(a, b, v, w, tol), tol)[0]


def _decompose_b(
    am, bm, joint, vw, ww, tol
) -> tuple[BDecomposition, SplitBasis, SplitBasis, np.ndarray, SvdFactorization]:
    """:func:`decompose_b` on checked inputs and the split ``joint`` of ``[A; B]``,
    with the splits of A and of ``[A; b2]`` and the P and ``2I - P - Q2`` of
    the separation decided on them.
    """
    if not vw.positive_definite or not ww.positive_definite:
        raise WeightError("decompose_b requires positive definite v and w")

    from .core import _required_on_split

    u = _omega(am, bm, ww, vw.matrix, None, joint, tol)
    sp = _split_basis(am, tol)
    z = _required_on_split(sp, vw, u.u, tol)[1]
    b2_raw = bm - bm @ z @ am
    b_scale = 1.0 + operator_norm(bm)
    if b2_raw.size:
        bu, bs, bvh = np.linalg.svd(b2_raw, full_matrices=False)
        keep = bs > tol.verify_atol * b_scale
        b2 = (bu[:, keep] * bs[keep]) @ bvh[keep]
    else:
        b2 = b2_raw
    b1 = bm - b2

    w_cross = operator_norm(b2.conj().T @ ww.matrix @ b1)
    _verify("W-orthogonality of the B split", w_cross, b_scale**2 * (1.0 + operator_norm(ww.matrix)), tol)

    # ||(I - P) b1*|| = ||V_0* b1*||, read off the split Z was computed on
    containment = operator_norm(b1 @ sp.v_0)
    _verify("row-space containment of b1", containment, b_scale, tol)

    joint2 = _split_basis(np.vstack([am, b2]), tol)
    report, p, two = _separation(sp.v_r, b2, joint2, tol)
    if not report.is_separated:
        raise NotSeparatedError(report.pq_norm)
    return BDecomposition(b1, b2, z, w_cross, containment, report), sp, joint2, p, two


@dataclass(frozen=True)
class GeneralLimitResult:
    """Pencil limit evaluated through the separated reduction."""

    decomposition: BDecomposition
    pi: np.ndarray
    closed_form: np.ndarray
    trace: LimitTrace


def general_limit_via_decomposition(
    a,
    b,
    v,
    w,
    w_prime=None,
    schedule=None,
    tol: ToleranceConfig = DEFAULT_TOL,
    rng=None,
) -> GeneralLimitResult:
    """Evaluate the t -> 0 pencil limit by reducing to the separated case.

    Splits B into ``b1 + b2`` with :func:`decompose_b`, forms

        Pi' = (2I - P - Q2)^{-1} (A* V A)^+ A* V,
        D   = (A* V A)^+ A* V - (I - P) Pi',

    where Q2 projects onto the row space of ``b2``, verifies that
    ``(A* V A + b2* W' b2)^+ A* V`` equals D for ``w_prime`` (a random
    positive-definite draw when omitted) and for one further independent
    draw, then traces the original pencil ``(A* V A + t B* W B)^+ A* V``
    against the target D.
    """
    from .sampling import random_spd, rng_from

    s = _check_schedule(DEFAULT_T_SCHEDULE if schedule is None else schedule, decreasing=True)
    am, bm, joint, vw, ww = _pencil_inputs(a, b, v, w, tol)
    dec, split_a, joint2, p, two = _decompose_b(am, bm, joint, vw, ww, tol)

    gen = rng_from(rng)
    if w_prime is None:
        w_prime = Weight(random_spd(gen, bm.shape[0]), tol)
    else:
        w_prime = as_weight(w_prime, tol)
        if not w_prime.positive_definite:
            raise WeightError("w_prime must be positive definite")
    draws = (("w_prime", w_prime.matrix), ("independent draw", random_spd(gen, bm.shape[0])))
    what = "separated reduction of the pencil limit"
    pi, d = _separated_closed_form(am, dec.b2, joint2, split_a, vw, p, two, draws, what, tol)
    solver = _GradedSolver.pencil(am, bm, vw.matrix, tol, joint, split_a)(ww.matrix, _weight_defect(ww))
    trace = _trace_over(s, solver.iterate, d, tol)
    return GeneralLimitResult(decomposition=dec, pi=pi, closed_form=d, trace=trace)
