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

One ``eigvalsh`` each of H11 and K22 per trace bounds the condition
number of that system S at every t, with margins from the rounding model
of :mod:`linalg`; a point the bound clears solves, with K22 eliminated
once per trace, a system of order rank(A) for its right-hand side alone,
and only the others decompose S (:class:`_GradedSolver`).  Each error is
an exact 2-norm, the root of the largest eigenvalue of a Gram matrix: of
order r = rank(A), that of the projection of the error onto a basis of
the range every ``x(t) - x(0)`` lies in, where a certified interval allows
it (:func:`linalg._projected_norm`), and of order ``min(h, k)`` for h x k
iterates elsewhere.

The splits are made once per call, and the solvers make none of their
own.  The four t-routines enter by one door, :func:`_pencil_inputs`,
which checks the inputs before any decomposition, splits A once and
builds the joint row space of ``[A; B]`` on that split with one SVD of
``B V_0``, the part of B acting on A's null space; the solver, the
default target (:func:`_default_target`) and the separated closed forms
read their bases off it, and nothing here draws at random.
``limit_lambda_to_inf`` splits A once and takes one SVD of B's
compression to the complement of A's range, and one SVD of ``2I - P -
Q`` decides a separation and solves for Pi.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import _required_on_split
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
    _check_atol,
    _check_schedule,
    _clears_positive_floor,
    _cond,
    _cond_cap,
    _fro,
    _hermitian,
    _kernel_error,
    _product_rounding,
    _rank_cutoff,
    _residual_norm,
    _self_adjointness,
    _solve_cutoff,
    _split_basis,
    _sum_error,
    _trace_over,
    _verify,
    as_matrix,
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


def _check_columns(am, bm) -> None:
    """Raise ``ValueError`` unless A and B share a column count."""
    if am.shape[1] != bm.shape[1]:
        raise ValueError(f"column counts differ: {am.shape[1]} vs {bm.shape[1]}")


class _JointRows(NamedTuple):
    """``B V_0``, ``(B V_0) W`` and the row and null bases of :func:`_joint_rows`."""

    b_v0: np.ndarray
    b_w: np.ndarray
    v_r: np.ndarray
    v_0: np.ndarray


def _joint_rows(split_a: SplitBasis, bm, tol: ToleranceConfig) -> _JointRows:
    """The joint row space of ``[A; B]`` from the split of A and one SVD of ``B V_0``.

    ``P_0 row(B) = V_0 row(B V_0)`` for the projector P_0 onto A's null
    space, so ``[V_r, V_0 W]`` spans the row space of ``[A; B]`` and
    ``V_0 W_perp`` its null space, W and W_perp the right singular vectors
    of ``B V_0`` above and below the cutoff; the rank is ``r + rank(B
    V_0)``, r that of the split.  The cutoff, which cuts ``B V_0`` alone,
    is that of a split of ``[A; B]``, taken on ``s = sqrt(sigma_1(A)^2 +
    ||B||_F^2)``: ``sigma_max([A; B]) <= s <= sqrt(1 + rank(B))
    sigma_max([A; B])``.  It is not anchored to ``sigma_1(B V_0)``, which
    is rounding noise when the row space of B lies in that of A.
    """
    scale = float(np.hypot(split_a.sigma_r[0] if split_a.sigma_r.size else 0.0, _fro(bm)))
    cutoff = _rank_cutoff(scale, (split_a.u_r.shape[0] + bm.shape[0], bm.shape[1]), tol)
    bv0 = bm @ split_a.v_0
    sb = _split_basis(bv0, tol, cutoff)
    return _JointRows(bv0, bv0 @ sb.v_r, np.hstack([split_a.v_r, split_a.v_0 @ sb.v_r]), split_a.v_0 @ sb.v_0)


# the checked t-pencil A* V A + t B* W B: A, B, the split of A, the joint rows of [A; B], V and W
_Pencil = namedtuple("_Pencil", "a b split joint v w")


def _pencil_inputs(a, b, v, w, tol: ToleranceConfig, definite: bool = True) -> _Pencil:
    """The one door of the t-pencil: coerce A, B, V and W, check them, then split A and build the joint rows.

    The dimensions must fit and, unless ``definite`` is false (only
    :func:`closed_form_separated` admits indefinite weights), V and W must
    be positive definite; both are checked before any decomposition.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    _check_columns(am, bm)
    vw = as_weight(v, tol)
    ww = as_weight(w, tol)
    if vw.dim != am.shape[0]:
        raise ValueError(f"v must weigh the rows of a (dimension {am.shape[0]})")
    if ww.dim != bm.shape[0]:
        raise ValueError(f"w must weigh the rows of b (dimension {bm.shape[0]})")
    for name, weight in (("v", vw), ("w", ww)):
        if definite and not weight.positive_definite:
            raise WeightError(f"{name} must be positive definite for the t -> 0 limit")
    split_a = _split_basis(am, tol)
    return _Pencil(am, bm, split_a, _joint_rows(split_a, bm, tol), vw, ww)


def _positive_compression(mat, basis, what: str, tol: ToleranceConfig) -> tuple[np.ndarray, float]:
    """``basis* mat basis`` (Hermitian part) and its smallest eigenvalue.

    Raises ``NotPositiveOnRangeError`` naming ``what`` unless the
    compression is positive definite by the rule of
    :func:`_clears_positive_floor`; an empty basis passes with ``inf``.
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
        Its checks square A's spread; :func:`limit_t_to_zero` makes neither.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    _check_columns(am, bm)
    ww = as_weight(w, tol)
    if ww.dim != bm.shape[0]:
        raise ValueError(f"w must weigh the rows of b (dimension {bm.shape[0]})")
    k, h = am.shape
    xm = np.eye(k, dtype=np.complex128) if x is None else _hermitian(x, "x", tol, k)
    ym = None if y is None else _hermitian(y, "y", tol, h)
    core = am.conj().T @ xm @ am + bm.conj().T @ ww.matrix @ bm
    core = 0.5 * (core + core.conj().T)

    *_, v_row, v_null = _joint_rows(_split_basis(am, tol), bm, tol)
    _, restricted_min = _positive_compression(core, v_row, "A*XA + B*WB restricted to the joint row space", tol)
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
    return OmegaWeight(u=u, x=xm, y_effective=y_eff, null_projector=p_null, restricted_min_eig=restricted_min)


def _default_target(pen: _Pencil, tol: ToleranceConfig) -> np.ndarray:
    """``Z = A+_{V,Omega}`` for the default ``Omega = A* V A + B* W B + P_null``, from its null-space row.

    ``V_0* Omega`` is all the weighted inverse reads of a domain weight, so
    Omega is not formed: ``V_0* Omega = (A V_0)* V A + (B V_0)* W B + (V_0*
    V_null) V_null*``, ``B V_0`` and ``V_null`` from :func:`_joint_rows`.
    Omega is positive definite by construction, so it is not checked; the
    target's verdict, whose R holds ``Omega_00``, decides on the row.
    """
    am, bm, sp, joint, vw, ww = pen
    p_row = (sp.v_0.conj().T @ joint.v_0) @ joint.v_0.conj().T
    row = (am @ sp.v_0).conj().T @ vw.matrix @ am + joint.b_v0.conj().T @ ww.matrix @ bm + p_row
    return _required_on_split(sp, vw, row, tol)[1]


def _hermitian_floor(x: np.ndarray) -> tuple[float, float, float]:
    """``(h, ||x - x_h||_F, lowest)`` for square ``x`` with Hermitian part ``x_h``, where ``h >= ||x_h^-1||_2``.

    ``h`` is the reciprocal of the floor ``lowest`` less the backward error
    of ``eigvalsh`` (:func:`linalg._kernel_error`), ``inf`` where that is not
    positive; the empty matrix gives ``(0, 0, inf)``.
    """
    if not x.size:
        return 0.0, 0.0, np.inf
    xh = 0.5 * (x + x.conj().T)
    lowest = float(np.linalg.eigvalsh(xh)[0])
    floor = lowest - _kernel_error(x.shape[0], _fro(xh))
    return (1.0 / floor if floor > 0.0 else np.inf), _fro(x - xh), lowest


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
    ``[V1 V2] = v0 [q1 q2]`` the iterate is read back through, and the
    right-hand side ``[r1(t); r2]``, the function r1 and the array r2: the
    factor t divided out of its q2 rows leaves r2 free of t.  It forms no
    product of its own beyond the elimination of K22 below and the QR of
    :meth:`error_basis`.  The two limits differ only in how they build
    these pieces (:meth:`pencil`, :meth:`pair`), from splits their callers
    already hold.  One ``eigvalsh`` gives the floor of H11 and ``h_low``,
    its smallest computed eigenvalue.  A caller that knows ``k_mid`` to be
    Hermitian with a bounded PSD defect passes ``delta``, the shift of
    :meth:`_schur_constants` that makes the computed K positive
    semidefinite; the solver then bounds ``cond_2(S(t))`` for every t
    from that floor and one ``eigvalsh`` of K22.

    K22 is eliminated once per trace: one LU solve ``K22^-1 [K21, r2] =
    [X, z]`` gives the Schur complement ``Sigma = K11 - K12 X`` of K22 in
    K, ``c0 = V2 z`` and ``Bq = V1 - V2 X``.  Since the second block row
    reads ``y2 = z - X y1``, the first becomes

        Z(t) y1 = r1(t) - t K12 z,    Z(t) = H11 + t Sigma,

    and ``x(t) = c0 + Bq y1``: a system of order r = rank(G) per point in
    place of the joint dimension d, and a read-back of order r.  Both
    pivot blocks are no worse conditioned than S.  With the block inverse
    of :meth:`_schur_constants`, ``Z^-1`` is the (1,1) block of ``S^-1``
    and ``(S^-1)_22 = K22^-1 + t X Z^-1 X*``; for t >= 0 and Hermitian
    positive semidefinite K, Z >= H11 is positive definite, so ``K22^-1
    <= (S^-1)_22`` and both inverses are at most ``||S^-1||`` in norm.
    K22 and Z are at most ``||S||`` in norm: K22 is a block of S, and
    ``H11 <= Z <= H11 + t K11`` because ``0 <= Sigma <= K11``.  So
    ``cond(K22)`` and ``cond(Z)`` are at most ``cond(S)``: the block LU
    factorization behind the elimination (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 13) inverts no pivot block worse
    conditioned than S, and :meth:`iterate` uses it only where
    ``cond(S)`` is known to be small.
    """

    def __init__(self, basis, h11, k11, k12, k22, r1, r2, tol: ToleranceConfig, delta: float):
        self.basis = basis
        self.h11, self.k11, self.k12, self.k22 = h11, k11, k12, k22
        self.r1, self.r2 = r1, r2
        self.tol = tol
        *h_floor, self.h_low = _hermitian_floor(h11)
        self.schur = self._schur_constants(delta, *h_floor)
        self.reduced = self._eliminate_k22()

    def _eliminate_k22(self):
        """``(Sigma, K12 z, c0, Bq)`` of the class docstring, or ``None`` where LU finds K22 singular.

        Where r2 is zero, so are z, ``K12 z`` and c0: K22 is solved for K21
        alone and both are ``None``.
        """
        r = self.h11.shape[0]
        k21 = self.k12.conj().T
        r2_zero = not self.r2.any()
        try:
            xz = np.linalg.solve(self.k22, k21 if r2_zero else np.hstack([k21, self.r2]))
        except np.linalg.LinAlgError:
            return None
        x = xz[:, :r]
        v1, v2 = self.basis[:, :r], self.basis[:, r:]
        if r2_zero:
            return self.k11 - self.k12 @ x, None, None, v1 - v2 @ x
        z = xz[:, r:]
        return self.k11 - self.k12 @ x, self.k12 @ z, v2 @ z, v1 - v2 @ x

    def rhs(self, t: float) -> np.ndarray:
        """The right-hand side ``[r1(t); r2]`` of the whole system S(t)."""
        return np.vstack([self.r1(t), self.r2])

    def error_basis(self) -> np.ndarray | None:
        """An orthonormal basis of ``range(Bq)``, which holds every ``x(t) - x(0)``, from one QR.

        ``None`` where K22 was not eliminated, or where 2r exceeds the
        smaller side of the iterate, so that projecting each error onto
        the basis would cost more than the Gram of the whole error.
        """
        if self.reduced is None:
            return None
        bq = self.reduced[3]
        h, r = bq.shape
        if not r or 2 * r > min(h, self.r2.shape[1]):
            return None
        return np.linalg.qr(bq)[0]

    def _schur_constants(self, delta: float, h: float, h_skew: float):
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
          of the exact ``k* k_mid k`` (:func:`linalg._product_rounding`), which is
          at least ``-mid_defect ||k||_F^2`` when ``lambda_min(k_mid) >=
          -mid_defect``; so ``delta = ||k||_F^2 (mid_defect + gamma
          ||k_mid||_F)`` (:func:`_psd_shift`, computed by the factory that
          knows k and k_mid) makes K' positive semidefinite, and S0 obeys
          the bound above;
        - ``||E||_2 <= r0 + t r1 + 2u ||S||_F`` (:func:`linalg._sum_error`), with
          ``r0 = ||H11 - H_h||_F + ||K22 - K22_h||_F + delta`` (the
          non-Hermitian parts and the shift), ``r1 = ||K11 - K11_h||_F +
          delta + u (||K11||_F + ||K12||_F)`` (the same for K11, and the
          rounding of ``t K11`` and ``t K12``), and ``2u ||S||_F`` for the
          rounding of the sum ``H11 + t K11``;
        - h and g are the floors of ``H_h`` and ``K22_h`` from
          :func:`_hermitian_floor`, and ``K22' >= K22_h``.

        The constructor passes h and ``h_skew = ||H11 - H_h||_F``.  Returns
        ``(h, g, c, r0, r1, ||K22||_F^2, 2u)``, or ``None`` when a floor is
        not positive, so that the bound is infinite at every t.
        """
        g, k22_skew, _ = _hermitian_floor(self.k22)
        if not (np.isfinite(h) and np.isfinite(g)):
            return None
        k11_herm = 0.5 * (self.k11 + self.k11.conj().T)
        c = _fro(self.k12)
        r0 = h_skew + k22_skew + delta
        r1 = _fro(self.k11 - k11_herm) + delta + _sum_error(_fro(self.k11) + c)
        return h, g, c, r0, r1, _fro(self.k22) ** 2, _sum_error(1.0, 2)

    def _schur_bound(self, t: float) -> float:
        """``||S||_F beta(t) / (1 - beta(t) r(t))``, an upper bound on ``cond_2(S(t))``.

        Since ``sigma_min(S) >= 1 / beta - ||E||_2`` (the terms of
        :meth:`_schur_constants`), it holds wherever ``beta r < 1``; it is
        taken where ``beta r <= 1/2``, and is ``inf`` elsewhere or without
        the constants.  Its own arithmetic is on norms, sums and products
        of nonnegative numbers, and the one difference ``1 - beta r`` at
        most doubles their relative error; the cap of
        :func:`linalg._cond_cap` absorbs that.  ``||S||_F`` is read off the blocks,
        ``||H11 + t K11||_F^2 + (1 + t^2) ||K12||_F^2 + ||K22||_F^2``, so S
        is not formed.
        """
        if self.schur is None:
            return np.inf
        h, g, c, r0, r1, k22_sq, sum_rel = self.schur
        # overflow only means that the bound does not clear
        with np.errstate(over="ignore", invalid="ignore"):
            s_norm = np.sqrt(_fro(self.h11 + t * self.k11) ** 2 + (1.0 + t * t) * c * c + k22_sq)
            cg = c * g
            beta = h * (1.0 + cg) * (1.0 + t * cg) + g
            r = r0 + t * r1 + sum_rel * s_norm
            # written so that NaN fails
            if not beta * r <= 0.5:
                return np.inf
            return s_norm * beta / (1.0 - beta * r)

    @classmethod
    def pencil(cls, pen: _Pencil, tol: ToleranceConfig) -> "_GradedSolver":
        """``(A* V A + t B* W B)^+ A* V`` for the checked pencil ``pen``.

        The solver works in the row basis ``[V1 V2] = [V_r, V_0 W]`` of
        ``[A; B]`` from ``pen.joint`` (:func:`_joint_rows`): V1 is A's row
        basis and V2 lies in A's null space, so that basis is the split
        itself, with ``a1 = A V1``, ``k1 = B V1`` and ``k2 = (B V_0) W`` from
        the product whose SVD found W; no decomposition is made here.  W is
        exactly Hermitian with every computed eigenvalue positive, so its PSD
        defect is at most :func:`linalg._kernel_error` of it.
        """
        am, bm, split, joint, vw, ww = pen
        vmat, wmat = vw.matrix, ww.matrix
        a1 = am @ split.v_r
        h11, k1, k2 = a1.conj().T @ vmat @ a1, bm @ split.v_r, joint.b_w
        r1 = a1.conj().T @ vmat
        k1w = k1.conj().T @ wmat
        delta = _psd_shift(_fro(k1) ** 2 + _fro(k2) ** 2, _kernel_error(ww.dim, _fro(wmat)), wmat)
        k22 = k2.conj().T @ wmat @ k2
        # A V2 vanishes, and so does r2
        r2 = np.zeros((k2.shape[1], am.shape[0]))
        return cls(joint.v_r, h11, k1w @ k1, k1w @ k2, k22, lambda t: r1, r2, tol, delta)

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
        B's compression, the target's own decision, so the target and the
        solver read B's part from one rank decision.
        By :func:`linalg._kernel_error` for ``b_min`` and
        :func:`linalg._product_rounding` for ``v0* B v0`` the smallest
        eigenvalue of ``k_mid`` is at least ``-||v0||_F^2 (max(0, n eps
        ||B||_F - b_min) + gamma ||B||_F)``.
        The solver's ``h_low``, of ``H11 = U_r* A U_r``, also serves :func:`_psd_lower_bound`.
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
        defect = _fro(v0) ** 2 * (max(0.0, _kernel_error(n, b_norm) - b_min) + _product_rounding(n) * b_norm)
        # k = [q1 q2] is the identity, so ||k||_F^2 is the joint dimension
        delta = _psd_shift(float(v0.shape[1]), defect, bt)
        return cls(v0, h11, bt[:r, :r], bt[:r, r:], bt[r:, r:], lambda t: t * g1, g2, tol, delta)

    def iterate(self, t: float) -> tuple[np.ndarray, float]:
        """The iterate at ``t`` and the condition number of its system, or a bound on it.

        Where the bound of :meth:`_schur_bound` is at most the cap of
        :func:`linalg._cond_cap`, S is no rank flip and the bound is returned
        in place of the condition number; elsewhere the singular values of S
        give it.  Wherever ``cond(S) <= cap`` is so known, the point solves
        the order-r system of the eliminated K22 (class docstring); the same
        rule reads the bound or the singular values, so a trace is bitwise
        the same with and without the bound.  Where ``cond(S) > cap``, or LU
        found K22 singular, the point makes one LU solve of the whole S, or the
        truncated SVD solve where sigma_min(S) falls to the cutoff of
        :meth:`SvdFactorization.solve` or LU meets an exactly singular S.
        Only a point the bound does not certify forms S.  The empty system
        gives a zero iterate and condition number 1.
        """
        d = self.h11.shape[0] + self.k22.shape[0]
        if not d:
            return self.basis @ self.rhs(t), 1.0
        cap = _cond_cap(self.tol.inv_cond_max, d)
        bound = self._schur_bound(t)
        if bound <= cap and self.reduced is not None:
            return self._eliminated(t), bound
        system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
        sigma = np.linalg.svd(system, compute_uv=False)
        cond = _cond(sigma)
        if cond <= cap and self.reduced is not None:
            return self._eliminated(t), cond
        rhs = self.rhs(t)
        if sigma[-1] > _solve_cutoff(sigma, system.shape):
            try:
                return self.basis @ np.linalg.solve(system, rhs), cond
            except np.linalg.LinAlgError:
                pass
        return self.basis @ svd_factor(system).solve(rhs), cond

    def _eliminated(self, t: float) -> np.ndarray:
        """``c0 + Bq Z(t)^-1 (r1(t) - t K12 z)``, the iterate with K22 eliminated; ``Bq Z(t)^-1 r1(t)`` for zero r2."""
        k_schur, kz, c0, bq = self.reduced
        y1 = np.linalg.solve(self.h11 + t * k_schur, self.r1(t) if c0 is None else self.r1(t) - t * kz)
        return bq @ y1 if c0 is None else c0 + bq @ y1


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
    U.  The default U is that of :func:`omega_weight` with X = V, read
    through its null-space row alone (:func:`_default_target`).  V and
    W must be positive definite.  A degenerate scaled system at some
    schedule point (the finite analogue of the pencil dropping rank) is
    reported through ``RankFlipWarning`` and recorded on the trace.
    ``atol`` overrides the convergence threshold recorded on the trace;
    the default is ``1e-8 * (1 + ||target||)``.
    """
    s = _check_schedule(DEFAULT_T_SCHEDULE if schedule is None else schedule, decreasing=True)
    _check_atol(atol)
    u_weight = None if u is None else u.u if isinstance(u, OmegaWeight) else as_weight(u, tol)
    pen = _pencil_inputs(a, b, v, w, tol)
    if u_weight is None:
        target = _default_target(pen, tol)
    else:
        if u_weight.dim != pen.a.shape[1]:
            raise ValueError(f"u must weigh the columns of a (dimension {pen.a.shape[1]})")
        target = _required_on_split(pen.split, pen.v, pen.split.v_0.conj().T @ u_weight.matrix, tol)[1]
    solver = _GradedSolver.pencil(pen, tol)
    return _trace_over(s, solver.iterate, target, tol, atol, solver.error_basis())


def _psd_lower_bound(a_sym, split_a: SplitBasis, h11, h_low: float) -> float:
    """A lower bound, never positive, on ``lambda_min(A)`` for Hermitian A with the split ``split_a``.

    ``h_low`` is the smallest computed eigenvalue of ``H = U_r* A U_r`` (inf
    for r = 0).  ``||A U_0|| = ||V_0 Sigma_0|| = sigma_{r+1}`` bounds ``X = U_r*
    A U_0`` and ``[X; Y] = U* A U_0``, so Weyl on ``U* A U = diag(H, 0) + [[0,
    X], [X*, Y]]`` gives ``lambda_min(A) >= min(lambda_min(H), 0) - 2
    sigma_{r+1}``.  Rounding, with u = n eps of :func:`linalg._kernel_error`: ``U'
    S V'* = A + E``, ``||E|| <= u ||A||_F``, ``U' = Q P`` with Q unitary and
    ``||P - I|| <= u``, so the bound for ``U'`` loses a factor ``1 + 3u``
    (Ostrowski); ``U'* U'_0`` lies within u of ``[0; I]``, so ``||U'* A U'_0||
    <= (1 + 2u) (sigma_{r+1} + 3u ||A||_F)``; the computed H is within ``gamma
    ||U_r||_F^2 ||A||_F`` of ``U'_r* A U'_r`` (:func:`linalg._product_rounding`,
    plus ``eps ||H||_F`` for its Hermitian part) and ``h_low`` within ``r eps
    ||H||_F`` of its own.
    """
    n, r = split_a.u_r.shape
    u = _kernel_error(n)
    a_fro = _fro(a_sym)
    h_floor = min(h_low, 0.0) - _kernel_error(r + 1, _fro(h11)) - _product_rounding(n) * _fro(split_a.u_r) ** 2 * a_fro
    return (1.0 + 3.0 * u) * (h_floor - 2.0 * (1.0 + 2.0 * u) * (split_a.sigma_next + 3.0 * u * a_fro))


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
    ``verify_atol`` are rejected, A by :func:`_psd_lower_bound` or, where
    that does not clear, its eigenvalues.  A computed smallest eigenvalue
    of X (A or B) fails only below ``-verify_atol - n eps ||X||_F``, the
    rounding band of ``eigvalsh``, so the check does not depend on the
    scale of X.
    The error decays like 1 / lambda, so
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
    sym = {}
    for name, mat in (("a", am), ("b", bm)):
        ok, asym, sym[name] = _self_adjointness(mat, tol)
        if not ok:
            raise NotPositiveSemidefiniteError(f"{name} (not self-adjoint)", -asym)
    a_sym, b_sym = sym["a"], sym["b"]
    # an empty matrix passes with the one eigenvalue 0
    b_eigs = np.linalg.eigvalsh(b_sym) if b_sym.size else np.zeros(1)

    n = a_sym.shape[0]
    split_a = _split_basis(a_sym, tol)
    # with P the projector onto the range of A, ((I - P) B (I - P))^+ B is
    # U_0 (U_0* B U_0)^+ U_0* B
    u_0 = split_a.u_0
    ub = u_0.conj().T @ b_sym
    comp = ub @ u_0
    comp = 0.5 * (comp + comp.conj().T)
    # when the range of A covers that of B the compression is an exact zero plus
    # rounding, so its rank is cut on the scale of ||B|| = max |eig B| (order n),
    # which dominates the relative cutoff: sigma_max of the compression is at most ||B||
    comp_svd = svd_factor(comp, tol, cutoff=_rank_cutoff(float(np.max(np.abs(b_eigs))), (n, n), tol))
    f = comp_svd.pinv() @ ub
    target = u_0 @ f
    u_w = u_0 @ comp_svd.range_basis
    solver = _GradedSolver.pair(a_sym, b_sym, split_a.u_r, u_w, float(b_eigs[0]), tol)
    a_low = _psd_lower_bound(a_sym, split_a, solver.h11, solver.h_low)
    if a_low < -tol.verify_atol:
        a_low = float(np.linalg.eigvalsh(a_sym)[0])
    # eigvalsh may put an eigenvalue _kernel_error below the exact one; the bound holds its own
    for name, low, mat in (("a", a_low, a_sym), ("b", float(b_eigs[0]), b_sym)):
        if low < -tol.verify_atol - _kernel_error(n, _fro(mat)):
            raise NotPositiveSemidefiniteError(name, low)
    if atol is None:
        # ||U_0 F|| = ||F||, from a Gram of order n - r
        atol = 1e-6 * (1.0 + _residual_norm(f))
    return _trace_over(s, lambda lam: solver.iterate(1.0 / lam), target, tol, atol, solver.error_basis())


@dataclass(frozen=True)
class SeparatedPairReport:
    """Separation verdict for the row spaces of a pair of matrices.

    Two criteria are computed: ``||P Q|| < 1`` with a margin of
    ``SEPARATION_MARGIN``, and numerical invertibility of ``2I - P - Q``.
    They agree outside a narrow band; inside it
    ``CriteriaDisagreeError`` is raised instead of guessing.
    ``intersection_dim`` counts the singular values of ``2I - P - Q`` that
    fail the invertibility test and ``sum_rank`` is ``rank(A) + rank(B) -
    intersection_dim``, so a pair is separated exactly when the first is 0.
    """

    is_separated: bool
    pq_norm: float
    two_minus_sum_cond: float
    intersection_dim: int
    sum_rank: int


def separated_pair_check(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> SeparatedPairReport:
    """Decide whether the row spaces of ``a`` and ``b`` are separated."""
    am, bm = as_matrix(a), as_matrix(b)
    _check_columns(am, bm)
    return _separation(_split_basis(am, tol).v_r, bm, tol)[0]


def _separation(va, bm, tol) -> tuple[SeparatedPairReport, np.ndarray, SvdFactorization]:
    """:func:`separated_pair_check` on A's row basis ``va``, with the projector P
    onto ``va`` and the SVD of ``2I - P - Q`` it used.

    ``||P Q||`` is read off that SVD: ``||P + Q|| = 1 + ||P Q||`` for
    orthogonal projectors that are not both zero, and ``sigma_min(2I - P -
    Q) = 2 - ||P + Q||`` since ``0 <= P + Q <= 2I``.  Both zero gives 2, and
    ``||P Q|| = max(0, 1 - sigma_min)`` covers every case.
    """
    vb = svd_factor(bm, tol).row_basis
    p = va @ va.conj().T
    q = vb @ vb.conj().T
    h = va.shape[0]
    # anchor the cutoff to the scale of 2I rather than to sigma_max(two):
    # when the row spaces coincide, two is an exact zero plus rounding,
    # and the relative condition of noise looks deceptively small
    two = svd_factor(2.0 * np.eye(h, dtype=np.complex128) - p - q, tol, cutoff=_rank_cutoff(2.0, (h, h), tol))
    s = two.sigma
    pq_norm = max(0.0, 1.0 - float(s[-1])) if s.size else 0.0
    # the condition each singular value sets as the smallest, inf at or below
    # the cutoff; nondecreasing, so those past inv_cond_max come last
    conds = np.divide(s[:1], s, out=np.full(s.size, np.inf), where=s > two.cutoff)
    cond = float(conds.max(initial=1.0))
    by_norm = pq_norm <= 1.0 - SEPARATION_MARGIN
    by_inverse = cond <= tol.inv_cond_max
    if by_norm != by_inverse:
        raise CriteriaDisagreeError(pq_norm, cond)
    meet = int(np.count_nonzero(conds > tol.inv_cond_max))
    return SeparatedPairReport(by_norm, pq_norm, cond, meet, va.shape[1] + vb.shape[1] - meet), p, two


def closed_form_separated(a, b, v, w, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the pencil inverse action for separated row spaces.

    Returns ``(Pi, D)`` with

        Pi = (2I - P - Q)^{-1} (A* V A)^+ A* V,
        D  = (A* V A)^+ A* V - (I - P) Pi,

    which ``(A* V A + t B* W B)^+ A* V`` equals at every t > 0 where that
    pencil is invertible on the joint row space, whatever W: D depends on B
    only through its row space.  D satisfies the four identities that
    define ``Z = A+_{V,Omega}`` for the default ``Omega = A* V A + B* W B +
    P_null`` of :func:`limit_t_to_zero`, so it is checked against Z, which
    the factored formula computes on A's split; no pencil is solved and
    nothing is drawn at random.  Raises ``NotSeparatedError`` when the row
    spaces are not separated and ``NonExistentError`` when Z does not exist.
    """
    pen = _pencil_inputs(a, b, v, w, tol, definite=False)
    report, p, two = _separation(pen.split.v_r, pen.b, tol)
    if not report.is_separated:
        raise NotSeparatedError(report.pq_norm)
    return _separated_closed_form(_default_target(pen, tol), p, two, "separated closed form", tol)


def _separated_closed_form(z, p, two, what: str, tol, pencil=None) -> tuple[np.ndarray, np.ndarray]:
    """``(Pi, D)`` for separated row spaces from ``Z = A+_{V,Omega}``, checked against Z.

    P is the row-space projector of A and ``two`` the SVD of ``2I - P - Q``
    that decided the separation.  In the split of A, ``Z = (V_r - V_0 C)
    Sigma^-1 L*`` with ``C = Omega_00^-1 Omega_0r`` and L read off V alone
    (:mod:`core`), and ``V_r* V_0 = 0``, so ``P Z = V_r Sigma^-1 L*`` is
    ``A+_{V,I} = (A* V A)^+ A* V``: the base of the closed form, with no
    decomposition of its own.  ``pencil``, where given, is the pencil at a
    caller's W and t = 1, which D must equal as well; ``VerificationError``
    names ``what`` otherwise.
    """
    base = p @ z
    pi = two.solve(base)
    d = base - (np.eye(p.shape[0], dtype=np.complex128) - p) @ pi
    scale = 1.0 + operator_norm(d)
    _verify(f"{what} against the weighted inverse", operator_norm(z - d), scale, tol)
    if pencil is not None:
        _verify(f"{what} against the pencil at w_prime", operator_norm(pencil - d), scale, tol)
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
    ``Z = A+_{V,U}``, which reads U by its null-space row.  Singular values of ``b2`` below
    ``verify_atol * (1 + ||B||)`` are rounding debris inherited from Z
    and are truncated away, so the row space of ``b2`` is decided on its
    genuine directions; ``b1 = B - b2`` keeps the split exact.  The three
    structural properties are verified before returning:
    W-orthogonality of the parts, containment of the rows of ``b1`` in
    the row space of A, and separation of ``b2`` from A.
    """
    return _decompose_b(_pencil_inputs(a, b, v, w, tol), tol)[0]


def _decompose_b(pen: _Pencil, tol) -> tuple[BDecomposition, np.ndarray, SvdFactorization]:
    """:func:`decompose_b` on ``pen``, with the P and the SVD of ``2I - P - Q2`` that separated ``b2``."""
    am, bm, sp, _, _, ww = pen
    z = _default_target(pen, tol)
    b2_raw = bm - bm @ z @ am
    b_scale = 1.0 + operator_norm(bm)
    b2_svd = svd_factor(b2_raw, tol, cutoff=tol.verify_atol * b_scale)
    b2 = (b2_svd.range_basis * b2_svd.sigma[: b2_svd.rank]) @ b2_svd.vh[: b2_svd.rank]
    b1 = bm - b2

    w_cross = operator_norm(b2.conj().T @ ww.matrix @ b1)
    _verify("W-orthogonality of the B split", w_cross, b_scale**2 * (1.0 + operator_norm(ww.matrix)), tol)

    # ||(I - P) b1*|| = ||V_0* b1*||, read off the split Z was computed on
    containment = operator_norm(b1 @ sp.v_0)
    _verify("row-space containment of b1", containment, b_scale, tol)

    report, p, two = _separation(sp.v_r, b2, tol)
    if not report.is_separated:
        raise NotSeparatedError(report.pq_norm)
    return BDecomposition(b1, b2, z, w_cross, containment, report), p, two


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
) -> GeneralLimitResult:
    """Evaluate the t -> 0 pencil limit by reducing to the separated case.

    Splits B into ``b1 + b2`` with :func:`decompose_b`, forms

        Pi' = (2I - P - Q2)^{-1} (A* V A)^+ A* V,
        D   = (A* V A)^+ A* V - (I - P) Pi',

    where Q2 projects onto the row space of ``b2``, from the weighted
    inverse ``Z = A+_{V,Omega}`` that :func:`decompose_b` splits B against,
    verifies that D equals Z, then traces the original pencil ``(A* V A + t
    B* W B)^+ A* V`` against the target D.  A positive definite ``w_prime``,
    where given, is checked before any decomposition, and D must also equal
    the separated pencil ``(A* V A + b2* W' b2)^+ A* V``; without it no
    pencil is solved at t = 1 and nothing is drawn at random.
    """
    s = _check_schedule(DEFAULT_T_SCHEDULE if schedule is None else schedule, decreasing=True)
    if w_prime is not None:
        w_prime = as_weight(w_prime, tol)
        if not w_prime.positive_definite:
            raise WeightError("w_prime must be positive definite")
    pen = _pencil_inputs(a, b, v, w, tol)
    if w_prime is not None and w_prime.dim != pen.b.shape[0]:
        raise ValueError(f"w_prime must weigh the rows of b (dimension {pen.b.shape[0]})")
    dec, p, two = _decompose_b(pen, tol)

    pencil = None
    if w_prime is not None:
        separated = pen._replace(b=dec.b2, joint=_joint_rows(pen.split, dec.b2, tol), w=w_prime)
        pencil = _GradedSolver.pencil(separated, tol).iterate(1.0)[0]
    pi, d = _separated_closed_form(dec.z, p, two, "separated reduction of the pencil limit", tol, pencil)
    solver = _GradedSolver.pencil(pen, tol)
    trace = _trace_over(s, solver.iterate, d, tol, basis=solver.error_basis())
    return GeneralLimitResult(decomposition=dec, pi=pi, closed_form=d, trace=trace)
