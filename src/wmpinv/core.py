"""Weighted Moore-Penrose inverses for self-adjoint invertible weights.

For a matrix A with codomain weight M and domain weight N (both
self-adjoint and invertible, possibly indefinite), the weighted inverse
A+_MN is the unique X satisfying

    A X A = A,   X A X = X,   (M A X)* = M A X,   (N X A)* = N X A,

whenever it exists.  It is computed here from the factored form

    A+_MN = R^{-1} A+ L^{-1},
    R = A+ A + (I - A+ A) N,      L = A A+ + M^{-1} (I - A A+),

and it exists exactly when both factors are invertible.  In the bases
``[V_r V_0]``, ``[U_r U_0]`` of one full SVD of A (rank r) the factors
are ``R = [[I, 0], [N_0r, N_00]]`` and ``L = [[I, Mi_r0], [0, Mi_00]]``
with ``Mi = M^{-1}``, so the inverse needs solves of size n - r and m - r:

    A+_MN = (V_r - V_0 N_00^{-1} N_0r) Sigma_r^{-1} (U_r - U_0 Mi_00^{-1} Mi_0r)*

A enters only through that split, so a caller holding A fixed while the
weights move splits it once and hands the split to ``_inverse_on_split``,
which returns the verdict and the inverse alone; only ``wmp_inverse``
adds the Penrose residuals.  Both take N as its null-space row ``V_0* N``,
all of N that they read.

The verdict compares the 2-norm condition numbers of R and L to
``inv_cond_max``.  R differs from the identity only in its n - r
null-space rows and L in its m - r null-space columns, so one helper,
``_factor_cond``, decides either factor from its null-space blocks with
a values-only SVD of order at most 2(n - r) or 2(m - r).  ``_decide``
calls it for R and L, ``equivalent_domain_weights`` for R alone.  No
dense R, L or plain Moore-Penrose inverse is formed on the way: a report
builds them from the split and the null-space rows only when they are
first read.  The Penrose residuals of a computed inverse are exact
2-norms taken from Hermitian eigenvalues, all four from one batched
``eigvalsh`` (``_penrose_residuals``).

The inverse reads N only through ``C = N_00^{-1} N_0r`` and M only
through ``D = Mi_00^{-1} Mi_0r``, which a report solves from the blocks
of its verdict once, on first read, for the inverse and for the S and T
of ``positive_reduction``.  ``_coupled_weight``, the one routine that
forms a weight with a given coupling, makes the members of
``equivalent_domain_weights`` and that S and T: not the theorem's ``T =
R* R``, ``S = (L L*)^{-1}``, which square ``r_cond`` and ``l_cond``, but
closed forms of ``cond(T) <= 4 (1 + ||C||_F^2)`` and ``cond(S) <= 4 (1 +
||D||_F^2)``.

Public functions coerce and check; ``_``-prefixed routines take checked
complex128 arrays.  So ``_problem`` checks A and the weights once, and
the inverse takes its residuals from ``_penrose_residuals``, the routine
behind ``verify_weighted_penrose``, without that function's checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    NonExistentError,
    NotIdempotentError,
    WeightError,
)
from .linalg import (
    DEFAULT_TOL,
    SplitBasis,
    ToleranceConfig,
    _fro,
    _gram_or_norm,
    _rank_cutoff,
    _split_basis,
    _verify,
    as_matrix,
    hermitian_power,
    mp_inverse,
    operator_norm,
)
from .sampling import random_spd, rng_from
from .weights import Weight, as_weight

__all__ = [
    "ExistenceReport",
    "WmpResult",
    "PositiveReduction",
    "EquivalentWeightFamily",
    "weighted_adjoint",
    "wmp_exists",
    "wmp_inverse",
    "require_wmp_inverse",
    "verify_weighted_penrose",
    "wmp_inverse_positive",
    "positive_reduction",
    "equivalent_domain_weights",
    "weight_transfer_domain",
    "weight_transfer_codomain",
    "rho_embed",
    "matched_projection",
]


def _problem(a, m, n, tol):
    """Coerce a weighted problem and check that the weights fit the matrix."""
    am = as_matrix(a)
    mw = as_weight(m, tol)
    nw = as_weight(n, tol)
    if mw.dim != am.shape[0] or nw.dim != am.shape[1]:
        raise ValueError(
            f"weight dimensions {mw.dim}, {nw.dim} do not match matrix shape {am.shape}"
        )
    return am, mw, nw


def _singular_factor(r_cond: float, l_cond: float, tol: ToleranceConfig) -> tuple[str, float]:
    """Name and condition number of the factor that rules out an inverse.

    Called only when the inverse does not exist: R is named whenever it
    is not invertible, L only when R is.  When both are exactly singular
    their condition numbers are rounding noise, so comparing them would
    name a factor at random.
    """
    if r_cond > tol.inv_cond_max:
        return "R_{A,N}", r_cond
    return "L_{A,M^-1}", l_cond


def weighted_adjoint(t, m, n, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Adjoint of ``t`` with respect to the weighted inner products.

    ``m`` weighs the codomain (rows of ``t``), ``n`` the domain.  The
    result is ``N^{-1} T* M`` and satisfies ``<Tx, y>_M = <x, T#y>_N``.
    """
    tm, mw, nw = _problem(t, m, n, tol)
    return np.linalg.solve(nw.matrix, tm.conj().T @ mw.matrix)


@dataclass(frozen=True)
class ExistenceReport:
    """Invertibility verdict for the two factors of the factored formula.

    ``r_cond`` and ``l_cond`` are the 2-norm condition numbers of
    ``r_factor`` and ``l_factor``, each decided by :func:`_factor_cond` from the
    null-space blocks of its factor through values-only SVDs of order at
    most 2(n - r) and 2(m - r); ``r_invertible`` and ``l_invertible``
    compare them to ``inv_cond_max``.  ``_rows`` holds the split of A, the
    null-space rows ``V_0* N`` and ``M^{-1} U_0`` and the blocks ``(N_0r,
    N_00)`` and ``(Mi_0r, Mi_00)`` of the verdict.  The dense factors and
    the couplings C and D are built from them on first read, then cached,
    as ``Weight.inverse`` is.
    """

    exists: bool
    r_invertible: bool
    l_invertible: bool
    r_cond: float
    l_cond: float
    _rows: tuple = field(repr=False, compare=False)

    @cached_property
    def r_factor(self) -> np.ndarray:
        """``R = I + V_0 (V_0* N - V_0*)``, the dense form of ``[[I, 0], [N_0r, N_00]]``."""
        sp, n_0 = self._rows[:2]
        return np.eye(n_0.shape[1], dtype=np.complex128) + sp.v_0 @ (n_0 - sp.v_0.conj().T)

    @cached_property
    def l_factor(self) -> np.ndarray:
        """``L = I + (M^{-1} U_0 - U_0) U_0*``, the dense form of ``[[I, Mi_r0], [0, Mi_00]]``."""
        sp, mi_u0 = self._rows[0], self._rows[2]
        return np.eye(sp.u_r.shape[0], dtype=np.complex128) + (mi_u0 - sp.u_0) @ sp.u_0.conj().T

    @cached_property
    def _couplings(self) -> tuple[np.ndarray, np.ndarray]:
        """``C = N_00^{-1} N_0r`` and ``D = Mi_00^{-1} Mi_0r``, each by one LU solve.

        Read only once the verdict holds, where LU is safe: in the V basis
        ``N_00`` is a diagonal block of R and ``N_00^{-1}`` one of ``R^{-1}``,
        so ``cond(N_00) <= cond(R) <= inv_cond_max``, and L bounds
        ``cond(Mi_00)`` the same way.  An empty block, where A has full rank
        on that side or is zero, is its own coupling and needs no solve.
        """
        return tuple(np.linalg.solve(c, b) if b.size else b for b, c in self._rows[3:])


@dataclass(frozen=True)
class WmpResult(ExistenceReport):
    """Weighted inverse together with the verdict it was computed under.

    The verdict fields are those of the :class:`ExistenceReport` that
    :func:`_factor_cond` decided.  ``inverse`` is ``None`` when the weighted
    inverse does not exist; the plain Moore-Penrose inverse ``mp`` can
    always be read, and like the factors it is built from the split on
    first read.  ``penrose_residuals`` holds the four weighted Penrose
    residuals in operator norm, ``None`` when there is no inverse.
    """

    inverse: np.ndarray | None
    penrose_residuals: np.ndarray | None

    @cached_property
    def mp(self) -> np.ndarray:
        """Moore-Penrose inverse ``V_r Sigma_r^{-1} U_r*`` of A."""
        return self._rows[0].pinv()


def _factor_cond(b: np.ndarray, c: np.ndarray) -> float:
    """2-norm condition number of ``[[I_r, 0], [b, c]]``, ``b`` k x r and ``c`` k x k.

    When r > k, ``b`` is replaced by ``T*`` with ``b* = Q T`` (thin QR):
    a unitary change of the first r coordinates then splits the matrix
    into ``[[I_k, 0], [T*, c]]`` and an identity of order r - k, so an SVD
    of order 2k gives every singular value but those r - k ones.  For
    r <= k the matrix itself has order at most 2k, and a QR there costs
    about what it saves.
    """
    k, r = b.shape
    if not k:
        return 1.0
    if r > k:
        b = np.linalg.qr(b.conj().T, mode="r").conj().T
    j = b.shape[1]
    g = np.eye(j + k, dtype=np.complex128)
    g[j:, :j] = b
    g[j:, j:] = c
    s = np.linalg.svd(g, compute_uv=False)
    hi, lo = s[0], s[-1]
    if r > k:
        hi, lo = max(hi, 1.0), min(lo, 1.0)
    return float("inf") if lo == 0.0 else float(hi / lo)


def _coupled_weight(b_1: np.ndarray, b_2: np.ndarray, c: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """``B E* diag(top, bottom) E B*``, Hermitian, for ``B = [b_1 b_2]`` unitary and ``E = [[I, 0], [c, I]]``.

    In the basis B: ``[[top + c* bottom c, c* bottom], [bottom c, bottom]]``,
    positive definite with the coupling ``W_22^{-1} W_21 = c`` when ``top``
    and ``bottom`` are.  For ``top = I``, ``bottom = eps I`` and ``eps = 1 /
    (1 + ||c||_F^2)``, ``cond <= 4 / eps``: for ``c = P diag(s) Q*``,
    ``diag(Q, P)`` splits ``E* diag(I, eps I) E`` into entries 1 or eps and
    one block ``[[1 + eps s^2, eps s], [eps s, eps]]`` per singular value s,
    of trace ``1 + eps (1 + s^2) <= 2`` and determinant eps, so of
    eigenvalues in ``[eps / 2, 2]``: the larger is at most the trace, and
    the smaller is eps over the larger.
    """
    g = b_2 + b_1 @ c.conj().T  # B E* [0; I]
    w = b_1 @ top @ b_1.conj().T + g @ bottom @ g.conj().T
    return 0.5 * (w + w.conj().T)


def _decide(sp: SplitBasis, m, n_0, tol) -> ExistenceReport:
    """Decide existence from R and L in the bases of the split ``sp`` of A.

    N is given by its null-space row ``n_0 = V_0* N``, M in full.  In
    those bases ``R = [[I, 0], [N_0r, N_00]]`` and ``L = [[I, Mi_r0], [0,
    Mi_00]]``.  The verdict compares their 2-norm condition numbers to
    ``inv_cond_max``; :func:`_factor_cond` reads both off the blocks, L
    through its adjoint ``[[I, 0], [Mi_0r, Mi_00]]`` with ``Mi_0 = (M^{-1}
    U_0)*``, which is ``U_0* M^{-1}`` as ``M^{-1}`` is Hermitian.  M enters
    only through ``M^{-1} U_0``, which one LU solve with m - r right-hand
    sides gives (a ``Weight`` has ``cond(M) <= inv_cond_max``), so no
    inverse of M is formed, and neither are the dense R and L: the report
    builds them from ``n_0`` and ``M^{-1} U_0`` when they are read, and
    keeps the blocks for the couplings of the inverse.
    """
    mi_u0 = np.linalg.solve(m, sp.u_0) if sp.u_0.size else sp.u_0
    mi_0 = mi_u0.conj().T
    n_blocks = n_0 @ sp.v_r, n_0 @ sp.v_0
    mi_blocks = mi_0 @ sp.u_r, mi_0 @ sp.u_0
    r_cond, l_cond = _factor_cond(*n_blocks), _factor_cond(*mi_blocks)
    r_ok = r_cond <= tol.inv_cond_max
    l_ok = l_cond <= tol.inv_cond_max
    return ExistenceReport(
        exists=r_ok and l_ok,
        r_invertible=r_ok,
        l_invertible=l_ok,
        r_cond=r_cond,
        l_cond=l_cond,
        _rows=(sp, n_0, mi_u0, n_blocks, mi_blocks),
    )


def wmp_exists(a, m, n, tol: ToleranceConfig = DEFAULT_TOL) -> ExistenceReport:
    """Decide existence of ``A+_MN`` from the two factor condition numbers."""
    am, mw, nw = _problem(a, m, n, tol)
    sp = _split_basis(am, tol)
    return _decide(sp, mw.matrix, sp.v_0.conj().T @ nw.matrix, tol)


def wmp_inverse(a, m, n, tol: ToleranceConfig = DEFAULT_TOL) -> WmpResult:
    """Compute ``A+_MN`` by the factored formula.

    Parameters
    ----------
    a : array_like
        Matrix of any shape and rank.
    m, n : Weight or array_like
        Codomain and domain weights; raw matrices are validated.
    tol : ToleranceConfig
        Rank and invertibility policy.

    Returns
    -------
    WmpResult
        With ``exists`` false (and ``inverse`` ``None``) when either
        factor is numerically singular.  No exception is raised here;
        operations that cannot proceed without the inverse raise
        ``NonExistentError`` instead.
    """
    am, mw, nw = _problem(a, m, n, tol)
    sp = _split_basis(am, tol)
    rep, inverse = _inverse_on_split(sp, mw, sp.v_0.conj().T @ nw.matrix, tol)
    residuals = None if inverse is None else _penrose_residuals(am, mw.matrix, nw.matrix, inverse)
    return WmpResult(exists=rep.exists, r_invertible=rep.r_invertible, l_invertible=rep.l_invertible, r_cond=rep.r_cond,
                     l_cond=rep.l_cond, _rows=rep._rows, inverse=inverse, penrose_residuals=residuals)


def _inverse_on_split(sp: SplitBasis, mw: Weight, n_0, tol) -> tuple[ExistenceReport, np.ndarray | None]:
    """The verdict on a checked problem whose A has the split ``sp``, and ``A+_MN`` (``None`` when it does not exist).

    N comes as ``n_0 = V_0* N``; C and D of the formula are the report's.
    """
    rep = _decide(sp, mw.matrix, n_0, tol)
    if not rep.exists:
        return rep, None
    c, d = rep._couplings
    right = sp.v_r - sp.v_0 @ c
    left = sp.u_r - sp.u_0 @ d
    return rep, (right / sp.sigma_r) @ left.conj().T


def _required(res: ExistenceReport, tol: ToleranceConfig):
    """``res`` (a ``WmpResult`` is one too) when the inverse exists.

    Otherwise raises ``NonExistentError`` naming the singular factor.
    """
    if not res.exists:
        raise NonExistentError(*_singular_factor(res.r_cond, res.l_cond, tol))
    return res


def _required_on_split(sp: SplitBasis, mw: Weight, n_0, tol) -> tuple[ExistenceReport, np.ndarray]:
    """:func:`_inverse_on_split`, raising ``NonExistentError`` when the inverse does not exist."""
    rep, inverse = _inverse_on_split(sp, mw, n_0, tol)
    return _required(rep, tol), inverse


def require_wmp_inverse(a, m, n, tol: ToleranceConfig = DEFAULT_TOL) -> WmpResult:
    """Like ``wmp_inverse`` but raises ``NonExistentError`` on failure."""
    return _required(wmp_inverse(a, m, n, tol), tol)


def verify_weighted_penrose(a, m, n, x, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Operator-norm residuals of the four weighted Penrose identities.

    Order: ``AXA - A``, ``XAX - X``, anti-Hermitian part of ``MAX``,
    anti-Hermitian part of ``NXA``.  Each is the exact 2-norm, read off
    Hermitian eigenvalues instead of an SVD: the largest magnitude of those
    of ``1j (MAX - (MAX)*)`` and ``1j (NXA - (NXA)*)``, and the root of the
    largest of those of the Gram matrices of the first two residuals, all
    from one batched ``eigvalsh``.
    """
    am, mw, nw = _problem(a, m, n, tol)
    xm = as_matrix(x)
    if xm.shape != (am.shape[1], am.shape[0]):
        raise ValueError(
            f"candidate inverse must be {am.shape[1]} x {am.shape[0]}, got {xm.shape}"
        )
    return _penrose_residuals(am, mw.matrix, nw.matrix, xm)


def _penrose_residuals(am, m, n, xm) -> np.ndarray:
    """:func:`verify_weighted_penrose` of a checked A, weight matrices M and N and candidate X.

    The four Hermitian matrices whose eigenvalues give the norms, the Grams
    of ``AXA - A`` and ``XAX - X`` on their smaller side and ``1j (MAX -
    (MAX)*)``, ``1j (NXA - (NXA)*)``, are written in place, each into its
    slot of one zero-padded stack of order ``max(rows, cols)`` (one pass
    scales the last two by ``1j`` and keeps their padding +0), and one
    batched ``eigvalsh`` gives all four: padding adds only zero eigenvalues,
    which move neither a Gram's largest eigenvalue once it is clamped at 0
    nor a largest ``|lambda|``.  A Gram that :func:`_gram_or_norm` finds
    unsafe is left to the SVD, whose norm that helper returns in its place.
    """
    ax, xa = am @ xm, xm @ am
    k, h = am.shape
    j = min(k, h)
    stack = np.zeros((4, max(k, h), max(k, h)), dtype=np.complex128)
    by_svd = np.zeros(2)
    for i, (d, y) in enumerate(((ax @ am, am), (xa @ xm, xm))):
        d -= y
        gram, by_svd[i] = _gram_or_norm(d)
        if gram is not None:
            stack[i, :j, :j] = gram
    for slot, prod in ((stack[2, :k, :k], m @ ax), (stack[3, :h, :h], n @ xa)):
        np.subtract(prod, prod.conj().T, out=slot)
    stack[2:] *= 1j
    w = np.linalg.eigvalsh(stack)
    norms = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    # a slot left to the SVD stays zero and takes its norm from by_svd;
    # a Gram's slot adds the 0.0 that _gram_or_norm returns with it
    norms[:2] = np.sqrt(np.maximum(w[:2, -1], 0.0)) + by_svd
    return norms


def wmp_inverse_positive(a, m, n, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Square-root route for positive-definite weights only.

    Computes ``N^{-1/2} (M^{1/2} A N^{-1/2})+ M^{1/2}`` through Hermitian
    eigendecompositions.  Independent of the factored formula, so it
    serves as a cross-check oracle on the positive-definite cone.
    """
    am, mw, nw = _problem(a, m, n, tol)
    if not (mw.positive_definite and nw.positive_definite):
        raise WeightError("square-root route requires positive-definite weights")
    m_half = hermitian_power(mw.matrix, 0.5, tol)
    n_negh = hermitian_power(nw.matrix, -0.5, tol)
    return n_negh @ mp_inverse(m_half @ am @ n_negh, tol) @ m_half


@dataclass(frozen=True)
class PositiveReduction:
    """Positive-definite weights that reproduce an indefinite-weight inverse."""

    s: Weight
    t: Weight


def positive_reduction(a, m, n, tol: ToleranceConfig = DEFAULT_TOL) -> PositiveReduction:
    """Replace (M, N) by positive-definite (S, T) with the same inverse.

    ``A+_MN`` reads N only through ``C = N_00^{-1} N_0r`` and M only through
    ``D = Mi_00^{-1} Mi_0r``, ``Mi = M^{-1}``, in the bases V and U of the
    split of A, so every positive definite T with the coupling C, and S
    whose inverse has the coupling D, give ``A+_ST = A+_MN``.  The
    theorem's pair ``T = R* R``, ``S = (L L*)^{-1}`` has the condition
    numbers ``r_cond^2`` and ``l_cond^2``; here

        T = V [[I + eps C* C, eps C*], [eps C, eps I]] V*,   eps = 1 / (1 + ||C||_F^2),
        S = U [[I, -D*], [-D, D D* + I / eps']] U*,         eps' = 1 / (1 + ||D||_F^2),

    T the :func:`_coupled_weight` of C and S the closed-form inverse of
    that of D, so ``cond(T) <= 4 / eps`` and ``cond(S) <= 4 / eps'``.

    Raises ``NonExistentError`` when ``A+_MN`` does not exist.
    """
    return _positive_weights(_required(wmp_exists(a, m, n, tol), tol), tol)


def _positive_weights(factors: ExistenceReport, tol: ToleranceConfig) -> PositiveReduction:
    """S and T of :func:`positive_reduction` from the couplings C and D of the verdict ``factors``."""
    sp = factors._rows[0]
    c, d = factors._couplings
    (k, r), j = c.shape, d.shape[0]
    c_fro, d_fro = _fro(c), _fro(d)
    t_mat = _coupled_weight(sp.v_r, sp.v_0, c, np.eye(r), np.eye(k) / (1.0 + c_fro**2))
    # S in the order [U_0 U_r], where its blocks are [[D D* + I / eps', -D], [-D*, I]]
    s_mat = _coupled_weight(sp.u_0, sp.u_r, -d.conj().T, np.eye(j) * (1.0 + d_fro**2), np.eye(r))
    return PositiveReduction(
        s=_reduced_weight(s_mat, "S", "D = Mi_00^-1 Mi_0r", d_fro, tol),
        t=_reduced_weight(t_mat, "T", "C = N_00^-1 N_0r", c_fro, tol),
    )


def _reduced_weight(matrix: np.ndarray, side: str, coupling: str, fro: float, tol: ToleranceConfig) -> Weight:
    """``Weight(matrix)``, refused in the reduction's terms: the side, its coupling and that one's Frobenius norm.

    No other positive definite weight with the coupling c would do much
    better: its compression to ``[q; 0]`` and ``[0; p]``, for ``c q = s p``
    with s = ||c||_2, is ``[[a + s^2 b, s b], [s b, b]]`` with a, b > 0,
    whose trace squared over determinant, ``rho + 2 + 1 / rho`` for the
    ratio rho of its eigenvalues, is at least ``4 (1 + s^2)``, so ``cond >=
    rho >= 4 s^2 + 1``.
    """
    try:
        return Weight(matrix, tol)
    except WeightError as e:
        raise WeightError(
            f"positive reduction: {side}, built for the coupling {coupling} of Frobenius norm {fro:.6e}, "
            f"has a condition number above inv_cond_max = {tol.inv_cond_max:.1e}; every positive "
            f"definite weight with this coupling has one of at least 4 ||{coupling[0]}||_2^2"
        ) from e


@dataclass(frozen=True)
class EquivalentWeightFamily:
    """Sampled domain weights that all induce the same weighted inverse.

    In the orthonormal basis splitting the domain into row space of A
    (columns of ``range_basis``) and null space of A (columns of
    ``null_basis``), every member has the blocks ``[[W11, C* W22], [W22 C,
    W22]]``, with ``C`` the fixed coupling ``N_00^{-1} N_0r`` of the
    reference weight and ``W22``, ``W11 - C* W22 C`` freely chosen positive
    definite: the :func:`_coupled_weight` of C with ``top = W11 - C* W22
    C`` and ``bottom = W22``.
    ``degenerate`` marks zero or full rank of A, where the family is all
    positive-definite weights and the coupling is empty.
    """

    weights: list
    degenerate: bool
    range_basis: np.ndarray | None
    null_basis: np.ndarray | None
    coupling: np.ndarray | None


def equivalent_domain_weights(a, n, samples: int = 3, tol: ToleranceConfig = DEFAULT_TOL, rng=None) -> EquivalentWeightFamily:
    """Sample positive-definite domain weights equivalent to ``n``.

    Equivalent means ``A+_{M,n} = A+_{M,sample}`` for every codomain
    weight M.  Requires the domain factor of ``n`` to be invertible;
    raises ``NonExistentError`` otherwise.
    """
    am = as_matrix(a)
    nw = as_weight(n, tol)
    h = am.shape[1]
    if nw.dim != h:
        raise ValueError(f"weight dimension {nw.dim} does not match column count {h}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    gen = rng_from(rng)

    sp = _split_basis(am, tol)
    v_range, v_null = sp.v_r, sp.v_0
    rank = v_range.shape[1]
    if rank == 0 or rank == h:
        ws = [Weight(random_spd(gen, h), tol) for _ in range(samples)]
        return EquivalentWeightFamily(ws, degenerate=True, range_basis=None, null_basis=None, coupling=None)
    # the verdict is R's alone; once it holds, cond(N_00) <= cond(R) makes LU safe
    n_0 = v_null.conj().T @ nw.matrix
    n_0r, n_00 = n_0 @ v_range, n_0 @ v_null
    r_cond = _factor_cond(n_0r, n_00)
    if r_cond > tol.inv_cond_max:
        raise NonExistentError("R_{A,N}", r_cond)
    coupling = np.linalg.solve(n_00, n_0r)
    ws = []
    for _ in range(samples):
        w22 = random_spd(gen, h - rank)
        gap = random_spd(gen, rank)
        ws.append(Weight(_coupled_weight(v_range, v_null, coupling, gap, w22), tol))
    return EquivalentWeightFamily(ws, degenerate=False, range_basis=v_range, null_basis=v_null, coupling=coupling)


def weight_transfer_domain(a, m, n1, n2, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Factor R with ``A+_{M,n1} = R . A+_{M,n2}``.

    ``R = A+_{M,n1} A + (I - A+_{M,n1} A) n1^{-1} n2``; the transfer
    identity is verified to ``verify_atol`` before returning.
    """
    am, mw, n1w = _problem(a, m, n1, tol)
    n2w = _problem(am, mw, n2, tol)[2]
    sp = _split_basis(am, tol)
    x1, x2 = (_required_on_split(sp, mw, sp.v_0.conj().T @ nw.matrix, tol)[1] for nw in (n1w, n2w))
    x1a = x1 @ am
    r = x1a + (np.eye(am.shape[1]) - x1a) @ np.linalg.solve(n1w.matrix, n2w.matrix)
    _verify("domain weight transfer identity", operator_norm(x1 - r @ x2), 1.0 + operator_norm(x1), tol)
    return r


def weight_transfer_codomain(a, m1, m2, n, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Factor L with ``A+_{m1,N} = A+_{m2,N} . L``.

    ``L = A A+_{m1,N} + m2^{-1} m1 (I - A A+_{m1,N})``; verified to
    ``verify_atol`` before returning.
    """
    am, m1w, nw = _problem(a, m1, n, tol)
    m2w = _problem(am, m2, nw, tol)[1]
    sp = _split_basis(am, tol)
    x1, x2 = (_required_on_split(sp, mw, sp.v_0.conj().T @ nw.matrix, tol)[1] for mw in (m1w, m2w))
    ax1 = am @ x1
    l = ax1 + np.linalg.solve(m2w.matrix, m1w.matrix @ (np.eye(am.shape[0]) - ax1))
    _verify("codomain weight transfer identity", operator_norm(x1 - x2 @ l), 1.0 + operator_norm(x1), tol)
    return l


def rho_embed(a, m, n, tol: ToleranceConfig = DEFAULT_TOL):
    """Self-adjoint embedding carrying (A, M, N) to one weighted problem.

    Returns ``(rho, T)`` with ``rho = [[0, A], [A*, 0]]`` Hermitian and
    ``T = diag(M, N^{-1})``.  The weighted inverse of ``rho`` with
    codomain weight T and domain weight ``T^{-1}`` exists exactly when
    ``A+_MN`` does, and its lower-left block equals ``A+_MN``.
    """
    am, mw, nw = _problem(a, m, n, tol)
    k, h = am.shape
    rho = np.zeros((k + h, k + h), dtype=np.complex128)
    rho[:k, k:] = am
    rho[k:, :k] = am.conj().T
    t_mat = np.zeros_like(rho)
    t_mat[:k, :k], t_mat[k:, k:] = mw.matrix, nw.inverse
    return rho, Weight(t_mat, tol)


def matched_projection(q, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector canonically matched to an oblique one.

    For idempotent Q the result is the Hermitian idempotent

        m(Q) = (1/2) (|Q*| + Q*) |Q*|+ (|Q*| + I)^{-1} (|Q*| + Q),

    with ``|Q*|`` the positive square root of ``Q Q*``.  Hermitian inputs
    are returned unchanged by this formula.  Raises
    ``NotIdempotentError`` when ``||Q^2 - Q||`` exceeds ``verify_atol``.
    """
    qm = as_matrix(q)
    if qm.shape[0] != qm.shape[1]:
        raise ValueError("matched projection needs a square matrix")
    resid = operator_norm(qm @ qm - qm)
    if resid > tol.verify_atol:
        raise NotIdempotentError(resid)
    gram = qm @ qm.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    w, v = np.linalg.eigh(gram)
    w = np.clip(w, 0.0, None)
    roots = np.sqrt(w)
    absq = (v * roots) @ v.conj().T
    cutoff = _rank_cutoff(roots[-1] if roots.size else 0.0, qm.shape, tol)
    inv_roots = np.where(roots > cutoff, 1.0 / np.where(roots > cutoff, roots, 1.0), 0.0)
    absq_pinv = (v * inv_roots) @ v.conj().T
    # |Q*| + I has the eigenvectors v and eigenvalues roots + 1 >= 1
    right = ((v / (roots + 1.0)) @ v.conj().T) @ (absq + qm)
    out = 0.5 * (absq + qm.conj().T) @ absq_pinv @ right
    return 0.5 * (out + out.conj().T)
