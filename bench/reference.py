"""Reference computations the benchmark checks wmpinv against.

Plain NumPy only: nothing here imports wmpinv, so a change to the
library can neither reshape a workload nor weaken the check of its
output.  Ranks come from the construction of each input, never from a
numerical rank decision.
"""

from __future__ import annotations

import numpy as np

# existence threshold on the factor condition numbers; the same number the
# library documents as its default ``inv_cond_max``
INV_COND_MAX = 1e12
PENROSE_ATOL = 1e-9
ORACLE_RTOL = 1e-8
TARGET_RTOL = 1e-8
LABEL_R = "R_{A,N}"
LABEL_L = "L_{A,M^-1}"


def opnorm(a) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def cond(a) -> float:
    if a.size == 0:
        return 1.0
    s = np.linalg.svd(a, compute_uv=False)
    return float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])


def hermitian(a) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def pinv(a, rank: int) -> np.ndarray:
    """Moore-Penrose inverse truncated at a rank known from construction."""
    if rank == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T


def bases(a, rank: int):
    """(U_r, V_r): orthonormal bases of the range of A and of its row space."""
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u[:, :rank], vh[:rank].conj().T


def factor_conds(a, m, n, rank: int):
    """Condition numbers of R = P + (I - P) N and L = Q + M^-1 (I - Q)."""
    k, h = a.shape
    ur, vr = bases(a, rank)
    p = vr @ vr.conj().T
    q = ur @ ur.conj().T
    r = p + (np.eye(h) - p) @ n
    l = q + np.linalg.inv(m) @ (np.eye(k) - q)
    return cond(r), cond(l), r, l


def weighted_inverse(a, m, n, rank: int):
    """(exists, X, r_cond, l_cond) from the factored formula, dense solves."""
    r_cond, l_cond, r, l = factor_conds(a, m, n, rank)
    if not (r_cond <= INV_COND_MAX and l_cond <= INV_COND_MAX):
        return False, None, r_cond, l_cond
    x = np.linalg.solve(r, pinv(a, rank))
    x = np.linalg.solve(l.T, x.T).T
    return True, x, r_cond, l_cond


def penrose_residuals(a, m, n, x) -> np.ndarray:
    """Operator-norm residuals of the four weighted Penrose identities."""
    ax = a @ x
    xa = x @ a
    max_ = m @ ax
    nxa = n @ xa
    return np.array(
        [
            opnorm(ax @ a - a),
            opnorm(xa @ x - x),
            opnorm(max_ - max_.conj().T),
            opnorm(nxa - nxa.conj().T),
        ]
    )


def hermitian_power(w, power: float) -> np.ndarray:
    lam, v = np.linalg.eigh(hermitian(w))
    return (v * lam**power) @ v.conj().T


def sqrt_oracle(a, m, n, rank: int) -> np.ndarray:
    """``N^-1/2 (M^1/2 A N^-1/2)+ M^1/2``, valid for positive definite M, N."""
    m_half = hermitian_power(m, 0.5)
    n_negh = hermitian_power(n, -0.5)
    return n_negh @ pinv(m_half @ a @ n_negh, rank) @ m_half


def rel_diff(x, ref) -> float:
    return opnorm(x - ref) / (1.0 + opnorm(ref))


def check_inverse(a, m, n, x, rank: int, positive: bool) -> str | None:
    """None when X passes every check, otherwise the reason it fails."""
    if x is None or x.shape != (a.shape[1], a.shape[0]) or not np.all(np.isfinite(x)):
        return "no finite inverse of the right shape"
    worst = float(np.max(penrose_residuals(a, m, n, x)))
    if not worst <= PENROSE_ATOL:
        return f"Penrose residual {worst:.3e} exceeds {PENROSE_ATOL:.0e}"
    if positive:
        err = rel_diff(x, sqrt_oracle(a, m, n, rank))
        if not err <= ORACLE_RTOL:
            return f"square-root oracle error {err:.3e} exceeds {ORACLE_RTOL:.0e}"
    return None


def t_limit_target(a, b, v, w, rank_a: int, rank_joint: int) -> np.ndarray:
    """``A+_{V,U}`` with ``U = A* V A + B* W B + P0``, P0 onto the joint null space."""
    _, _, vh = np.linalg.svd(np.vstack([a, b]), full_matrices=True)
    v0 = vh[rank_joint:].conj().T
    u = hermitian(a.conj().T @ v @ a + b.conj().T @ w @ b + v0 @ v0.conj().T)
    return sqrt_oracle(a, v, u, rank_a)


def lambda_limit_target(b, range_a, rank_mid: int) -> np.ndarray:
    """``((I - P) B (I - P))+ B`` with P the projector onto ``range_a``."""
    n = b.shape[0]
    c = np.eye(n) - range_a @ range_a.conj().T
    return pinv(hermitian(c @ b @ c), rank_mid) @ b
