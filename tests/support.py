"""Seeded samplers and oracles that only the tests use.

Not collected by pytest (its name does not start with ``test_``); tests
import it as ``support``, the way they import ``conftest``.  The library
itself draws only through ``wmpinv.sampling``.
"""

from __future__ import annotations

import numpy as np

from wmpinv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _self_adjointness,
    as_matrix,
    operator_norm,
    projector_rowspace,
    svd_factor,
)
from wmpinv.sampling import random_complex, random_spd
from wmpinv.weights import Weight


def random_matrix_with_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """Product of Gaussian factors with exact rank ``rank``."""
    if rank < 0 or rank > min(rows, cols):
        raise ValueError(f"rank {rank} out of range for shape ({rows}, {cols})")
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)


def random_psd(rng, n: int, rank: int) -> np.ndarray:
    """Positive semidefinite sample of the requested rank.

    Nonzero eigenvalues are drawn uniformly from [0.2, 1], keeping the
    restriction to the range well conditioned for the same reason
    ``random_spd`` floors its spectrum.
    """
    if rank < 0 or rank > n:
        raise ValueError(f"rank {rank} out of range for dimension {n}")
    if rank == 0:
        return np.zeros((n, n), dtype=np.complex128)
    q, _ = np.linalg.qr(random_complex(rng, n, rank))
    lam = rng.uniform(0.2, 1.0, size=rank)
    out = (q * lam) @ q.conj().T
    return 0.5 * (out + out.conj().T)


def random_weight(rng, n: int, positive: bool = False) -> Weight:
    """Well-conditioned self-adjoint invertible weight.

    With ``positive`` false the eigenvalues carry random signs with
    magnitudes in [0.5, 2], so indefinite weights are the common case.
    """
    if positive:
        return Weight(random_spd(rng, n))
    q, _ = np.linalg.qr(random_complex(rng, n, n))
    mags = rng.uniform(0.5, 2.0, size=n)
    signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    w = (q * (mags * signs)) @ q.conj().T
    return Weight(0.5 * (w + w.conj().T))


def random_separated_pair(
    rng,
    cols: int,
    rows_a: int,
    rows_b: int,
    rank_a: int,
    rank_b: int,
    max_pq_norm: float = 0.99,
    attempts: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair (A, B) with separated row spaces: ``||P Q|| <= max_pq_norm``.

    Rejection-samples Gaussian pairs until the separation margin holds;
    requires ``rank_a + rank_b < cols`` so a separated pair exists.
    """
    if rank_a + rank_b >= cols and rank_a > 0 and rank_b > 0:
        raise ValueError("rank_a + rank_b must stay below cols for a separated pair")
    for _ in range(attempts):
        a = random_matrix_with_rank(rng, rows_a, cols, rank_a)
        b = random_matrix_with_rank(rng, rows_b, cols, rank_b)
        p = projector_rowspace(a, DEFAULT_TOL)
        q = projector_rowspace(b, DEFAULT_TOL)
        if operator_norm(as_matrix(p @ q)) <= max_pq_norm:
            return a, b
    raise RuntimeError("failed to sample a separated pair within the attempt budget")


def nearly_nested_pair(offset):
    """A of rank 2 and B = b b* with b leaning off the range of A by ``offset``."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    a = np.outer(q[:, 0], q[:, 0].conj()) + np.outer(q[:, 1], q[:, 1].conj())
    b = q[:, 0] + offset * q[:, 2]
    return a, np.outer(b, b.conj())


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    return svd_factor(a, tol).rank


def is_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Self-adjoint within ``verify_atol`` in operator norm."""
    m = as_matrix(a)
    return m.shape[0] == m.shape[1] and _self_adjointness(m, tol)[0]
