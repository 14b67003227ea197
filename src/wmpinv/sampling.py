"""Seeded random instance generators used by tests and diagnostics."""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, operator_norm, projector_rowspace
from .weights import Weight

__all__ = [
    "rng_from",
    "random_complex",
    "random_matrix_with_rank",
    "random_spd",
    "random_psd",
    "random_weight",
    "random_separated_pair",
]


def rng_from(seed_or_rng=None) -> np.random.Generator:
    """Coerce a seed, Generator, or None (fixed default seed) to a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None:
        return np.random.default_rng(0)
    return np.random.default_rng(seed_or_rng)


def random_complex(rng, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    """Standard complex Gaussian matrix."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return scale * z / np.sqrt(2.0)


def random_matrix_with_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """Product of Gaussian factors with exact rank ``rank``."""
    if rank < 0 or rank > min(rows, cols):
        raise ValueError(f"rank {rank} out of range for shape ({rows}, {cols})")
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)


def random_spd(rng, n: int) -> np.ndarray:
    """Positive definite sample ``G* G + delta I``, delta = 1e-3 ||G* G||.

    The floor keeps condition numbers near 1e3 or better so downstream
    solves stay far from the invertibility threshold.
    """
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    g = random_complex(rng, n, n)
    gram = g.conj().T @ g
    gram = 0.5 * (gram + gram.conj().T)
    delta = 1e-3 * operator_norm(gram)
    if delta == 0.0:
        delta = 1.0
    return gram + delta * np.eye(n, dtype=np.complex128)


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
