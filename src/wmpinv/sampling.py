"""Seeded random draws that the library makes itself.

``rng_from`` turns a seed into a Generator for every routine that takes
``rng``.  ``random_spd`` draws the sampled weights of
``core.equivalent_domain_weights``, the one library routine that samples
weights; ``random_complex`` draws the default perturbation direction of
``wmpinv perturb --kind full``.  The samplers the tests need beyond these
live with the tests.
"""

from __future__ import annotations

import numpy as np

from .linalg import operator_norm

__all__ = ["rng_from", "random_complex", "random_spd"]


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
