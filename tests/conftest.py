"""Shared fixtures: golden worked examples with exact rational entries."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

F = Fraction


def _mat(rows):
    return np.array([[float(x) for x in row] for row in rows], dtype=np.complex128)


GOLDEN_A = _mat(
    [
        [1, 0, 1, -1],
        [0, 0, 1, 3],
        [0, -2, 0, 2],
        [0, 0, 0, 0],
    ]
)

GOLDEN_M = _mat(
    [
        [2, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
    ]
)

GOLDEN_N = _mat(
    [
        [2, 1, 1, 0],
        [1, 2, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
    ]
)

# ordinary pseudoinverse of GOLDEN_A, worked out by hand
GOLDEN_PINV = _mat(
    [
        [F(11, 27), F(1, 27), F(2, 27), 0],
        [F(-4, 27), F(7, 27), F(-13, 27), 0],
        [F(4, 9), F(2, 9), F(-1, 18), 0],
        [F(-4, 27), F(7, 27), F(1, 54), 0],
    ]
)

# domain factor A+A + (I - A+A) N for the golden triple
GOLDEN_R = _mat(
    [
        [F(35, 27), F(20, 27), F(16, 27), 0],
        [F(2, 27), F(32, 27), F(4, 27), 0],
        [F(-2, 9), F(-5, 9), F(5, 9), 0],
        [F(2, 27), F(5, 27), F(4, 27), 1],
    ]
)

# weighted inverse of the golden triple
GOLDEN_WMP = _mat(
    [
        [F(1, 7), F(-2, 7), F(3, 7), 0],
        [F(-3, 14), F(5, 28), F(-11, 28), 0],
        [F(9, 14), F(13, 28), F(-9, 28), 0],
        [F(-3, 14), F(5, 28), F(3, 28), 0],
    ]
)

# rank-one domain projector against an antidiagonal weight makes the
# domain factor [[1, 0], [1, 0]], which is singular
NOEXIST_A = _mat([[1, 0], [0, 0]])
NOEXIST_N = _mat([[0, 1], [1, 0]])

# diag(1, 0) against [[1, 1], [1, 2]]: the large-lambda iterates of
# (lambda A + B)+ B reach [[0, 0], [1/2, 1]]
LAMBDA_A = _mat([[1, 0], [0, 0]])
LAMBDA_B = _mat([[1, 1], [1, 2]])
LAMBDA_TARGET = _mat([[0, 0], [F(1, 2), 1]])

# Hermitian projection matched to the idempotent [[1, 1], [0, 0]]
MATCHED_Q = _mat([[1, 1], [0, 0]])
_S2 = np.sqrt(2.0)
MATCHED_GOLDEN = np.array(
    [
        [(2.0 + _S2) / 4.0, _S2 / 4.0],
        [_S2 / 4.0, (2.0 - _S2) / 4.0],
    ],
    dtype=np.complex128,
)


@pytest.fixture
def golden():
    return {
        "a": GOLDEN_A.copy(),
        "m": GOLDEN_M.copy(),
        "n": GOLDEN_N.copy(),
        "pinv": GOLDEN_PINV.copy(),
        "r": GOLDEN_R.copy(),
        "wmp": GOLDEN_WMP.copy(),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def svd_calls(monkeypatch):
    """Record ``numpy.linalg.svd`` calls that compute factors.

    Each entry is ``(matrix, full_matrices)``; values-only calls
    (``compute_uv=False``) are not recorded.  Clear the list between the
    calls being counted.
    """
    calls = []
    svd = np.linalg.svd

    def counting_svd(m, *args, **kwargs):
        if kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            calls.append((np.array(m), kwargs.get("full_matrices", args[0] if args else True)))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count ``numpy.linalg`` decompositions (``qr`` included) and solves by entry point.

    ``svd`` counts the calls that compute factors and ``svdvals`` the
    values-only ones (``compute_uv=False``, passed by keyword);
    ``norm2`` counts ``numpy.linalg.norm(., 2)``.
    Clear the counter between the calls being counted.
    """
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            if name == "norm":
                calls["norm2"] += kwargs.get("ord", args[1] if len(args) > 1 else None) == 2
            elif name == "svd" and not kwargs.get("compute_uv", True):
                calls["svdvals"] += 1
            else:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh", "solve", "inv", "lstsq", "norm", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def svdvals_shapes(monkeypatch):
    """Shapes of the values-only ``numpy.linalg.svd`` calls, in call order.

    Clear the list between the calls being measured.
    """
    shapes = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


def make_instance(gen, rows, cols, rank, positive=False):
    """One random weighted problem: a matrix and a weight per side."""
    from support import random_matrix_with_rank, random_weight

    a = random_matrix_with_rank(gen, rows, cols, rank)
    m = random_weight(gen, rows, positive=positive)
    n = random_weight(gen, cols, positive=positive)
    return a, m, n
