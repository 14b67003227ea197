"""Weight wrapper: symmetrization, inversion, definiteness flags."""

import numpy as np
import pytest

from support import is_hermitian, random_weight
from wmpinv import Weight, WeightError, as_weight
from wmpinv.linalg import DEFAULT_TOL
from wmpinv.sampling import random_spd


def test_weight_accepts_and_symmetrizes():
    m = np.array([[2.0, 1e-12], [0.0, 3.0]])
    w = Weight(m)
    assert np.allclose(w.matrix, w.matrix.conj().T, atol=0)
    assert w.positive_definite


def test_weight_rejects_asymmetric():
    with pytest.raises(WeightError):
        Weight(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_weight_rejects_singular():
    with pytest.raises(WeightError):
        Weight(np.diag([1.0, 0.0]))
    with pytest.raises(WeightError):
        Weight(np.diag([1.0, 1e-15]))


def test_weight_inverse(rng):
    w = random_weight(rng, 5)
    assert np.allclose(w.matrix @ w.inverse, np.eye(5), atol=1e-12)
    assert np.allclose(w.inverse, w.inverse.conj().T, atol=0)


def test_indefinite_weight_flagged(rng):
    w = Weight(np.diag([2.0, -1.0]))
    assert not w.positive_definite
    spd = Weight(random_spd(rng, 4))
    assert spd.positive_definite


def test_weight_identity():
    w = Weight.identity(3)
    assert np.array_equal(w.matrix, np.eye(3))
    assert w.cond == pytest.approx(1.0)


def test_as_weight_passthrough(rng):
    w = random_weight(rng, 3)
    assert as_weight(w, DEFAULT_TOL) is w
    w2 = as_weight(np.eye(3), DEFAULT_TOL)
    assert isinstance(w2, Weight)


def test_weight_requires_square():
    with pytest.raises(WeightError):
        Weight(np.ones((2, 3)))


def test_weight_inverse_is_built_on_first_read(rng, monkeypatch):
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    w = Weight(random_weight(rng, 5).matrix)
    assert calls == []
    inv = w.inverse
    assert len(calls) == 1
    assert w.inverse is inv and len(calls) == 1
    vals, vecs = eigh(w.matrix)
    ref = (vecs / vals) @ vecs.conj().T
    assert np.array_equal(inv, 0.5 * (ref + ref.conj().T))


def _skew_pair(a):
    """I + D / 2 with ``D = W - W*`` of four singular values ``a``, so ``||D||_F = 2a``."""
    d = np.zeros((4, 4))
    d[0, 1] = d[2, 3] = a
    d -= d.T
    return np.eye(4) + 0.5 * d


def test_self_adjointness_boundary():
    atol = DEFAULT_TOL.verify_atol
    # the Frobenius norm exceeds verify_atol, the operator norm does not
    inside = _skew_pair(0.8 * atol)
    diff = inside - inside.T
    assert np.linalg.norm(diff, 2) <= atol < np.linalg.norm(diff)
    assert is_hermitian(inside)
    assert np.array_equal(Weight(inside).matrix, np.eye(4))

    outside = _skew_pair(1.5 * atol)
    asym = np.linalg.norm(outside - outside.T, 2)
    assert asym > atol
    assert not is_hermitian(outside)
    with pytest.raises(WeightError, match=f"= {asym:.6e} exceeds"):
        Weight(outside)
