"""Weight wrapper: symmetrization, inversion, definiteness flags."""

import numpy as np
import pytest

from support import is_hermitian, random_psd, random_weight
from wmpinv import Weight, WeightError, as_weight, limit_lambda_to_inf
from wmpinv.limits import _GradedSolver
from wmpinv.linalg import DEFAULT_TOL, _hermitian
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


def _nearly_hermitian(gen, h):
    """``h`` plus an anti-Hermitian part of Frobenius norm ``verify_atol / 4``, so not exactly Hermitian."""
    n = h.shape[0]
    e = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    e -= e.conj().T
    return h + (0.25 * DEFAULT_TOL.verify_atol / np.linalg.norm(e)) * e


def _bitwise_hermitian_part(got, m):
    """``got`` is bitwise ``0.5 (m + m*)``, and exactly Hermitian."""
    want = 0.5 * (m + m.conj().T)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_symmetrized_inputs_are_the_hermitian_part(n, monkeypatch):
    # every check-then-symmetrize site keeps 0.5 (m + m*) of the input it checked
    gen = np.random.default_rng(n)
    m = _nearly_hermitian(gen, random_weight(gen, n).matrix)
    assert not np.array_equal(m, m.conj().T) and is_hermitian(m)
    _bitwise_hermitian_part(Weight(m).matrix, m)
    _bitwise_hermitian_part(_hermitian(m, "m", DEFAULT_TOL), m)

    inputs = []
    pair = _GradedSolver.pair.__func__

    def recording(cls, a_sym, b_sym, *args):
        inputs.append((a_sym, b_sym))
        return pair(cls, a_sym, b_sym, *args)

    monkeypatch.setattr(_GradedSolver, "pair", classmethod(recording))
    a = _nearly_hermitian(gen, random_psd(gen, n, (n + 1) // 2).astype(np.complex128))
    b = _nearly_hermitian(gen, random_psd(gen, n, n).astype(np.complex128))
    limit_lambda_to_inf(a, b)
    ((a_sym, b_sym),) = inputs
    _bitwise_hermitian_part(a_sym, a)
    _bitwise_hermitian_part(b_sym, b)


@pytest.mark.parametrize("seed", range(4))
def test_cond_of_weights_led_by_a_negative_eigenvalue(seed):
    # the largest |lambda| belongs to the most negative eigenvalue, so it is
    # read from the low end of the ascending spectrum
    gen = np.random.default_rng(seed)
    n = 6
    q = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))[0]
    lam = np.concatenate([-gen.uniform(5.0, 9.0, 1), gen.uniform(-2.0, 2.0, n - 2), gen.uniform(3.0, 4.0, 1)])
    w = Weight(_nearly_hermitian(gen, (q * lam) @ q.conj().T))
    eigs = np.linalg.eigvalsh(w.matrix)
    assert abs(eigs[0]) > abs(eigs[-1]) and not w.positive_definite
    assert w.cond == np.abs(eigs).max() / np.abs(eigs).min()
