"""Property-based checks over randomly drawn problem instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from support import random_matrix_with_rank, random_weight
from wmpinv import Weight, wmp_inverse
from wmpinv.linalg import DEFAULT_TOL, mp_inverse, operator_norm
from wmpinv.sampling import rng_from

COMMON = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def problem(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    rank = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    positive = draw(st.booleans())
    gen = rng_from(seed)
    a = random_matrix_with_rank(gen, rows, cols, rank)
    m = random_weight(gen, rows, positive=positive)
    n = random_weight(gen, cols, positive=positive)
    return a, m, n


@COMMON
@given(problem())
def test_penrose_equations_whenever_it_exists(inst):
    a, m, n = inst
    res = wmp_inverse(a, m, n)
    if not res.exists:
        return
    x = res.inverse
    scale = 1.0 + operator_norm(a) + operator_norm(x)
    assert operator_norm(a @ x @ a - a) <= 1e-9 * scale
    assert operator_norm(x @ a @ x - x) <= 1e-9 * scale
    max_ = m.matrix @ a @ x
    nxa = n.matrix @ x @ a
    assert operator_norm(max_ - max_.conj().T) <= 1e-9 * scale * (1 + m.cond)
    assert operator_norm(nxa - nxa.conj().T) <= 1e-9 * scale * (1 + n.cond)


@COMMON
@given(problem())
def test_factored_formula_consistency(inst):
    # the factored inverse agrees with direct solution of the four
    # identities through the plain pseudoinverse sandwich
    a, m, n = inst
    res = wmp_inverse(a, m, n)
    if not res.exists:
        return
    sandwich = np.linalg.solve(res.r_factor, res.mp)
    sandwich = np.linalg.solve(res.l_factor.conj().T, sandwich.conj().T).conj().T
    assert operator_norm(sandwich - res.inverse) <= 1e-9 * (1.0 + operator_norm(res.inverse))


@COMMON
@given(problem())
def test_duality(inst):
    a, m, n = inst
    res = wmp_inverse(a, m, n)
    dual = wmp_inverse(a.conj().T, Weight(n.inverse), Weight(m.inverse))
    assert res.exists == dual.exists
    if res.exists:
        assert operator_norm(res.inverse.conj().T - dual.inverse) <= 1e-8 * (
            1.0 + operator_norm(res.inverse)
        )


@COMMON
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
def test_identity_weights_reduce_to_pinv(seed, n):
    gen = rng_from(seed)
    rank = int(gen.integers(0, n + 1))
    a = random_matrix_with_rank(gen, n, n, rank)
    res = wmp_inverse(a, np.eye(n), np.eye(n))
    assert res.exists
    assert operator_norm(res.inverse - mp_inverse(a, DEFAULT_TOL)) <= 1e-10 * (
        1.0 + operator_norm(res.inverse)
    )


@COMMON
@given(problem())
def test_rank_of_inverse_matches(inst):
    a, m, n = inst
    res = wmp_inverse(a, m, n)
    if not res.exists:
        return
    from support import numerical_rank

    assert numerical_rank(res.inverse, DEFAULT_TOL) == numerical_rank(a, DEFAULT_TOL)


@COMMON
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
def test_positive_weights_always_exist(seed, rows):
    gen = rng_from(seed)
    cols = int(gen.integers(1, 9))
    rank = int(gen.integers(0, min(rows, cols) + 1))
    a = random_matrix_with_rank(gen, rows, cols, rank)
    m = random_weight(gen, rows, positive=True)
    n = random_weight(gen, cols, positive=True)
    assert wmp_inverse(a, m, n).exists


@COMMON
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_projectors_ignore_the_other_weight(seed):
    # A X is the same for every domain weight, X A for every codomain
    # weight; only the opposite-side weight shapes each projector
    gen = rng_from(seed)
    rows = int(gen.integers(1, 8))
    cols = int(gen.integers(1, 8))
    rank = int(gen.integers(0, min(rows, cols) + 1))
    a = random_matrix_with_rank(gen, rows, cols, rank)
    m1 = random_weight(gen, rows, positive=True)
    m2 = random_weight(gen, rows, positive=True)
    n1 = random_weight(gen, cols, positive=True)
    n2 = random_weight(gen, cols, positive=True)
    x11 = wmp_inverse(a, m1, n1).inverse
    x12 = wmp_inverse(a, m1, n2).inverse
    x21 = wmp_inverse(a, m2, n1).inverse
    scale = 1.0 + operator_norm(a)
    assert operator_norm(a @ x11 - a @ x12) <= 1e-8 * scale * (1.0 + operator_norm(x11))
    assert operator_norm(x11 @ a - x21 @ a) <= 1e-8 * scale * (1.0 + operator_norm(x11))
