"""Perturbation harness: trend columns, existence tails, weight limits."""

import numpy as np
import pytest

from support import random_matrix_with_rank, random_weight
from wmpinv import (
    NonExistentError,
    PerturbationSequence,
    Weight,
    perturb_weights_only,
    run_diagnostics,
    wmp_inverse,
)
from wmpinv.linalg import DEFAULT_TOL, mp_inverse, operator_norm


def base_problem(gen):
    a = random_matrix_with_rank(gen, 4, 3, 2)
    m = random_weight(gen, 4, positive=True)
    n = random_weight(gen, 3, positive=True)
    return a, m, n


def test_constant_sequence_is_flat(rng):
    a, m, n = base_problem(rng)
    seq = PerturbationSequence.full(a, m, n, [(a, m.matrix, n.matrix)] * 10)
    diag = run_diagnostics(seq)
    for key in ("wmp_diff", "proj_domain_diff", "proj_codomain_diff", "mp_diff"):
        assert np.max(diag.columns[key]) <= 1e-12
    assert all(diag.exists)
    assert diag.equivalences_consistent


def test_rank_preserving_perturbation_converges(rng):
    a, m, n = base_problem(rng)
    p_cod = a @ mp_inverse(a, DEFAULT_TOL)
    p_dom = mp_inverse(a, DEFAULT_TOL) @ a
    e = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    terms = [(a + (p_cod @ e @ p_dom) / k, m.matrix, n.matrix) for k in range(1, 41)]
    diag = run_diagnostics(PerturbationSequence.full(a, m, n, terms))
    assert diag.trends["wmp_diff"] == "decreasing"
    assert diag.trends["mp_diff"] == "decreasing"
    assert diag.trends["mp_norm"] != "diverging"
    assert diag.equivalences_consistent


def test_rank_dropping_perturbation_diverges(rng):
    a, m, n = base_problem(rng)
    eye_r = np.eye(4)
    eye_c = np.eye(3)
    p_cod = a @ mp_inverse(a, DEFAULT_TOL)
    p_dom = mp_inverse(a, DEFAULT_TOL) @ a
    f = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    bump = (eye_r - p_cod) @ f @ (eye_c - p_dom)
    assert operator_norm(bump) > 1e-3
    # geometric spacing so the tail window spans a full decade of growth
    terms = [(a + bump / float(2**k), m.matrix, n.matrix) for k in range(0, 21)]
    diag = run_diagnostics(PerturbationSequence.full(a, m, n, terms))
    assert diag.trends["mp_norm"] == "diverging"
    col = diag.columns["mp_norm"]
    assert col[-1] / col[diag.tail_start] >= 10.0


def test_weights_only_immediate_existence(rng):
    a, m, n = base_problem(rng)
    pairs = [(m.matrix, n.matrix + np.eye(3) / k) for k in range(1, 21)]
    diag = perturb_weights_only(a, m, n, pairs)
    assert diag.n0 == 1
    assert all(diag.exists)
    assert diag.trends["wmp_diff"] == "decreasing"


def test_weights_only_reports_first_good_index(rng):
    a, m, n = base_problem(rng)
    singular_n = np.diag([1.0, 1.0, 0.0])
    pairs = [(m.matrix, singular_n)] + [(m.matrix, n.matrix)] * 9
    diag = perturb_weights_only(a, m, n, pairs)
    assert not diag.exists[0]
    assert all(diag.exists[1:])
    assert diag.n0 == 2


def test_per_term_nonexistence_recorded(rng):
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    n_bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    seq = PerturbationSequence.full(
        a, np.eye(2), np.eye(2), [(a, np.eye(2), n_bad), (a, np.eye(2), np.eye(2))]
    )
    diag = run_diagnostics(seq)
    assert diag.exists == [False, True]


def test_base_nonexistence_raises():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    n_bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    seq = PerturbationSequence.full(a, np.eye(2), n_bad, [(a, np.eye(2), np.eye(2))])
    with pytest.raises(NonExistentError):
        run_diagnostics(seq)


def test_norm_bound_by_factor_product(rng):
    # per-term: the weighted inverse norm is submultiplicatively bounded
    # by the factor inverses around the plain pseudoinverse
    a, m, n = base_problem(rng)
    terms = [(a, m.matrix, n.matrix + np.eye(3) / k) for k in range(1, 11)]
    for a_k, m_k, n_k in terms:
        res = wmp_inverse(a_k, Weight(m_k), Weight(n_k))
        assert res.exists
        bound = (
            operator_norm(np.linalg.inv(res.r_factor))
            * operator_norm(mp_inverse(a_k, DEFAULT_TOL))
            * operator_norm(np.linalg.inv(res.l_factor))
        )
        assert operator_norm(res.inverse) <= bound * (1.0 + 1e-9)


def test_sequence_shape_validation(rng):
    a, m, n = base_problem(rng)
    with pytest.raises(ValueError):
        PerturbationSequence.full(a, m, n, [(a.T, m.matrix, n.matrix)])
    with pytest.raises(ValueError):
        PerturbationSequence.weights_only(a, m, n, [(np.eye(3), n.matrix)])
    with pytest.raises(ValueError):
        PerturbationSequence.full(a, m, n, [])


def test_direct_construction_is_checked_like_full():
    # raw lists through the constructor itself are coerced as full() coerces them
    row = [[1.0, 0.0]]
    seq = PerturbationSequence(
        base_a=row, base_m=Weight(np.eye(1)), base_n=Weight(np.eye(2)), terms=((row, np.eye(1), np.eye(2)),), kind="full"
    )
    built = PerturbationSequence.full(row, np.eye(1), np.eye(2), [(row, np.eye(1), np.eye(2))])
    diag, ref = run_diagnostics(seq), run_diagnostics(built)
    assert np.array_equal(seq.base_a, built.base_a) and seq.base_a.dtype == np.complex128
    assert diag.exists == ref.exists == [True]
    assert all(np.array_equal(diag.columns[k], ref.columns[k], equal_nan=True) for k in ref.columns)
    with pytest.raises(ValueError, match="at least one term"):
        PerturbationSequence(row, Weight(np.eye(1)), Weight(np.eye(2)), (), "full")
    with pytest.raises(ValueError, match="kind"):
        PerturbationSequence(row, Weight(np.eye(1)), Weight(np.eye(2)), ((row, np.eye(1), np.eye(2)),), "partial")


def test_base_weights_are_checked_when_built(rng):
    # a base weight that does not fit the base matrix is rejected by the
    # constructor, not later inside run_diagnostics
    a = random_matrix_with_rank(rng, 3, 2, 1)
    m, n = random_weight(rng, 3, positive=True), random_weight(rng, 2, positive=True)
    wrong = random_weight(rng, 4, positive=True)
    for bm, bn in ((wrong, n), (m, wrong)):
        with pytest.raises(ValueError, match="weight dimensions"):
            PerturbationSequence.full(a, bm, bn, [(a, m.matrix, n.matrix)])
        with pytest.raises(ValueError, match="weight dimensions"):
            PerturbationSequence.weights_only(a, bm, bn, [(m.matrix, n.matrix)])


def test_split_columns_once_per_split(lapack_calls):
    # mp_norm, mp_diff and the projector diffs depend on the split alone, so
    # a weights-only run takes their 4 values-only SVDs once; each term adds
    # the 2 of its verdict and the 2 of its wmp_diff and wmp_norm
    gen = np.random.default_rng(6)
    a = random_matrix_with_rank(gen, 40, 30, 20)
    m, n = random_weight(gen, 40), random_weight(gen, 30)

    def svdvals(terms):
        pairs = [(m.matrix + np.eye(40) / (i + 1), n.matrix + np.eye(30) / (i + 1)) for i in range(terms)]
        lapack_calls.clear()
        diag = perturb_weights_only(a, m, n, pairs)
        assert all(diag.exists)
        return lapack_calls["svdvals"]

    assert svdvals(50) - svdvals(10) == 4 * 40


def test_no_term_with_an_inverse_leaves_its_columns_undefined():
    # every term's N makes the factor singular, so the inverse columns hold
    # no finite value while the split columns still read A's
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    n_bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    diag = perturb_weights_only(a, np.eye(2), np.eye(2), [(np.eye(2), n_bad)] * 6)
    assert not any(diag.exists)
    assert diag.trends["wmp_diff"] == diag.trends["wmp_norm"] == "undefined"
    assert diag.trends["mp_norm"] == "bounded"


def test_a_tail_that_leaves_zero_is_diverging():
    # the tail opens on the base weights, a difference of exactly 0, and
    # ends away from them: no ratio to the first value exists
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    n_far = np.array([[1.0, 1.0], [1.0, 2.0]])
    diag = perturb_weights_only(a, np.eye(2), np.eye(2), [(np.eye(2), np.eye(2))] * 5 + [(np.eye(2), n_far)])
    assert diag.columns["wmp_diff"][diag.tail_start] == 0.0
    assert diag.columns["wmp_diff"][-1] > DEFAULT_TOL.verify_atol
    assert diag.trends["wmp_diff"] == "diverging"
