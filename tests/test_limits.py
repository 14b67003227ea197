"""Pencil limits, separation criteria, and the B-decomposition."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as golden_data
import wmpinv
from support import (
    nearly_nested_pair,
    numerical_rank,
    random_matrix_with_rank,
    random_psd,
    random_separated_pair,
    random_weight,
)
from wmpinv import (
    CriteriaDisagreeError,
    NotPositiveOnRangeError,
    NotPositiveSemidefiniteError,
    NotSeparatedError,
    RankFlipWarning,
    Weight,
    WeightError,
    closed_form_separated,
    decompose_b,
    general_limit_via_decomposition,
    limit_lambda_to_inf,
    limit_t_to_zero,
    omega_weight,
    require_wmp_inverse,
    separated_pair_check,
)
from wmpinv.limits import _GradedSolver, _pencil_inputs, _psd_lower_bound
from wmpinv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _orthonormality_defect,
    _projected_norm,
    _rank_cutoff,
    _residual_norm,
    _split_basis,
    _trace_over,
    condition_number,
    operator_norm,
    projector_rowspace,
    svd_factor,
)
from wmpinv.sampling import random_complex, random_spd


def assert_separation_scale_free(a, b):
    """The separation fields of ``(a, b)``, checked against each other and for A or B scaled by ``2**-50`` and ``2**50``.

    Returns ``(is_separated, intersection_dim, sum_rank)``, or
    ``CriteriaDisagreeError`` where no verdict is given; scaling either
    input by a power of 2 moves neither row space, so nothing may change.
    At every scale ``pq_norm``, read off the SVD of ``2I - P - Q``, is within
    ``8 h eps`` of ``||P Q||`` for h columns, and a verdict is that of
    ``||P Q||`` against the margin.
    """
    seen = set()
    slack = 8 * a.shape[1] * np.finfo(float).eps
    for sa, sb in [(1.0, 1.0), (2.0**-50, 1.0), (2.0**50, 1.0), (1.0, 2.0**-50), (1.0, 2.0**50)]:
        pq_norm = operator_norm(projector_rowspace(sa * a) @ projector_rowspace(sb * b))
        try:
            rep = separated_pair_check(sa * a, sb * b)
        except CriteriaDisagreeError as exc:
            assert abs(exc.pq_norm - pq_norm) <= slack
            seen.add(CriteriaDisagreeError)
            continue
        assert abs(rep.pq_norm - pq_norm) <= slack
        assert rep.is_separated == (pq_norm <= 1.0 - wmpinv.limits.SEPARATION_MARGIN)
        assert rep.is_separated == (rep.intersection_dim == 0)
        assert rep.sum_rank == numerical_rank(a) + numerical_rank(b) - rep.intersection_dim
        seen.add((rep.is_separated, rep.intersection_dim, rep.sum_rank))
    assert len(seen) == 1, seen
    return seen.pop()


def overlapping_pair(gen, cols=5):
    """Row spaces forced to intersect so the t -> 0 decay is genuine."""
    a = random_matrix_with_rank(gen, 4, cols, 3)
    b = random_matrix_with_rank(gen, 3, cols, 3)
    return a, b


class TestOmegaWeight:
    def test_default_build(self, rng):
        a, b = overlapping_pair(rng)
        w = Weight(random_spd(rng, 3))
        om = omega_weight(a, b, w)
        assert om.u.positive_definite
        assert om.restricted_min_eig > 0

    def test_mismatched_columns(self, rng):
        with pytest.raises(ValueError):
            omega_weight(np.eye(3), np.eye(4), Weight(np.eye(4)))

    def test_indefinite_x_can_break_admissibility(self, rng):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        with pytest.raises(NotPositiveOnRangeError):
            omega_weight(a, b, Weight(np.eye(1)), x=np.array([[-1.0]]))

    def test_y_enters_only_on_joint_null(self, rng):
        a = random_matrix_with_rank(rng, 2, 5, 2)
        b = random_matrix_with_rank(rng, 2, 5, 2)
        w = Weight(random_spd(rng, 2))
        y = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        om = omega_weight(a, b, w, y=y)
        p0 = om.null_projector
        assert np.allclose(om.y_effective, p0 @ y @ p0, atol=1e-10)


class TestLimitT0:
    def test_converges_to_weighted_inverse(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        trace = limit_t_to_zero(a, b, v, w)
        assert trace.converged
        assert trace.rank_flips == ()
        tail = trace.errors[-5:]
        assert np.all(np.diff(tail) <= 0)

    def test_limit_is_u_independent(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        # distinct family members: same w, different x and y blocks
        u1 = omega_weight(a, b, w, x=random_spd(rng, 4))
        u2 = omega_weight(a, b, w, x=random_spd(rng, 4), y=random_spd(rng, 5))
        t1 = limit_t_to_zero(a, b, v, w, u=u1)
        t2 = limit_t_to_zero(a, b, v, w, u=u2)
        assert t1.converged and t2.converged
        assert np.allclose(t1.target, t2.target, atol=1e-9)

    def test_separated_pair_is_exact_at_every_t(self, rng):
        a, b = random_separated_pair(rng, 6, 3, 2, 2, 2)
        v = Weight(random_spd(rng, 3))
        w = Weight(random_spd(rng, 2))
        trace = limit_t_to_zero(a, b, v, w)
        assert np.max(trace.errors) <= 1e-9

    def test_rejects_indefinite_v(self, rng):
        a, b = overlapping_pair(rng)
        with pytest.raises(WeightError):
            limit_t_to_zero(a, b, Weight(np.diag([1.0, 1, 1, -1])), Weight(np.eye(3)))

    def test_rejects_indefinite_w(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(WeightError, match="w must be positive definite for the t -> 0 limit"):
            limit_t_to_zero(a, b, Weight(np.eye(2)), Weight(np.diag([1.0, -1.0])))

    def test_rejects_a_domain_weight_of_the_wrong_size(self, rng):
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        with pytest.raises(ValueError, match=r"u must weigh the columns of a \(dimension 5\)"):
            limit_t_to_zero(a, b, v, w, u=Weight(random_spd(rng, 4)))

    def test_rejects_a_bad_domain_weight_before_any_svd(self, rng, lapack_calls):
        # u is coerced before A is split: the values-only SVD of the
        # self-adjointness check is the only one made
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        skew = np.eye(5)
        skew[0, 1] = 1.0
        for u, message in ((skew, "not self-adjoint"), (np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), "numerically singular")):
            lapack_calls.clear()
            with pytest.raises(WeightError, match=message):
                limit_t_to_zero(a, b, v, w, u=u)
            assert lapack_calls["svd"] == 0

    def test_rejects_bad_schedule(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        with pytest.raises(ValueError):
            limit_t_to_zero(a, b, v, w, schedule=[1e-1, 1e-1])
        with pytest.raises(ValueError):
            limit_t_to_zero(a, b, v, w, schedule=[1e-1, -1e-2])

    def test_rejects_an_empty_schedule(self, rng):
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        with pytest.raises(ValueError, match="schedule must be a nonempty 1-D sequence"):
            limit_t_to_zero(a, b, v, w, schedule=[])

    def test_rejects_a_non_finite_schedule_before_any_decomposition(self, rng, lapack_calls):
        a, b = overlapping_pair(rng)
        v, w = random_spd(rng, 4), random_spd(rng, 3)
        lapack_calls.clear()
        for schedule in ([np.inf, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError, match="finite and positive"):
                limit_t_to_zero(a, b, v, w, schedule=schedule)
        assert not +lapack_calls


class TestLimitLambda:
    def test_golden_two_by_two(self):
        trace = limit_lambda_to_inf(golden_data.LAMBDA_A, golden_data.LAMBDA_B)
        assert np.allclose(trace.target, golden_data.LAMBDA_TARGET, atol=1e-12)
        assert trace.converged

    def test_overlapping_ranges_decay(self, rng):
        g1 = random_matrix_with_rank(rng, 4, 6, 4)
        g2 = random_matrix_with_rank(rng, 4, 6, 4)
        a = g1.conj().T @ g1
        b = g2.conj().T @ g2
        trace = limit_lambda_to_inf(a, b)
        assert trace.converged
        assert trace.errors[-1] < trace.errors[0]

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            limit_lambda_to_inf(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("offset, flips", [(1e-6, (0, 1, 2, 3, 4, 5)), (1e-5, ())])
    def test_rank_flips_on_nearly_nested_ranges(self, offset, flips):
        # B = b b* with b leaning off the range of A by `offset`; at 1e-6 the
        # scaled system exceeds inv_cond_max on the first six schedule points
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        a = np.outer(q[:, 0], q[:, 0].conj()) + np.outer(q[:, 1], q[:, 1].conj())
        b = q[:, 0] + offset * q[:, 2]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = limit_lambda_to_inf(a, np.outer(b, b.conj()))
        assert trace.rank_flips == flips
        assert sum(issubclass(w.category, RankFlipWarning) for w in caught) == (1 if flips else 0)

    def test_truncated_solve_below_the_lstsq_cutoff(self):
        # offset 0 nests the range of B in that of A; with rank_rtol = 1e-18
        # the rounding directions count as rank, so every scaled system is
        # singular to working precision and solved by the truncated SVD
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        a = np.outer(q[:, 0], q[:, 0].conj()) + np.outer(q[:, 1], q[:, 1].conj())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = limit_lambda_to_inf(
                a, np.outer(q[:, 0], q[:, 0].conj()), tol=ToleranceConfig(rank_rtol=1e-18)
            )
        assert trace.rank_flips == tuple(range(9))
        assert trace.converged
        assert sum(issubclass(w.category, RankFlipWarning) for w in caught) == 1
        # the iterate is q0 q0* / (1 + lambda) and the target is 0
        assert np.allclose(trace.errors * (1.0 + trace.params), 1.0, rtol=1e-6, atol=0)
        assert trace.errors[-1] <= 2e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            limit_lambda_to_inf(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_rejects_a_non_finite_schedule_before_any_decomposition(self, lapack_calls):
        # at 1 / lambda = 0 the pencil is A alone, which no schedule may reach
        for schedule in ([1.0, np.inf], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="finite and positive"):
                limit_lambda_to_inf(np.eye(2), np.eye(2), schedule=schedule)
        assert not +lapack_calls

    def test_rejects_a_decreasing_schedule(self):
        with pytest.raises(ValueError, match="schedule must be strictly increasing"):
            limit_lambda_to_inf(np.eye(2), np.eye(2), schedule=[10.0, 1.0])

    def test_rejects_unequal_shapes(self):
        with pytest.raises(ValueError, match="a and b must be square with equal shapes"):
            limit_lambda_to_inf(np.eye(2), np.eye(3))


@pytest.mark.parametrize("atol", [np.nan, -1.0, np.inf])
def test_traces_reject_an_atol_that_is_not_finite_and_nonnegative(atol, rng, lapack_calls):
    a, b = overlapping_pair(rng)
    v, w = random_spd(rng, 4), random_spd(rng, 3)
    lapack_calls.clear()
    with pytest.raises(ValueError, match="atol must be finite and nonnegative"):
        limit_t_to_zero(a, b, v, w, atol=atol)
    with pytest.raises(ValueError, match="atol must be finite and nonnegative"):
        limit_lambda_to_inf(np.eye(2), np.eye(2), atol=atol)
    assert not +lapack_calls


class TestGradedSolverGuards:
    """Both traces against the direct pseudoinverse forms, and on zero-rank inputs."""

    def test_iterates_match_direct_pinv(self):
        # away from the tiny-t end the direct forms are accurate to ~1e-11
        worst = 0.0
        for seed in range(50):
            gen = np.random.default_rng(seed)
            a, b = overlapping_pair(gen)
            v, w = random_spd(gen, 4), random_spd(gen, 3)
            trace = limit_t_to_zero(a, b, v, w)
            for t, it, _ in trace.rows():
                if t >= 1e-3:
                    core = a.conj().T @ v @ a + t * b.conj().T @ w @ b
                    direct = np.linalg.pinv(core) @ a.conj().T @ v
                    worst = max(worst, operator_norm(it - direct) / operator_norm(direct))
            pa, pb = a.conj().T @ a, b.conj().T @ b
            trace = limit_lambda_to_inf(pa, pb)
            for lam, it, _ in trace.rows():
                if lam <= 1e3:
                    direct = np.linalg.pinv(lam * pa + pb) @ pb
                    worst = max(worst, operator_norm(it - direct) / operator_norm(direct))
        assert worst <= 1e-9

    def test_full_svds_per_trace_do_not_grow_with_the_schedule(self, svd_calls):
        # each point makes one LU solve, plus a values-only SVD where its
        # certificate does not clear, so the full SVDs (factors computed) are
        # those of the set-up; the joint rows of [A; B] come from the split of
        # A and one SVD of B V_0, so [A; B] itself reaches no SVD
        gen = np.random.default_rng(3)
        a, b = overlapping_pair(gen)
        v, w = random_spd(gen, 4), random_spd(gen, 3)
        pa, pb = a.conj().T @ a, b.conj().T @ b
        stacked = np.vstack([a, b])
        full = svd_calls
        counts = {"t": [], "lambda": [], "stacked": []}
        for points in (10, 20):
            full.clear()
            trace = limit_t_to_zero(a, b, v, w, schedule=np.geomspace(1e-1, 1e-10, points))
            assert trace.rank_flips == ()
            counts["t"].append(len(full))
            counts["stacked"].append(
                sum(m.shape == stacked.shape and np.array_equal(m, stacked) for m, _ in full)
            )
            full.clear()
            trace = limit_lambda_to_inf(pa, pb, schedule=np.geomspace(1.0, 1e8, points))
            assert trace.rank_flips == ()
            counts["lambda"].append(len(full))
        assert counts["t"][0] == counts["t"][1]
        assert counts["lambda"][0] == counts["lambda"][1]
        assert counts["stacked"] == [0, 0]

    @pytest.mark.parametrize(
        "a_scale, b_scale, expected", [(0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0)]
    )
    def test_zero_rank_pair(self, a_scale, b_scale, expected):
        eye = np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = limit_lambda_to_inf(a_scale * eye, b_scale * eye)
        assert trace.converged and trace.rank_flips == ()
        for it in trace.iterates:
            assert np.allclose(it, expected * eye, rtol=0, atol=1e-12)

    def test_zero_pencil(self, rng):
        a, b = np.zeros((4, 5)), np.zeros((3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = limit_t_to_zero(a, b, Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3)))
        assert trace.converged and trace.rank_flips == ()
        assert all(np.array_equal(it, np.zeros((5, 4))) for it in trace.iterates)


def certificate_family(tol, cols=20):
    """Seeded limit traces whose flips and errors are checked point by point.

    Bench-shaped t- and lambda-traces on ``cols`` columns (a quarter of
    the size at 20), with B scaled by 1e-4 to 1e4, and the nearly-nested
    lambda family with offsets from 1e-8 to 1e-3; each entry is a call
    that runs one trace.
    """
    calls = []
    for seed in range(5):
        gen = np.random.default_rng(40 + seed)
        # rank cols / 2 + rank min(12, cols) > cols, so the row spaces overlap
        qu, _ = np.linalg.qr(random_complex(gen, 12, cols // 2))
        qv, _ = np.linalg.qr(random_complex(gen, cols, cols // 2))
        a = (qu * gen.uniform(0.5, 1.0, cols // 2)) @ qv.conj().T
        b = random_complex(gen, 12, cols)
        v, w = (random_weight(gen, 12, positive=True).matrix for _ in range(2))
        pa, pb = random_psd(gen, cols, 2 * cols // 5), random_psd(gen, cols, 7 * cols // 10)
        # U = A* V A + B* W B + P0 is admissible for s B with W / s^2
        u = omega_weight(a, b, w, x=v)
        for scale in (1e-4, 1.0, 1e4):
            calls.append(lambda a=a, b=scale * b, v=v, w=w, u=u: limit_t_to_zero(a, b, v, w, u=u, tol=tol))
            calls.append(lambda a=pa, b=scale * pb: limit_lambda_to_inf(a, b, tol=tol))
    for offset in np.geomspace(1e-8, 1e-3, 11):
        a, b = nearly_nested_pair(offset)
        calls.append(lambda a=a, b=b: limit_lambda_to_inf(a, b, tol=tol))
    return calls


class TestFlipCertificate:
    """Rank flips decided by the Schur bound or, where it does not clear, the SVD."""

    def test_singular_system_falls_back_to_the_svd(self):
        # zero blocks make the 3 x 3 system exactly singular, which LU rejects
        eye = np.eye(3, dtype=np.complex128)
        rhs = np.ones((3, 2), dtype=np.complex128)
        zero = np.zeros((1, 1), dtype=np.complex128)
        solver = _GradedSolver(
            eye, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)), zero, lambda t: rhs[:2], rhs[2:],
            DEFAULT_TOL, 0.0,
        )
        it, cond = solver.iterate(0.5)
        assert np.array_equal(it, np.zeros((3, 2))) and cond == np.inf
        with pytest.warns(RankFlipWarning):
            trace = _trace_over(np.array([1.0, 0.5]), solver.iterate, np.zeros((3, 2)), DEFAULT_TOL)
        assert trace.rank_flips == (0, 1)

    def test_overflowing_bound_is_quiet(self):
        # cond(S) = 1e200: the LU iterate holds 1e100, the singular values
        # decide the flag and the truncated SVD solve the iterate, and no
        # RuntimeWarning escapes
        eye = np.eye(2, dtype=np.complex128)
        solver = _GradedSolver(
            eye, np.diag([1e100, 1e-100]), np.zeros((2, 2)), np.zeros((2, 0)), np.zeros((0, 0)), lambda t: eye,
            np.zeros((0, 2)), DEFAULT_TOL, 0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            it, cond = solver.iterate(1.0)
        assert cond == pytest.approx(1e200, rel=1e-15)
        assert np.array_equal(it, np.diag([1e-100, 0.0]))

    def test_no_lu_below_the_lstsq_cutoff_at_any_inv_cond_max(self):
        # the systems of test_truncated_solve_below_the_lstsq_cutoff are
        # singular to working precision; with inv_cond_max = 1e20 they are no
        # flips, but the computed inverse is noise, so only the 1e-3 / (eps n)
        # cap on the bound keeps them on the truncated SVD solve
        a, b = nearly_nested_pair(0.0)
        trace = limit_lambda_to_inf(a, b, tol=ToleranceConfig(rank_rtol=1e-18, inv_cond_max=1e20))
        assert trace.rank_flips == ()
        assert np.allclose(trace.errors * (1.0 + trace.params), 1.0, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, ToleranceConfig(inv_cond_max=1e4)], ids=["1e12", "1e4"])
    def test_flips_and_errors_match_the_exact_definitions(self, tol, monkeypatch):
        systems = []
        iterate = _GradedSolver.iterate

        def recording(self, t):
            # the block system of the class docstring, restated
            systems.append(np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]]))
            return iterate(self, t)

        monkeypatch.setattr(_GradedSolver, "iterate", recording)
        flipped = clean = 0
        for call in certificate_family(tol):
            systems.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankFlipWarning)
                trace = call()
            assert len(systems) == trace.params.size
            exact = tuple(i for i, s in enumerate(systems) if condition_number(s) > tol.inv_cond_max)
            assert trace.rank_flips == exact
            flipped += len(exact)
            clean += trace.params.size - len(exact)
            for it, err in zip(trace.iterates, trace.errors):
                ref = operator_norm(it - trace.target)
                assert abs(err - ref) <= 1e-12 * ref
        assert flipped and clean

    def test_each_point_adds_one_solve_and_one_eigvalsh(self, lapack_calls):
        gen = np.random.default_rng(3)
        a, b = overlapping_pair(gen)
        v, w = random_spd(gen, 4), random_spd(gen, 3)
        pa, pb = a.conj().T @ a, b.conj().T @ b
        for trace_for in (
            lambda points: limit_t_to_zero(a, b, v, w, schedule=np.geomspace(1e-1, 1e-8, points)),
            lambda points: limit_lambda_to_inf(pa, pb, schedule=np.geomspace(1.0, 1e8, points)),
        ):
            counts = []
            for points in (5, 10):
                lapack_calls.clear()
                assert trace_for(points).rank_flips == ()
                counts.append(dict(lapack_calls))
            added = {k: counts[1].get(k, 0) - counts[0].get(k, 0) for k in counts[0].keys() | counts[1].keys()}
            assert {k: n for k, n in added.items() if n} == {"solve": 5, "eigvalsh": 5}

    def test_no_lu_solve_at_the_lstsq_cutoff(self, lapack_calls, monkeypatch):
        # every point of the rank_rtol = 1e-18 nearly-nested trace falls to the
        # lstsq cutoff, which the values-only SVD reads before any LU solve, so
        # the one solve is the elimination of K22 and each point takes the
        # truncated SVD solve, whose iterate it returns bit for bit
        expected = []
        iterate = _GradedSolver.iterate

        def recording(self, t):
            system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
            expected.append(self.basis @ svd_factor(system).solve(self.rhs(t)))
            return iterate(self, t)

        a, b = nearly_nested_pair(0.0)
        tol = ToleranceConfig(rank_rtol=1e-18)
        lapack_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            trace = limit_lambda_to_inf(a, b, tol=tol)
        assert trace.rank_flips == tuple(range(9))
        assert (lapack_calls["solve"], lapack_calls["svdvals"], lapack_calls["svd"]) == (1, 9, 10)
        monkeypatch.setattr(_GradedSolver, "iterate", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            limit_lambda_to_inf(a, b, tol=tol)
        assert len(expected) == 9
        assert all(np.array_equal(x, y) for x, y in zip(expected, trace.iterates))

    def test_uncertified_points_are_solved_once(self, lapack_calls):
        # at offset 1e-6 the certificate clears at none of the nine points; each
        # makes one solve beside its values-only SVD, and the trace one more,
        # the elimination of K22
        a, b = nearly_nested_pair(1e-6)
        lapack_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            trace = limit_lambda_to_inf(a, b)
        assert trace.params.size == 9 and trace.rank_flips == (0, 1, 2, 3, 4, 5)
        assert lapack_calls["solve"] == 9 + 1
        assert lapack_calls["svdvals"] == 9


def adversarial_family(tol):
    """Seeded traces on 8 columns whose H11 or K22 is nearly singular.

    A has singular values down to ``s_h`` on its row space and B down to
    ``s_k`` on the null space of A, where the q2 block K22 lives; the
    lambda pair has the same spectra, and B is scaled by 1e-4 to 1e4.
    """
    calls = []
    for seed in range(2):
        gen = np.random.default_rng(70 + seed)
        q, _ = np.linalg.qr(random_complex(gen, 8, 8))
        row, null = q[:, :4], q[:, 4:]
        for s_h in (1e-1, 1e-3, 1e-5):
            for s_k in (1e-1, 1e-3, 1e-5):
                h_spec, k_spec = np.array([1.0, 0.7, 0.5, s_h]), np.array([1.0, 0.7, 0.5, s_k])
                a = random_complex(gen, 5, 4) @ (h_spec[:, None] * row.conj().T)
                b = random_complex(gen, 6, 4) @ (k_spec[:, None] * null.conj().T)
                b = b + random_complex(gen, 6, 4) @ row.conj().T
                v, w = random_psd(gen, 5, 5), random_psd(gen, 6, 6)
                pa = (row * h_spec) @ row.conj().T
                g = (null * k_spec) @ random_complex(gen, 4, 8) + row @ random_complex(gen, 4, 8)
                pb = g @ g.conj().T
                for scale in (1e-4, 1.0, 1e4):
                    # an explicit U: the default one is not admissible this close to singular
                    calls.append(
                        lambda a=a, b=scale * b, v=v, w=w: limit_t_to_zero(a, b, v, w, u=np.eye(8), tol=tol)
                    )
                    calls.append(lambda a=pa, b=scale * pb: limit_lambda_to_inf(a, b, tol=tol))
    return calls


def bench_shaped_calls(seeds=range(2)):
    """t-traces on 48 x 80 inputs of rank 40 and lambda-traces on 80 x 80 ones of ranks 32 and 56."""
    calls = []
    for seed in seeds:
        gen = np.random.default_rng(90 + seed)
        qu, _ = np.linalg.qr(random_complex(gen, 48, 40))
        qv, _ = np.linalg.qr(random_complex(gen, 80, 40))
        a = (qu * gen.uniform(0.5, 1.0, 40)) @ qv.conj().T
        b = random_complex(gen, 48, 80, scale=np.sqrt(0.5))
        v, w = (Weight(random_psd(gen, 48, 48)) for _ in range(2))
        pa, pb = random_psd(gen, 80, 32), random_psd(gen, 80, 56)
        calls.append(lambda a=a, b=b, v=v, w=w: limit_t_to_zero(a, b, v, w))
        calls.append(lambda a=pa, b=pb: limit_lambda_to_inf(a, b))
    return calls


def w_prime_calls():
    """``general_limit_via_decomposition`` on seeded overlapping pairs; each call checks its ``w_prime`` at t = 1."""
    calls = []
    for seed in range(8):
        gen = np.random.default_rng(110 + seed)
        a, b = overlapping_pair(gen)
        v, w, w_prime = random_spd(gen, 4), random_spd(gen, 3), random_spd(gen, 3)
        calls.append(lambda a=a, b=b, v=v, w=w, wp=w_prime: general_limit_via_decomposition(a, b, v, w, w_prime=wp))
    return calls


def trace_arrays(trace):
    """Every field of a trace, as arrays to compare bit for bit."""
    scalars = [trace.limit_atol, trace.converged, *trace.rank_flips]
    return [trace.params, *trace.iterates, trace.errors, trace.target, np.array(scalars)]


def overlapping_calls(draws=40):
    """t-traces on ``draws`` seeded ``overlapping_pair`` draws with positive definite V and W."""
    calls = []
    for seed in range(draws):
        gen = np.random.default_rng(130 + seed)
        a, b = overlapping_pair(gen)
        v, w = random_spd(gen, 4), random_spd(gen, 3)
        calls.append(lambda a=a, b=b, v=v, w=w: limit_t_to_zero(a, b, v, w))
    return calls


ALL = tuple(range(10))


def _from(k):
    """Flags at the points of the default t-schedule from index ``k`` on."""
    return tuple(range(k, 10))


VERDICT_FAMILIES = {
    "certificate-1e12": lambda: certificate_family(DEFAULT_TOL),
    "certificate-1e4": lambda: certificate_family(ToleranceConfig(inv_cond_max=1e4)),
    "adversarial-1e12": lambda: adversarial_family(DEFAULT_TOL),
    "adversarial-1e4": lambda: adversarial_family(ToleranceConfig(inv_cond_max=1e4)),
    "overlapping": overlapping_calls,
    "bench-shaped": lambda: bench_shaped_calls(seeds=range(3)),
}

# (number of t-traces, indices of the converged ones, rank flips by index)
# for the t-traces of each family, in call order; building the pencil's
# bases another way must leave every verdict as it is
PINNED_T_VERDICTS = {
    "certificate-1e12": (15, (0, 1, 3, 4, 6, 7, 9, 10, 12, 13), {8: _from(7), 11: (9,)}),
    "certificate-1e4": (
        15,
        (0, 1, 3, 4, 6, 7, 9, 10, 12, 13),
        {
            0: ALL, 2: ALL, 3: ALL, 5: ALL, 6: ALL, 7: ALL, 8: ALL, 9: ALL, 10: _from(1), 11: ALL, 12: ALL,
            14: ALL,
        },
    ),
    "adversarial-1e12": (
        54,
        (),
        {
            3: ALL, 5: (0, 1, 8, 9), 6: ALL, 8: ALL, 12: ALL, 14: (0, 8, 9), 15: ALL, 17: ALL, 21: ALL,
            22: (8, 9), 23: (0, 8, 9), 24: ALL, 25: _from(6), 26: ALL, 30: ALL, 32: (0, 1, 7, 8, 9),
            33: ALL, 35: ALL, 38: (9,), 39: ALL, 41: (0, 1, 8, 9), 42: ALL, 44: ALL, 48: ALL, 49: (8, 9),
            50: (0, 1, 8, 9), 51: ALL, 52: _from(6), 53: ALL,
        },
    ),
    "adversarial-1e4": (
        54,
        (),
        {
            0: ALL, 1: _from(2), 2: ALL, 3: ALL, 4: ALL, 5: ALL, 6: ALL, 7: ALL, 8: ALL, 9: ALL,
            10: _from(2), 11: ALL, 12: ALL, 13: ALL, 14: ALL, 15: ALL, 16: ALL, 17: ALL, 18: ALL,
            19: _from(2), 20: ALL, 21: ALL, 22: ALL, 23: ALL, 24: ALL, 25: ALL, 26: ALL, 27: ALL, 29: ALL,
            30: ALL, 31: ALL, 32: ALL, 33: ALL, 34: ALL, 35: ALL, 36: ALL, 37: _from(1), 38: ALL, 39: ALL,
            40: ALL, 41: ALL, 42: ALL, 43: ALL, 44: ALL, 45: ALL, 46: _from(2), 47: ALL, 48: ALL, 49: ALL,
            50: ALL, 51: ALL, 52: ALL, 53: ALL,
        },
    ),
    "overlapping": (40, range(40), {}),
    "bench-shaped": (3, range(3), {}),
}


def nested_row_pairs():
    """A of rank 5 on 12 columns and ``B = s C A`` for s from 1e-4 to 1e4.

    The row space of B lies in that of A, so ``B V_0`` is rounding noise
    and the joint rank is rank(A).
    """
    pairs = []
    for seed in range(3):
        gen = np.random.default_rng(150 + seed)
        a = random_matrix_with_rank(gen, 8, 12, 5)
        c = random_complex(gen, 6, 8)
        pairs.extend((a, scale * (c @ a)) for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4))
    return pairs


class TestPinnedVerdicts:
    """Flags and convergence of whole traces, pinned against changes to how the pencil is built."""

    @pytest.mark.parametrize("name", list(PINNED_T_VERDICTS))
    def test_t_trace_verdicts(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            traces = [call() for call in VERDICT_FAMILIES[name]()]
        # a t-schedule decreases, a lambda-schedule increases
        verdicts = [(tr.converged, tr.rank_flips) for tr in traces if tr.params[0] > tr.params[-1]]
        count, converged, flips = PINNED_T_VERDICTS[name]
        assert verdicts == [(i in converged, flips.get(i, ())) for i in range(count)]

    def test_rows_of_b_inside_those_of_a_add_no_joint_rank(self):
        gen = np.random.default_rng(160)
        for a, b in nested_row_pairs():
            assert separated_pair_check(a, b).sum_rank == 5
            om = omega_weight(a, b, Weight(random_spd(gen, 6)))
            assert numerical_rank(om.null_projector) == 12 - 5


class TestSchurCertificate:
    """The per-trace Schur bound that lets a point solve for its right-hand side alone."""

    @staticmethod
    def recorded_points(calls, monkeypatch):
        """``(system, bound, cap, returned condition number)`` at every point of every call.

        The bound is the solver's own, on the norm of S it reads from its
        blocks; the system is assembled here for the exact condition number.
        """
        points = []
        iterate = _GradedSolver.iterate

        def recording(self, t):
            system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
            cap = min(self.tol.inv_cond_max / 2.0, 1e-3 / (np.finfo(float).eps * system.shape[0]))
            it, cond = iterate(self, t)
            points.append((system, self._schur_bound(t), cap, cond))
            return it, cond

        monkeypatch.setattr(_GradedSolver, "iterate", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            for call in calls:
                call()
        return points

    @pytest.mark.parametrize(
        "family, tol",
        [
            (certificate_family, DEFAULT_TOL),
            (certificate_family, ToleranceConfig(inv_cond_max=1e4)),
            # at inv_cond_max = 1e4 no point of this family clears
            (adversarial_family, DEFAULT_TOL),
        ],
        ids=["certificate-1e12", "certificate-1e4", "adversarial-1e12"],
    )
    def test_bound_holds_wherever_it_clears(self, family, tol, monkeypatch):
        eps = np.finfo(float).eps
        cleared = missed = 0
        for system, bound, cap, cond in self.recorded_points(family(tol), monkeypatch):
            if bound <= cap:
                cleared += 1
                exact = condition_number(system)
                # the SVD resolves sigma_min only to about n eps sigma_max
                assert exact <= bound * (1.0 + system.shape[0] * eps * exact)
                assert cond == bound
            else:
                missed += 1
        assert cleared and missed

    def test_bench_shaped_points_solve_for_the_right_hand_side_alone(self, monkeypatch):
        # every point is certified by the Schur bound and solves the order-r
        # system left by eliminating K22, r = rank(A), for its k right-hand
        # sides alone
        widths = []
        solve = np.linalg.solve

        def recording_solve(m, rhs):
            widths.append((m.shape[0], rhs.shape[1]))
            return solve(m, rhs)

        iterate = _GradedSolver.iterate

        def iterate_recording_solves(self, t):
            monkeypatch.setattr(np.linalg, "solve", recording_solve)
            try:
                return iterate(self, t)
            finally:
                monkeypatch.setattr(np.linalg, "solve", solve)

        monkeypatch.setattr(_GradedSolver, "iterate", iterate_recording_solves)
        for call, r, k in zip(bench_shaped_calls(), (40, 32) * 2, (48, 80) * 2):
            widths.clear()
            trace = call()
            assert trace.converged and trace.rank_flips == ()
            assert widths == [(r, k)] * trace.params.size

    @pytest.mark.parametrize(
        "calls",
        [
            lambda: certificate_family(DEFAULT_TOL),
            lambda: certificate_family(ToleranceConfig(inv_cond_max=1e4)),
            lambda: adversarial_family(DEFAULT_TOL),
            w_prime_calls,
        ],
        ids=["certificate-1e12", "certificate-1e4", "adversarial-1e12", "w-prime"],
    )
    def test_no_point_solves_for_identity_columns(self, calls, monkeypatch):
        # certified or not, each point makes one LU solve, and it carries as
        # many columns as the iterate it returns; a point whose smallest
        # singular value falls to the lstsq cutoff makes none, the truncated
        # SVD solve giving its iterate
        eps = np.finfo(float).eps
        points = []
        solve = np.linalg.solve
        iterate = _GradedSolver.iterate

        def iterate_recording_solves(self, t):
            widths = []

            def recording_solve(m, rhs):
                widths.append(rhs.shape[1])
                return solve(m, rhs)

            monkeypatch.setattr(np.linalg, "solve", recording_solve)
            try:
                it, cond = iterate(self, t)
            finally:
                monkeypatch.setattr(np.linalg, "solve", solve)
            system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
            sigma = np.linalg.svd(system, compute_uv=False)
            points.append((widths, it.shape[1], sigma[-1] <= eps * system.shape[0] * sigma[0]))
            return it, cond

        monkeypatch.setattr(_GradedSolver, "iterate", iterate_recording_solves)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            for call in calls():
                call()
        assert points and all(widths == ([] if below else [k]) for widths, k, below in points)

    def test_bench_shaped_points_all_clear(self, monkeypatch):
        points = self.recorded_points(bench_shaped_calls(), monkeypatch)
        assert len(points) == 2 * (10 + 9)
        assert all(bound <= cap for _, bound, cap, _ in points)

    def test_traces_are_bitwise_those_without_the_bound(self, monkeypatch):
        calls = certificate_family(DEFAULT_TOL) + bench_shaped_calls(seeds=[0])

        def traces():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankFlipWarning)
                return [trace_arrays(call()) for call in calls]

        with_bound = traces()
        monkeypatch.setattr(_GradedSolver, "_schur_constants", lambda self, *args: None)
        without = traces()
        assert all(
            len(x) == len(y) and all(np.array_equal(p, q) for p, q in zip(x, y)) for x, y in zip(with_bound, without)
        )



def reference_iterate(system, rhs, basis, mpmath):
    """``basis S^-1 rhs`` at 40 digits, from Gaussian elimination with partial pivoting.

    The double entries of S, the right-hand side and the basis are taken
    as exact; the elimination runs on NumPy object arrays of ``mpc``.
    """
    mpc = np.vectorize(lambda z: mpmath.mpc(z.real, z.imag), otypes=[object])
    with mpmath.workdps(40):
        d = system.shape[0]
        aug = mpc(np.hstack([system, rhs]))
        for k in range(d):
            p = k + int(np.argmax([abs(z) for z in aug[k:, k]]))
            aug[[k, p]] = aug[[p, k]]
            aug[k + 1 :, k:] -= np.outer(aug[k + 1 :, k] / aug[k, k], aug[k, k:])
        y = np.empty((d, rhs.shape[1]), dtype=object)
        for k in reversed(range(d)):
            y[k] = (aug[k, d:] - aug[k, k + 1 : d] @ y[k + 1 :]) / aug[k, k]
        x = mpc(basis) @ y
    return np.vectorize(complex, otypes=[np.complex128])(x)


def refined_iterate(system, rhs, basis):
    """``basis S^-1 rhs`` by iterative refinement: LU solves in double, residuals and solution in ``np.clongdouble``.

    Each step solves ``S d = rhs - S y`` for the residual computed in
    extended precision and adds d to y, which is kept in extended
    precision.  While ``kappa eps`` is well below 1 the error contracts by
    about that factor a step, down to a level near ``kappa eps_ext``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Sec. 12.1);
    at ``kappa eps <= 1e-3``, as at every point checked against it, ten
    steps reach that level.  The result is rounded to double.
    """
    ext = np.clongdouble
    s_ext, rhs_ext = system.astype(ext), rhs.astype(ext)
    y = np.linalg.solve(system, rhs).astype(ext)
    for _ in range(10):
        y = y + np.linalg.solve(system, (rhs_ext - s_ext @ y).astype(np.complex128))
    return (basis.astype(ext) @ y).astype(np.complex128)


class TestEliminatedSolve:
    """A point with ``cond(S) <= cap`` solves the order-r system left by eliminating K22."""

    @staticmethod
    def solved_points(calls, monkeypatch):
        """The traces of ``calls``, and ``(system, rhs, basis, iterate, cond, cap, r, orders)`` at every point.

        ``cond`` is what :meth:`_GradedSolver.iterate` returns, r the order
        of H11 and ``orders`` the orders of the ``numpy.linalg.solve`` calls
        it made.
        """
        points = []
        solve = np.linalg.solve
        iterate = _GradedSolver.iterate

        def recording(self, t):
            orders = []

            def recording_solve(m, rhs):
                orders.append(m.shape[0])
                return solve(m, rhs)

            system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
            cap = min(self.tol.inv_cond_max / 2.0, 1e-3 / (np.finfo(float).eps * system.shape[0]))
            monkeypatch.setattr(np.linalg, "solve", recording_solve)
            try:
                it, cond = iterate(self, t)
            finally:
                monkeypatch.setattr(np.linalg, "solve", solve)
            points.append((system, self.rhs(t), self.basis, it, cond, cap, self.h11.shape[0], orders))
            return it, cond

        monkeypatch.setattr(_GradedSolver, "iterate", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            traces = [call() for call in calls]
        return traces, points

    @pytest.mark.parametrize(
        "tol, flips, full",
        [(DEFAULT_TOL, (0, 1, 2, 3, 4, 5), 9), (ToleranceConfig(inv_cond_max=1e13), (), 1)],
        ids=["1e12", "1e13"],
    )
    def test_each_point_solves_the_order_its_condition_number_allows(self, tol, flips, full, monkeypatch):
        # on the nearly-nested trace at offset 1e-6 (A of rank 2, joint
        # dimension 3) cond(S) falls from 4.0e12 to 1.0e12: above the cap of
        # 5e11 at every point at inv_cond_max = 1e12, and above that of
        # 1.5e12 = 1e-3 / (3 eps) only at the first point at 1e13
        a, b = nearly_nested_pair(1e-6)
        (trace,), points = self.solved_points([lambda: limit_lambda_to_inf(a, b, tol=tol)], monkeypatch)
        assert trace.rank_flips == flips and len(points) == 9
        assert [orders for *_, orders in points] == [[3]] * full + [[2]] * (9 - full)
        assert all((cond <= cap) == (orders == [r]) for _, _, _, _, cond, cap, r, orders in points)

    def test_iterates_match_a_40_digit_solution(self, monkeypatch):
        """At every point with ``cond(S) = kappa <= cap`` the iterate is within ``c d eps kappa`` of the exact one.

        The exact iterate is ``x = [V1 V2] S^-1 rhs`` for the computed S,
        rhs and basis, solved at 40 digits; the bound is relative, in
        Frobenius norm, with c = 5:

        - a computed solution ``y'`` with ``(S + E) y' = rhs`` and
          ``||E||_2 <= eta ||S||_2`` errs by at most ``kappa eta / (1 -
          kappa eta)`` relative, in each column and so in Frobenius norm
          (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm.
          7.2);
        - LU with partial pivoting of order d has ``eta <= gamma_{3d} rho``,
          about ``1.5 d eps rho`` with u = eps / 2 (Thm. 9.4), for a growth
          factor rho taken to be at most 2; complex arithmetic multiplies
          the rounding of each operation by up to sqrt(2) (Sec. 3.6), so
          ``eta <= 3 sqrt(2) d eps``, about ``4.3 d eps``;
        - the read-back through the orthonormal basis adds at most ``d eps
          / 2`` or so, and ``kappa d eps <= 1e-3`` at these points makes
          ``1 / (1 - kappa eta)`` less than 1.01.

        That gives ``c = 4.3 + 0.5``, rounded up to 5.  It is the bound of
        a backward-stable solve of the whole S; no normwise backward-error
        theorem covers block elimination in general, so this checks that
        eliminating K22, whose pivot blocks are no worse conditioned than
        S, meets it.  The families run on 8 columns.

        The reference is :func:`refined_iterate`, whose residuals in
        extended precision put it within about ``kappa eps_ext`` of the
        exact solution.  It is checked against the 40-digit
        :func:`reference_iterate` on three systems, the worst-conditioned
        among them: the two may differ by the rounding of each to double,
        ``eps ||x||``, and by a hundredth of the tolerance.  Where
        ``np.longdouble`` has ``eps >= 1e-18``, too little for that, the
        40-digit solution is the reference throughout.
        """
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        if np.finfo(np.longdouble).eps >= 1e-18:
            reference = lambda *args: reference_iterate(*args, mpmath)
        else:
            reference = refined_iterate
        calls = (
            certificate_family(DEFAULT_TOL, cols=8)
            + certificate_family(ToleranceConfig(inv_cond_max=1e4), cols=8)
            + adversarial_family(DEFAULT_TOL)
        )
        _, points = self.solved_points(calls, monkeypatch)
        # the two certificate families differ in inv_cond_max only, so they
        # share their systems
        exact_for = {}
        checked = 0
        for system, rhs, basis, it, cond, cap, _, _ in points:
            if cond > cap:
                continue
            checked += 1
            key = (system.tobytes(), rhs.tobytes(), basis.tobytes())
            if key not in exact_for:
                exact_for[key] = (system, rhs, basis, reference(system, rhs, basis))
            exact = exact_for[key][-1]
            kappa = condition_number(system)
            d = system.shape[0]
            assert np.linalg.norm(it - exact) <= 5 * d * eps * kappa * np.linalg.norm(exact)
        assert checked >= len(points) // 2
        by_cond = sorted(exact_for.values(), key=lambda entry: condition_number(entry[0]))
        for system, rhs, basis, exact in (by_cond[0], by_cond[len(by_cond) // 2], by_cond[-1]):
            digits = reference_iterate(system, rhs, basis, mpmath)
            tolerance = 5 * system.shape[0] * eps * condition_number(system)
            assert np.linalg.norm(exact - digits) <= (eps + 1e-2 * tolerance) * np.linalg.norm(digits)


class TestSolverBases:
    """The graded solvers take their bases from the splits their traces already make."""

    def test_bench_shaped_traces_make_two_svds_each(self, svd_calls):
        # the t-trace splits A (rank 40) and B V_0, B on the 40 = 80 - 40
        # directions of A's null space, the lambda-trace A (rank 32) and B's
        # compression to the 48 = 80 - 32 directions outside the range of A;
        # the solvers make none of their own
        expected = [
            [((48, 80), True, 40), ((48, 40), True, 40)],
            [((80, 80), True, 32), ((48, 48), False, 48)],
        ]
        for call, svds in zip(bench_shaped_calls(), expected * 2):
            svd_calls.clear()
            call()
            assert [(m.shape, full, np.linalg.matrix_rank(m)) for m, full in svd_calls] == svds

    def test_lambda_basis_joins_the_range_of_a_to_that_of_the_compression_of_b(self, monkeypatch):
        # pair works in v0 = [U_r, U_0 W], W the range basis of U_0* B U_0
        # that the target decides; on these inputs its width is the numerical
        # rank of A + B, the dimension of the joint range
        bases = []
        pair = _GradedSolver.pair.__func__

        def recording(cls, a_sym, b_sym, *args):
            solver = pair(cls, a_sym, b_sym, *args)
            bases.append((solver.basis, a_sym + b_sym))
            return solver

        monkeypatch.setattr(_GradedSolver, "pair", classmethod(recording))
        eye = np.eye(3)
        zero_rank = [lambda a=a, b=b: limit_lambda_to_inf(a * eye, b * eye) for a, b in ((0, 0), (0, 1), (1, 0))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            for call in certificate_family(DEFAULT_TOL) + zero_rank:
                call()
        # the 15 lambda-traces of the bench-shaped quarter, the 11 nearly
        # nested ones and the 3 zero-rank pairs
        assert len(bases) == 15 + 11 + 3
        eps = np.finfo(float).eps
        for v0, joint in bases:
            n, width = v0.shape
            assert np.abs(v0.conj().T @ v0 - np.eye(width)).max(initial=0.0) <= 4 * n * eps
            assert width == numerical_rank(joint)

    def test_t_pencil_basis_starts_with_the_split_of_a_at_every_scale_of_b(self):
        # A's rank is that of its split however large B is: the joint basis
        # is [V_r, V_0 W] with V_r bitwise the split's, and the joint cutoff
        # cuts B V_0 alone
        gen = np.random.default_rng(35)
        problems = [(np.diag([1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0]]), 1)]
        for rows, rank_a, rank_b in ((4, 2, 2), (3, 3, 2), (5, 1, 3)):
            a = random_matrix_with_rank(gen, rows, 6, rank_a)
            problems.append((a, random_matrix_with_rank(gen, 3, 6, rank_b), rank_a))
        for a, b, rank_a in problems:
            v, w = np.eye(a.shape[0]), np.eye(b.shape[0])
            for k in range(-17, 18):
                pen = _pencil_inputs(a, 10.0**k * b, v, w, DEFAULT_TOL)
                r = pen.split.v_r.shape[1]
                assert r == rank_a
                scale = np.hypot(pen.split.sigma_r[0], np.linalg.norm(pen.b))
                cutoff = _rank_cutoff(scale, (a.shape[0] + b.shape[0], a.shape[1]), DEFAULT_TOL)
                rank_bv0 = np.linalg.matrix_rank(pen.b @ pen.split.v_0, tol=cutoff)
                basis = _GradedSolver.pencil(pen, DEFAULT_TOL).basis
                for joint in (pen.joint.v_r, basis):
                    assert np.array_equal(joint[:, :r], pen.split.v_r)
                    assert joint.shape[1] == r + rank_bv0

    def test_lambda_basis_starts_with_the_split_of_a_at_every_scale_of_b(self, monkeypatch):
        # the solver's first r columns are bitwise the u_r of the split the
        # target was computed on, r = rank(A) = 3 at every scale of B
        splits, bases = [], []
        split_basis, pair = wmpinv.limits._split_basis, _GradedSolver.pair.__func__

        def recording_split(m, *args):
            splits.append(split_basis(m, *args))
            return splits[-1]

        def recording_pair(cls, *args):
            solver = pair(cls, *args)
            bases.append(solver.basis)
            return solver

        monkeypatch.setattr(wmpinv.limits, "_split_basis", recording_split)
        monkeypatch.setattr(_GradedSolver, "pair", classmethod(recording_pair))
        gen = np.random.default_rng(35)
        a, b = random_psd(gen, 8, 3), random_psd(gen, 8, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            for k in range(-17, 18):
                splits.clear()
                bases.clear()
                limit_lambda_to_inf(a, 10.0**k * b)
                (split,) = splits
                (basis,) = bases
                assert split.u_r.shape[1] == 3
                assert np.array_equal(basis[:, :3], split.u_r)

    def test_bench_shaped_traces_make_no_order_n_checks(self, lapack_calls, monkeypatch):
        # the default t-target reads Omega through its null-space row, so the
        # t-trace builds no Weight and takes no eigvalsh of order 80; the
        # lambda-trace checks A on its order-32 H11 and takes ||target|| from a
        # Gram of order 48, and eight of its nine errors from Gram matrices of
        # order 32, so of order 80 it has B's check and the last error alone,
        # whose remainder outside range(Bq) the certificate rejects before any
        # Gram of order 32
        orders, weights = [], []
        eigvalsh, init = np.linalg.eigvalsh, Weight.__init__

        def recording_eigvalsh(m, *args, **kwargs):
            orders.append(m.shape[0])
            return eigvalsh(m, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            weights.append(args)
            init(self, *args, **kwargs)

        calls = bench_shaped_calls()
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(Weight, "__init__", counting_init)
        # (points, order-80 eigvalsh, all eigvalsh): the t-trace's errors are of
        # order 48; beside the errors each trace takes one for its atol and one
        # each of H11 and K22, and the lambda-trace one more, B's check
        for call, (points, order_n, total) in zip(calls, [(10, 0, 13), (9, 1 + 1, 13)] * 2):
            orders.clear()
            weights.clear()
            lapack_calls.clear()
            assert call().params.size == points
            assert not weights
            assert orders.count(80) == order_n
            assert lapack_calls["eigvalsh"] == total


def exact_error_calls():
    """Every trace of ``VERDICT_FAMILIES`` and the nearly-nested lambda-traces at four offsets."""
    calls = [call for family in VERDICT_FAMILIES.values() for call in family()]
    for offset in (0.0, 1e-8, 1e-6, 1e-3):
        a, b = nearly_nested_pair(offset)
        calls.append(lambda a=a, b=b: limit_lambda_to_inf(a, b))
    return calls


def assert_errors_are_exact(trace):
    for it, err in zip(trace.iterates, trace.errors):
        ref = operator_norm(it - trace.target)
        assert abs(err - ref) <= 1e-12 * ref


class TestProjectedErrors:
    """Errors read from the Gram of their projection onto range(Bq), where the certificate allows."""

    def test_every_error_is_an_exact_2_norm(self, monkeypatch):
        reduced = []
        projected = _projected_norm

        def recording(d, q, eta):
            norm = projected(d, q, eta)
            reduced.append(norm is not None)
            return norm

        monkeypatch.setattr("wmpinv.linalg._projected_norm", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            for call in exact_error_calls():
                assert_errors_are_exact(call())
        # both routes are taken
        assert any(reduced) and not all(reduced)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.sampled_from(["lambda", "t"]))
    def test_errors_on_random_psd_pencils_are_exact(self, seed, n, kind):
        # 2 rank(A) <= n, so every trace projects its errors onto range(Bq)
        gen = np.random.default_rng(seed)
        rank_a = int(gen.integers(1, n // 2 + 1))
        rank_b = int(gen.integers(1, n + 1))
        scale = 10.0 ** gen.uniform(-3, 3)
        if kind == "lambda":
            call = lambda: limit_lambda_to_inf(random_psd(gen, n, rank_a), scale * random_psd(gen, n, rank_b))
        else:
            a = random_matrix_with_rank(gen, n, n, rank_a)
            b = scale * random_matrix_with_rank(gen, n, n, rank_b)
            call = lambda: limit_t_to_zero(a, b, random_spd(gen, n), random_spd(gen, n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            assert_errors_are_exact(call())

    def test_a_remainder_outside_the_basis_falls_back_to_the_whole_gram(self, monkeypatch):
        # a term of 1e-3 ||E|| outside range(Q) is no rounding, so the
        # certificate rejects the projection, and the error is that of the
        # Gram of the whole error, bit for bit
        solvers = []
        pair = _GradedSolver.pair.__func__

        def recording(cls, *args):
            solvers.append(pair(cls, *args))
            return solvers[-1]

        monkeypatch.setattr(_GradedSolver, "pair", classmethod(recording))
        gen = np.random.default_rng(7)
        trace = limit_lambda_to_inf(random_psd(gen, 80, 32), random_psd(gen, 80, 56), schedule=[10.0])
        q = solvers[0].error_basis()
        eta = _orthonormality_defect(q)
        it = trace.iterates[0]
        err = it - trace.target
        assert _projected_norm(err, q, eta) == trace.errors[0]
        away = random_complex(np.random.default_rng(8), *err.shape)
        away -= q @ (q.conj().T @ away)
        target = trace.target + 1e-3 * trace.errors[0] / operator_norm(away) * away
        assert _projected_norm(it - target, q, eta) is None
        moved = _trace_over(np.array([10.0]), lambda lam: (it, 1.0), target, DEFAULT_TOL, basis=q)
        assert moved.errors[0] == _residual_norm(it - target)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs an extended long double")
    def test_orthonormality_defect_bounds_the_exact_one(self):
        gen = np.random.default_rng(9)
        for rows, cols in ((80, 32), (7, 3), (300, 100)):
            q, _ = np.linalg.qr(random_complex(gen, rows, cols))
            bound = _orthonormality_defect(q)
            wide = q.astype(np.clongdouble)
            gram = wide.conj().T @ wide - np.eye(cols)
            exact = np.linalg.norm(gram.astype(np.complex128), 2)
            # the bound is of the order of the defect itself, not of rows * eps
            assert exact <= bound <= 2 * np.sqrt(cols) * exact + 1e-17
        assert _orthonormality_defect(np.array([[1.5], [0.0]], dtype=np.complex128)) == np.inf


def item8_pair(s):
    """A = diag(1, s, 0, 0) Q[:4] on 6 columns, Q unitary, and a generic complex 3 x 6 B, from one seed."""
    gen = np.random.default_rng(5)
    q, _ = np.linalg.qr(random_complex(gen, 6, 6))
    return np.diag([1.0, s, 0.0, 0.0]) @ q[:4], random_complex(gen, 3, 6)


def omega_target_40_digits(a, b, mpmath):
    """``A+_{I,Omega}`` at 40 digits for ``Omega = A* A + B* B + P_null``, A with its last two rows zero.

    The double entries are taken as exact.  With A1 the first two rows of
    A and ``G = [A1; B]`` of full row rank 5, ``P_null = I - G* (G G*)^-1
    G``, and for positive definite Omega the inverse is ``Omega^-1 A1*
    (A1 Omega^-1 A1*)^-1`` on the columns of A1's rows and 0 on the rest:
    it satisfies the four weighted Penrose identities with M = I.
    """
    with mpmath.workdps(40):
        mat = lambda x: mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in x])
        a1, g = mat(a[:2]), mat(np.vstack([a[:2], b]))
        omega = a1.H * a1 + mat(b).H * mat(b) + mpmath.eye(6) - g.H * mpmath.inverse(g * g.H) * g
        oi = mpmath.inverse(omega)
        x = oi * a1.H * mpmath.inverse(a1 * oi * a1.H)
        exact = np.zeros((6, 4), dtype=np.complex128)
        exact[:, :2] = [[complex(x[i, j]) for j in range(2)] for i in range(6)]
    return exact


class TestDefaultTarget:
    """The default t-target reads Omega through its null-space row, so it does not square A's spread."""

    # (converged, number of rank flips) of the default t-trace at each s; from
    # 1e-6 on the solver's H11 = A_1* A_1 squares s and every point flags
    PINNED = {1e-4: (True, 0), 1e-5: (True, 0), 1e-6: (True, 10), 1e-7: (False, 10), 1e-8: (False, 10)}

    @staticmethod
    def target_bound(a, b):
        """``4 n eps kappa(A) (1 + ||C||) (1 + rho)``, a first-order bound on the target's relative error.

        The split is the exact one of ``A + E`` with ``||E|| <= n eps ||A||``
        (n = 6), which moves ``A^+`` by at most ``2 kappa n eps`` relative
        and turns the bases by ``theta <= kappa n eps`` (Wedin), kappa =
        ``sigma_1 / sigma_r``.  The target is ``X = (I - V_0 C V_r*) A^+``
        with ``C = Omega_00^-1 Omega_0r``, and ``||X|| >= ||A^+||``, since
        ``I - V_0 C V_r*`` does not shrink the row space of A.  The turn moves
        C by at most ``2 theta rho (1 + ||C||)`` with ``rho = ||Omega|| /
        lambda_min(Omega_00)``, and the rounding of Omega's row by ``n eps
        rho (1 + ||C||)``; the sum is at most the bound for kappa >= 1.
        """
        eps = np.finfo(float).eps
        _, sigma, vh = np.linalg.svd(a)
        v_r, v_0 = vh[:2].conj().T, vh[2:].conj().T
        g = np.vstack([a[:2], b])
        omega = a.conj().T @ a + b.conj().T @ b + np.eye(6) - np.linalg.pinv(g) @ g
        o_00 = v_0.conj().T @ omega @ v_0
        c = np.linalg.solve(o_00, v_0.conj().T @ omega @ v_r)
        rho = operator_norm(omega) / np.linalg.eigvalsh(o_00)[0]
        return 4 * 6 * eps * (sigma[0] / sigma[1]) * (1 + operator_norm(c)) * (1 + rho)

    def test_small_singular_values_of_a_are_not_refused(self):
        mpmath = pytest.importorskip("mpmath")
        v, w = np.eye(4), np.eye(3)
        for s, verdict in self.PINNED.items():
            a, b = item8_pair(s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankFlipWarning)
                trace = limit_t_to_zero(a, b, v, w)
            exact = omega_target_40_digits(a, b, mpmath)
            assert operator_norm(trace.target - exact) <= self.target_bound(a, b) * operator_norm(exact)
            assert (trace.converged, len(trace.rank_flips)) == verdict
            # decompose_b and general_limit_via_decomposition take Z by the same route
            assert np.array_equal(decompose_b(a, b, v, w).z, trace.target)

    @pytest.mark.parametrize("s", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_separated_reduction_is_not_refused(self, s):
        # the closed form's base is read off Z, not solved from A* A, so D
        # keeps Z's accuracy and its check against Z passes
        mpmath = pytest.importorskip("mpmath")
        a, b = item8_pair(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            res = general_limit_via_decomposition(a, b, np.eye(4), np.eye(3))
        exact = omega_target_40_digits(a, b, mpmath)
        assert operator_norm(res.closed_form - exact) <= self.target_bound(a, b) * operator_norm(exact)

    def test_target_is_that_of_the_whole_omega(self):
        a, b = item8_pair(1e-4)
        v, w = np.eye(4), np.eye(3)
        whole = limit_t_to_zero(a, b, v, w, u=omega_weight(a, b, w, x=v)).target
        by_row = limit_t_to_zero(a, b, v, w).target
        assert operator_norm(by_row - whole) <= self.target_bound(a, b) * operator_norm(whole)
        # built whole, Omega squares s: its restricted eigenvalue falls below
        # the positivity floor, and omega_weight keeps its check
        with pytest.raises(NotPositiveOnRangeError):
            omega_weight(*item8_pair(1e-5), w, x=v)


def hermitian_with_spectrum(spectrum, seed=0):
    """``Q diag(spectrum) Q*`` for a seeded random unitary Q."""
    q, _ = np.linalg.qr(random_complex(np.random.default_rng(seed), len(spectrum), len(spectrum)))
    a = (q * np.asarray(spectrum, dtype=float)) @ q.conj().T
    return 0.5 * (a + a.conj().T)


class TestLambdaPositivityCheck:
    """A is checked on the bound of ``_psd_lower_bound``, and on its eigenvalues where that does not clear."""

    @pytest.mark.parametrize(
        "a, tol",
        [
            # NumPy's SVD gives Re(u_i* v_i) = 0 for both pairs, so a sign rule on it would pass this one
            (np.array([[0.0, 1.0], [1.0, 0.0]]), DEFAULT_TOL),
            (hermitian_with_spectrum([1, -1, 2, -2, 0.5, 0]), DEFAULT_TOL),
            # -0.2 falls below the coarse rank cutoff, so H11 is positive definite
            # and only the 2 sigma_{r+1} term keeps the bound from clearing
            (hermitian_with_spectrum([1, 0.5, -0.2, 0.1, 0, 0]), ToleranceConfig(rank_rtol=0.3)),
        ],
        ids=["antidiagonal", "indefinite", "below-the-cutoff"],
    )
    def test_indefinite_a_is_rejected(self, a, tol):
        with pytest.raises(NotPositiveSemidefiniteError, match="^a is not"):
            limit_lambda_to_inf(a, np.eye(a.shape[0]), tol=tol)

    def test_scaled_a_passes_and_a_negative_eigenvalue_does_not(self, monkeypatch):
        # at 1e8 the rounding margin of the bound exceeds verify_atol, so A's
        # own eigenvalues decide, and they find the -1e-6
        spectrum = 1e8 * np.array([1.0, 0.5, 0.2, 0.1, 0.05, 0.02])
        b = np.eye(6)
        assert limit_lambda_to_inf(hermitian_with_spectrum(spectrum), b).converged
        decided = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: decided.append(m) or eigvalsh(m))
        a = hermitian_with_spectrum(np.append(spectrum[:-1], -1e-6))
        with pytest.raises(NotPositiveSemidefiniteError, match="^a is not"):
            limit_lambda_to_inf(a, b)
        assert any(m.shape == a.shape and np.array_equal(m, a) for m in decided)

    def test_bound_is_below_the_smallest_eigenvalue(self):
        eps = np.finfo(float).eps
        gen = np.random.default_rng(170)
        cleared = 0
        for trial in range(60):
            n = int(gen.integers(2, 12))
            spectrum = gen.uniform(-1.0, 1.0, n) * 10.0 ** gen.integers(-3, 4)
            spectrum[: int(gen.integers(0, n))] = 0.0
            if trial % 2:
                spectrum = np.abs(spectrum)
            a = hermitian_with_spectrum(spectrum, seed=trial)
            # a coarse cutoff leaves a large sigma_{r+1}
            tol = ToleranceConfig(rank_rtol=0.3) if trial % 3 == 0 else DEFAULT_TOL
            split = _split_basis(a, tol)
            solver = _GradedSolver.pair(a, np.eye(n), split.u_r, split.u_0, 1.0, tol)
            low = _psd_lower_bound(a, split, solver.h11, solver.h_low)
            # the exact smallest eigenvalue is at least the computed one less n eps ||A||_F
            assert low <= np.linalg.eigvalsh(a)[0] - n * eps * np.linalg.norm(a)
            cleared += low >= -DEFAULT_TOL.verify_atol
        assert cleared


@pytest.mark.parametrize("seed", range(10))
def test_lambda_check_does_not_depend_on_scale(seed):
    # eigvalsh puts the zero eigenvalues of 1e8 A about -5e-8 below zero, far
    # under -verify_atol but inside the rounding band n eps ||A||_F (2e-6),
    # so the pair traces as it does at scale 1, to the same target
    def pair(scale):
        gen = np.random.default_rng(seed)
        return scale * random_psd(gen, 40, 20), random_psd(gen, 40, 30)

    a, b = pair(1e8)
    assert np.linalg.eigvalsh(a)[0] < -10 * DEFAULT_TOL.verify_atol
    trace = limit_lambda_to_inf(a, b)
    unit = limit_lambda_to_inf(*pair(1.0))
    assert trace.converged and unit.converged
    assert operator_norm(trace.target - unit.target) <= 1e-10 * operator_norm(unit.target)


def test_limit_traces_leave_scipy_linalg_unloaded():
    # importing scipy.linalg after wmpinv raises a fresh process's peak RSS
    # from 28 to 56 MB and its start-up by 0.37 s (2-core Xeon, Python 3.11,
    # NumPy 2.4, SciPy 1.17)
    src = str(Path(wmpinv.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np, wmpinv\n"
        "wmpinv.limit_lambda_to_inf(np.diag([1.0, 0.0]), np.ones((2, 2)))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


class TestSeparationCriteria:
    def test_generated_pair_is_separated(self, rng):
        a, b = random_separated_pair(rng, 6, 3, 2, 3, 2)
        rep = separated_pair_check(a, b)
        assert rep.is_separated
        assert rep.pq_norm < 1.0
        assert rep.intersection_dim == 0

    def test_shared_direction_is_not_separated(self, rng):
        a = random_matrix_with_rank(rng, 2, 5, 2)
        b = np.vstack([a[:1], random_matrix_with_rank(rng, 1, 5, 1)])
        rep = separated_pair_check(a, b)
        assert not rep.is_separated
        assert rep.intersection_dim >= 1

    def test_borderline_raises_instead_of_guessing(self):
        # two lines at an angle whose cosine sits between the margin (1e-6)
        # and the invertibility threshold of 2I - P - Q (about 2e-12)
        theta = np.sqrt(2e-8)
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.cos(theta), np.sin(theta)]])
        with pytest.raises(CriteriaDisagreeError) as exc:
            separated_pair_check(a, b)
        assert exc.value.pq_norm > 1.0 - 1e-6


    def test_borderline_closed_form_raises_instead_of_guessing(self):
        # the closed form decides on the SVD of 2I - P - Q that also solves
        # for Pi, and must refuse the same borderline pair
        theta = np.sqrt(2e-8)
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.cos(theta), np.sin(theta)]])
        with pytest.raises(CriteriaDisagreeError) as exc:
            closed_form_separated(a, b, np.eye(1), np.eye(1))
        assert exc.value.pq_norm > 1.0 - 1e-6

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.diag([1.0, 0.0, 0.0]), np.array([[0.0, 1e-16, 0.0]])),
            (np.diag([1e-16, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0]])),
        ],
    )
    def test_an_input_far_below_the_other_keeps_its_rank(self, a, b):
        # each rank is decided on its own input's scale, and the count of the
        # intersection on the SVD that decides the verdict
        rep = separated_pair_check(a, b)
        assert (rep.is_separated, rep.intersection_dim, rep.sum_rank) == (True, 0, 2)

    def test_pair_without_columns_is_separated(self):
        # 2I - P - Q is then the empty matrix, whose condition number is 1
        rep = separated_pair_check(np.zeros((2, 0)), np.zeros((1, 0)))
        assert (rep.is_separated, rep.two_minus_sum_cond, rep.intersection_dim, rep.sum_rank) == (True, 1.0, 0, 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "separated", "overlapping"]))
    def test_report_ranks_follow_the_verdict_at_every_scale(self, seed, family):
        gen = np.random.default_rng(seed)
        cols = int(gen.integers(3, 9))
        ra, rb = (int(gen.integers(1, cols)) for _ in range(2))
        if family == "random":
            a = random_matrix_with_rank(gen, int(gen.integers(ra, 9)), cols, ra)
            b = random_matrix_with_rank(gen, int(gen.integers(rb, 9)), cols, rb)
        elif family == "separated":
            ra = min(ra, cols - 2)
            rb = min(rb, cols - 1 - ra)
            a, b = random_separated_pair(gen, cols, ra + 1, rb + 1, ra, rb)
        else:
            a = random_matrix_with_rank(gen, ra + 1, cols, ra)
            # a random combination of A's rows is one shared direction
            b = np.vstack([random_complex(gen, 1, ra + 1) @ a, random_matrix_with_rank(gen, rb, cols, rb)])
        verdict = assert_separation_scale_free(a, b)
        if family == "separated":
            assert verdict == (True, 0, ra + rb)
        elif family == "overlapping":
            assert not verdict[0] and verdict[1] >= 1

    def test_nested_report_ranks_at_every_scale(self):
        for a, b in nested_row_pairs():
            assert assert_separation_scale_free(a, b) == (False, 5, 5)


def ill_conditioned_separated_pair(seed, ratio):
    """``(A, B, V, W)``: A is 2 x 6 with singular values 1 and ``ratio``, B a generic 2 x 6, V and W positive definite."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(random_complex(gen, 6, 6))
    u, _ = np.linalg.qr(random_complex(gen, 2, 2))
    a = u @ np.diag([1.0, ratio]) @ q[:2]
    return a, random_complex(gen, 2, 6), random_spd(gen, 2), random_spd(gen, 2)


def separated_pencil_40_digits(a, b, v, w, mpmath):
    """``(A* V A + B* W B)^+ A* V`` at 40 digits, for ``G = [A; B]`` of full row rank.

    The double entries are taken as exact.  The pencil is ``G* K G`` with
    ``K = diag(V, W)``, so its pseudoinverse is ``G^+ K^-1 G^+*`` with ``G^+ =
    G* (G G*)^-1``.
    """
    k = np.zeros((4, 4), dtype=np.complex128)
    k[:2, :2], k[2:, 2:] = v, w
    with mpmath.workdps(40):
        mat = lambda x: mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in x])
        g = mat(np.vstack([a, b]))
        g_pinv = g.H * mpmath.inverse(g * g.H)
        x = g_pinv * mpmath.inverse(mat(k)) * g_pinv.H * mat(a).H * mat(v)
        return np.array([[complex(x[i, j]) for j in range(x.cols)] for i in range(x.rows)])


class TestClosedFormSeparated:
    @pytest.mark.parametrize("ratio", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_ill_conditioned_a_is_not_refused(self, ratio):
        # D is read off the weighted inverse, not off (A* V A)^+, so it keeps
        # the first-order accuracy n eps kappa(A) of A's split
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for seed in range(2):
            a, b, v, w = ill_conditioned_separated_pair(170 + seed, ratio)
            _, d = closed_form_separated(a, b, v, w)
            exact = separated_pencil_40_digits(a, b, v, w, mpmath)
            assert operator_norm(d - exact) <= 6 * eps / ratio * operator_norm(exact)

    @pytest.mark.parametrize("indefinite", ["v", "w"])
    def test_indefinite_weights_match_the_pencil(self, indefinite):
        # D is the pencil at every t wherever the pencil is invertible on the
        # joint row space, whatever the signature of V and W
        for seed in range(5):
            gen = np.random.default_rng(180 + seed)
            a, b = random_separated_pair(gen, 6, 3, 2, 2, 2)
            q, _ = np.linalg.qr(random_complex(gen, 3, 3))
            signs = [1.0, -1.0, 0.5]
            v = (q * signs) @ q.conj().T if indefinite == "v" else random_spd(gen, 3)
            w = np.diag(signs[:2]) if indefinite == "w" else random_spd(gen, 2)
            _, d = closed_form_separated(a, b, v, w)
            pencil = np.linalg.pinv(a.conj().T @ v @ a + b.conj().T @ w @ b) @ a.conj().T @ v
            assert operator_norm(pencil - d) <= 1e-9 * (1.0 + operator_norm(d))

    def test_matches_pencil_and_ignores_w(self, rng):
        a, b = random_separated_pair(rng, 6, 3, 2, 2, 2)
        v = Weight(random_spd(rng, 3))
        w = Weight(random_spd(rng, 2))
        pi, d = closed_form_separated(a, b, v, w)
        # the pencil at t = 1 already equals the closed form
        core = a.conj().T @ v.matrix @ a + b.conj().T @ w.matrix @ b
        lhs = np.linalg.pinv(core) @ a.conj().T @ v.matrix
        assert operator_norm(lhs - d) <= 1e-9 * (1.0 + operator_norm(d))
        for _ in range(2):
            w2 = random_spd(rng, 2)
            core2 = a.conj().T @ v.matrix @ a + b.conj().T @ w2 @ b
            lhs2 = np.linalg.pinv(core2) @ a.conj().T @ v.matrix
            assert operator_norm(lhs2 - d) <= 1e-9 * (1.0 + operator_norm(d))

    def test_raises_when_not_separated(self, rng):
        a, b = overlapping_pair(rng)
        with pytest.raises(NotSeparatedError):
            closed_form_separated(a, b, Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3)))


class TestDecomposeB:
    def test_split_invariants(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        dec = decompose_b(a, b, v, w)
        assert np.allclose(dec.b1 + dec.b2, b, atol=0)
        assert operator_norm(dec.b2.conj().T @ w.matrix @ dec.b1) <= 1e-9 * (
            1.0 + operator_norm(b)
        ) ** 2 * (1.0 + operator_norm(w.matrix))
        p = projector_rowspace(a, DEFAULT_TOL)
        eye = np.eye(a.shape[1])
        assert operator_norm((eye - p) @ dec.b1.conj().T) <= 1e-9 * (1.0 + operator_norm(b))
        assert separated_pair_check(a, dec.b2).is_separated

    def test_carries_its_checks(self, rng):
        a, b = overlapping_pair(rng)
        w = Weight(random_spd(rng, 3))
        dec = decompose_b(a, b, Weight(random_spd(rng, 4)), w)
        assert dec.w_orthogonality == operator_norm(dec.b2.conj().T @ w.matrix @ dec.b1)
        p = projector_rowspace(a, DEFAULT_TOL)
        outside = operator_norm((np.eye(a.shape[1]) - p) @ dec.b1.conj().T)
        assert abs(dec.containment - outside) <= 1e-12 * (1.0 + operator_norm(b))
        assert dec.separation == separated_pair_check(a, dec.b2)

    def test_rejects_indefinite_v(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0, 1.0, 0.0]])
        with pytest.raises(WeightError, match=r"^v must be positive definite for the t -> 0 limit$"):
            decompose_b(a, b, Weight(np.diag([1.0, -1.0])), Weight(np.eye(1)))

    def test_orthogonal_rows_keep_b_whole(self, rng):
        # B A* = 0 leaves the weighted inverse blind to B, so b1 vanishes
        a = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 1.0, 0.0]])
        v = Weight(random_spd(rng, 2))
        w = Weight(random_spd(rng, 1))
        dec = decompose_b(a, b, v, w)
        assert operator_norm(dec.b1) <= 1e-12
        assert np.allclose(dec.b2, b, atol=1e-12)


class TestGeneralLimit:
    def test_reduction_traces_to_the_closed_form(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = general_limit_via_decomposition(a, b, v, w)
        assert res.trace.converged
        # the closed form is the same target the direct trace reaches
        direct = limit_t_to_zero(a, b, v, w)
        assert np.allclose(res.closed_form, direct.target, atol=1e-8)

    def test_explicit_w_prime(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        res = general_limit_via_decomposition(a, b, v, w, w_prime=Weight(np.eye(3)))
        assert res.trace.converged
        with pytest.raises(WeightError):
            general_limit_via_decomposition(a, b, v, w, w_prime=Weight(np.diag([1.0, 1, -1])))

    def test_an_indefinite_w_prime_is_refused_before_any_svd(self, rng, lapack_calls):
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        lapack_calls.clear()
        with pytest.raises(WeightError, match="w_prime must be positive definite"):
            general_limit_via_decomposition(a, b, v, w, w_prime=np.diag([1.0, 1.0, -1.0]))
        assert lapack_calls["svd"] == lapack_calls["svdvals"] == 0

    def test_w_prime_must_fit_the_rows_of_b(self, rng):
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        with pytest.raises(ValueError, match=r"^w_prime must weigh the rows of b \(dimension 3\)$"):
            general_limit_via_decomposition(a, b, v, w, w_prime=v)

    def test_draws_nothing(self, rng, monkeypatch):
        # every draw of the package starts from np.random.default_rng (sampling.rng_from)
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        sep_a, sep_b = random_separated_pair(rng, 6, 4, 3, 2, 2)

        def refuse(*args):
            raise AssertionError("drew at random")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        first, second = (general_limit_via_decomposition(a, b, v, w) for _ in range(2))
        assert np.array_equal(first.pi, second.pi) and np.array_equal(first.closed_form, second.closed_form)
        assert all(np.array_equal(x, y) for x, y in zip(trace_arrays(first.trace), trace_arrays(second.trace)))
        closed_form_separated(sep_a, sep_b, v, w)


@pytest.mark.parametrize(
    "call", [limit_t_to_zero, closed_form_separated, decompose_b, general_limit_via_decomposition]
)
def test_pencil_weights_must_fit_the_rows(call, rng):
    a, b = random_separated_pair(rng, 6, 4, 3, 2, 2)
    v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
    with pytest.raises(ValueError, match=r"v must weigh the rows of a \(dimension 4\)"):
        call(a, b, w, w)
    with pytest.raises(ValueError, match=r"w must weigh the rows of b \(dimension 3\)"):
        call(a, b, v, v)


@pytest.mark.parametrize("call", [limit_t_to_zero, decompose_b, general_limit_via_decomposition])
@pytest.mark.parametrize("indefinite", ["v", "w"])
def test_indefinite_pencil_weights_are_refused_before_any_svd(call, indefinite, rng, lapack_calls):
    # one message for every routine that needs positive definite V and W;
    # closed_form_separated admits them (test_indefinite_weights_match_the_pencil)
    a, b = random_matrix_with_rank(rng, 4, 6, 3), random_matrix_with_rank(rng, 3, 6, 3)
    weights = {"v": Weight(random_spd(rng, 4)), "w": Weight(random_spd(rng, 3))}
    signs = np.ones(weights[indefinite].dim)
    signs[1] = -1.0
    weights[indefinite] = Weight(np.diag(signs))
    lapack_calls.clear()
    with pytest.raises(WeightError, match=rf"^{indefinite} must be positive definite for the t -> 0 limit$"):
        call(a, b, weights["v"], weights["w"])
    assert lapack_calls["svd"] == lapack_calls["svdvals"] == 0


def test_rank_flip_warnings_point_at_the_caller():
    # each trace warns once, naming the line of the caller, not one of the library
    gen = np.random.default_rng(1)
    a, b = overlapping_pair(gen)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    nested_a, nested_b = nearly_nested_pair(1e-6)
    calls = [
        lambda: limit_t_to_zero(a, 1e-6 * b, v, w),
        lambda: limit_lambda_to_inf(nested_a, nested_b),
        lambda: general_limit_via_decomposition(a, 1e-6 * b, v, w),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        (flip,) = [c for c in caught if issubclass(c.category, RankFlipWarning)]
        assert (flip.filename, flip.lineno) == (__file__, call.__code__.co_firstlineno)


# A = diag(1, 0, 0) keeps its one direction however large B = s e2* is
DOMINANT_B_SCALES = [1e8, 1e15, 1e17]


@pytest.mark.parametrize("s", DOMINANT_B_SCALES)
def test_a_dominant_b_flags_every_point_of_the_t_trace(s):
    # the pencil is e1 e1* at every t, which the solver, unbalanced between
    # the scales of A and B, misses at each of these s: every point is flagged
    a, b = np.diag([1.0, 0.0, 0.0]), s * np.array([[0.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankFlipWarning)
        trace = limit_t_to_zero(a, b, np.eye(3), np.eye(1), u=np.eye(3))
    assert trace.rank_flips == ALL


@pytest.mark.parametrize("s", DOMINANT_B_SCALES)
def test_a_dominant_b_keeps_the_direction_of_a_in_omega_weight(s):
    # the joint row space holds e1, on which A* A + B* B is 1 against s^2 on e2
    a, b = np.diag([1.0, 0.0, 0.0]), s * np.array([[0.0, 1.0, 0.0]])
    with pytest.raises(NotPositiveOnRangeError, match="joint row space"):
        omega_weight(a, b, np.eye(1))


def test_omega_weight_takes_w_on_the_rows_of_b(rng):
    # the same message as the pencil entry points above
    a, b = random_separated_pair(rng, 6, 4, 3, 2, 2)
    with pytest.raises(ValueError, match=r"^w must weigh the rows of b \(dimension 3\)$"):
        omega_weight(a, b, Weight(random_spd(rng, 4)))
