"""Pencil limits, separation criteria, and the B-decomposition."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import conftest as golden_data
import wmpinv
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
from wmpinv.limits import _GradedSolver
from wmpinv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _trace_over,
    condition_number,
    numerical_rank,
    operator_norm,
    projector_rowspace,
)
from wmpinv.sampling import (
    random_complex,
    random_matrix_with_rank,
    random_psd,
    random_separated_pair,
    random_spd,
    random_weight,
)


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

    def test_rejects_a_domain_weight_of_the_wrong_size(self, rng):
        a, b = overlapping_pair(rng)
        v, w = Weight(random_spd(rng, 4)), Weight(random_spd(rng, 3))
        with pytest.raises(ValueError, match=r"u must weigh the columns of a \(dimension 5\)"):
            limit_t_to_zero(a, b, v, w, u=Weight(random_spd(rng, 4)))

    def test_rejects_bad_schedule(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        with pytest.raises(ValueError):
            limit_t_to_zero(a, b, v, w, schedule=[1e-1, 1e-1])
        with pytest.raises(ValueError):
            limit_t_to_zero(a, b, v, w, schedule=[1e-1, -1e-2])

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
        # those of the set-up; the stacked [A; B] is split once
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
        assert counts["stacked"] == [1, 1]

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


def nearly_nested_pair(offset):
    """A of rank 2 and B = b b* with b leaning off the range of A by ``offset``."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    a = np.outer(q[:, 0], q[:, 0].conj()) + np.outer(q[:, 1], q[:, 1].conj())
    b = q[:, 0] + offset * q[:, 2]
    return a, np.outer(b, b.conj())


def certificate_family(tol):
    """Seeded limit traces whose flips and errors are checked point by point.

    Bench-shaped t- and lambda-traces at a quarter of the size, with B
    scaled by 1e-4 to 1e4, and the nearly-nested lambda family with
    offsets from 1e-8 to 1e-3; each entry is a call that runs one trace.
    """
    calls = []
    for seed in range(5):
        gen = np.random.default_rng(40 + seed)
        # rank 10 + rank 12 > 20 columns, so the row spaces overlap
        qu, _ = np.linalg.qr(random_complex(gen, 12, 10))
        qv, _ = np.linalg.qr(random_complex(gen, 20, 10))
        a = (qu * gen.uniform(0.5, 1.0, 10)) @ qv.conj().T
        b = random_complex(gen, 12, 20)
        v, w = (random_weight(gen, 12, positive=True).matrix for _ in range(2))
        pa, pb = random_psd(gen, 20, 8), random_psd(gen, 20, 14)
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
        solver = _GradedSolver(eye, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)), zero, lambda t: rhs)
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
            eye, np.diag([1e100, 1e-100]), np.zeros((2, 2)), np.zeros((2, 0)), np.zeros((0, 0)), lambda t: eye
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

    def test_uncertified_points_are_solved_once(self, lapack_calls):
        # at offset 1e-6 the certificate clears at none of the nine points; each
        # keeps the iterate of its LU solve and adds only the values-only SVD
        a, b = nearly_nested_pair(1e-6)
        lapack_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            trace = limit_lambda_to_inf(a, b)
        assert trace.params.size == 9 and trace.rank_flips == (0, 1, 2, 3, 4, 5)
        assert lapack_calls["solve"] == 9
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


def closed_form_calls():
    """``closed_form_separated`` on seeded separated pairs; each call checks two W at t = 1."""
    calls = []
    for seed in range(8):
        gen = np.random.default_rng(110 + seed)
        a, b = random_separated_pair(gen, 6 + seed % 4, 3, 2, 2, 2)
        v, w = random_spd(gen, 3), random_spd(gen, 2)
        calls.append(lambda a=a, b=b, v=v, w=w, seed=seed: closed_form_separated(a, b, v, w, rng=seed))
    return calls


def trace_arrays(trace):
    """Every field of a trace, as arrays to compare bit for bit."""
    scalars = [trace.limit_atol, trace.converged, *trace.rank_flips]
    return [trace.params, *trace.iterates, trace.errors, trace.target, np.array(scalars)]


class TestSchurCertificate:
    """The per-trace Schur bound that lets a point solve for its right-hand side alone."""

    @staticmethod
    def recorded_points(calls, monkeypatch):
        """``(system, bound, cap, returned condition number)`` at every point of every call."""
        points = []
        iterate = _GradedSolver.iterate

        def recording(self, t):
            system = np.block([[self.h11 + t * self.k11, t * self.k12], [self.k12.conj().T, self.k22]])
            cap = min(self.tol.inv_cond_max / 2.0, 1e-3 / (np.finfo(float).eps * system.shape[0]))
            it, cond = iterate(self, t)
            points.append((system, self._schur_bound(t, system), cap, cond))
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
        # every point is certified by the Schur bound, so no solve carries
        # the identity columns beside the k right-hand-side columns
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
        for call, k in zip(bench_shaped_calls(), (48, 80, 48, 80)):
            widths.clear()
            trace = call()
            assert trace.converged and trace.rank_flips == ()
            assert widths == [(80, k)] * trace.params.size

    @pytest.mark.parametrize(
        "calls",
        [
            lambda: certificate_family(DEFAULT_TOL),
            lambda: certificate_family(ToleranceConfig(inv_cond_max=1e4)),
            lambda: adversarial_family(DEFAULT_TOL),
            closed_form_calls,
        ],
        ids=["certificate-1e12", "certificate-1e4", "adversarial-1e12", "closed-form"],
    )
    def test_no_point_solves_for_identity_columns(self, calls, monkeypatch):
        # certified or not, each point makes one LU solve, and it carries as
        # many columns as the iterate it returns
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
            points.append((widths, it.shape[1]))
            return it, cond

        monkeypatch.setattr(_GradedSolver, "iterate", iterate_recording_solves)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankFlipWarning)
            for call in calls():
                call()
        assert points and all(widths == [k] for widths, k in points)

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



class TestSolverBases:
    """The graded solvers take their bases from the splits their traces already make."""

    def test_bench_shaped_traces_make_two_svds_each(self, svd_calls):
        # the t-trace splits [A; B] and A (rank 40), the lambda-trace A (rank
        # 32) and B's compression to the 48 = 80 - 32 directions outside the
        # range of A; the solvers make none of their own
        expected = [
            [((96, 80), True, 80), ((48, 80), True, 40)],
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


class TestClosedFormSeparated:
    def test_matches_pencil_and_ignores_w(self, rng):
        a, b = random_separated_pair(rng, 6, 3, 2, 2, 2)
        v = Weight(random_spd(rng, 3))
        w = Weight(random_spd(rng, 2))
        pi, d = closed_form_separated(a, b, v, w, rng=rng)
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
            res = general_limit_via_decomposition(a, b, v, w, rng=rng)
        assert res.trace.converged
        # the closed form is the same target the direct trace reaches
        direct = limit_t_to_zero(a, b, v, w)
        assert np.allclose(res.closed_form, direct.target, atol=1e-8)

    def test_explicit_w_prime(self, rng):
        a, b = overlapping_pair(rng)
        v = Weight(random_spd(rng, 4))
        w = Weight(random_spd(rng, 3))
        res = general_limit_via_decomposition(a, b, v, w, w_prime=Weight(np.eye(3)), rng=rng)
        assert res.trace.converged
        with pytest.raises(WeightError):
            general_limit_via_decomposition(
                a, b, v, w, w_prime=Weight(np.diag([1.0, 1, -1])), rng=rng
            )


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
