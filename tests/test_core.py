"""Weighted inverse core: factored formula, reductions, embeddings."""

import dataclasses

import numpy as np
import pytest

import conftest as golden_data
from support import random_matrix_with_rank, random_weight
from wmpinv import (
    NonExistentError,
    NotIdempotentError,
    Weight,
    WeightError,
    equivalent_domain_weights,
    matched_projection,
    positive_reduction,
    require_wmp_inverse,
    rho_embed,
    verify_weighted_penrose,
    weight_transfer_codomain,
    weight_transfer_domain,
    weighted_adjoint,
    wmp_exists,
    wmp_inverse,
    wmp_inverse_positive,
)
from wmpinv.core import ExistenceReport, _penrose_residuals
from wmpinv.linalg import (
    _GRAM_FLOOR,
    DEFAULT_TOL,
    ToleranceConfig,
    _residual_norm,
    _split_basis,
    as_matrix,
    condition_number,
    mp_inverse,
    operator_norm,
)
from wmpinv.sampling import random_complex, random_spd


class TestGoldenExample:
    """Hand-worked 4x4 triple with exact rational entries."""

    def test_ordinary_pinv(self, golden):
        assert np.allclose(mp_inverse(golden["a"], DEFAULT_TOL), golden["pinv"], atol=1e-12)

    def test_factors(self, golden):
        res = wmp_inverse(golden["a"], golden["m"], golden["n"])
        assert res.exists
        assert np.allclose(res.r_factor, golden["r"], atol=1e-12)
        assert np.allclose(res.l_factor, np.eye(4), atol=1e-12)

    def test_weighted_inverse(self, golden):
        res = require_wmp_inverse(golden["a"], golden["m"], golden["n"])
        assert np.allclose(res.inverse, golden["wmp"], atol=1e-12)
        assert max(res.penrose_residuals) <= 1e-12


class TestNonExistence:
    def test_singular_domain_factor(self):
        a, n = golden_data.NOEXIST_A, golden_data.NOEXIST_N
        rep = wmp_exists(a, np.eye(2), n)
        assert not rep.exists
        assert not rep.r_invertible
        assert rep.l_invertible
        assert np.allclose(rep.r_factor, [[1.0, 0.0], [1.0, 0.0]], atol=1e-14)

    def test_wmp_inverse_reports_without_raising(self):
        res = wmp_inverse(golden_data.NOEXIST_A, np.eye(2), golden_data.NOEXIST_N)
        assert not res.exists
        assert res.inverse is None

    def test_require_raises_with_factor_name(self):
        with pytest.raises(NonExistentError) as exc:
            require_wmp_inverse(golden_data.NOEXIST_A, np.eye(2), golden_data.NOEXIST_N)
        assert "R_{A,N}" in str(exc.value)


class TestSingularFactorName:
    """R and L both exactly singular: R is named, whatever the rounding says."""

    H = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(30))
    def test_doubly_singular_names_r(self, seed):
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
        p, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
        a = q @ np.diag([1.0, 2.0, 0.0]) @ p.conj().T
        m = q @ self.H @ q.conj().T
        n = p @ self.H @ p.conj().T
        rep = wmp_exists(a, m, n)
        assert not rep.r_invertible and not rep.l_invertible
        for call in (require_wmp_inverse, positive_reduction):
            with pytest.raises(NonExistentError) as exc:
                call(a, m, n)
            assert exc.value.factor == "R_{A,N}"

    def test_messages_depend_on_the_verdict_alone(self, tmp_path, capsys):
        from wmpinv.cli import main
        from wmpinv.io import write_bundle

        # computed condition numbers of exactly singular matrices are rounding
        # noise (1e16-1e17 here, different for each problem)
        conds, messages = set(), set()
        for seed in (4, 17):
            gen = np.random.default_rng(seed)
            q, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
            p, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
            a = q @ np.diag([1.0, 2.0, 0.0]) @ p.conj().T
            m = q @ self.H @ q.conj().T
            n = p @ self.H @ p.conj().T
            r_cond = wmp_exists(a, m, n).r_cond
            conds.add(r_cond)
            with pytest.raises(NonExistentError) as exc:
                require_wmp_inverse(a, m, n)
            assert exc.value.cond == r_cond
            with pytest.raises(WeightError) as weight_exc:
                Weight(a @ a.conj().T)
            bundle = tmp_path / f"singular{seed}.json"
            write_bundle(bundle, {"A": a, "M": m, "N": n})
            assert main(["wmp", "--bundle", str(bundle)]) == 2
            messages.add((str(exc.value), str(weight_exc.value), capsys.readouterr().err))
        assert len(conds) == 2
        assert len(messages) == 1
        assert "singular to working precision" in messages.pop()[0]


class TestNearSingularDomainFactor:
    """R = [[I3, 0], [e0*, delta]]: cond(R) is about 2 / delta."""

    A = np.hstack([np.diag([1.0, 2.0, 1.0]), np.zeros((3, 1))])
    TOL = ToleranceConfig(rank_rtol=1e-4)

    @staticmethod
    def domain_weight(delta):
        n = np.diag([1.0, -1.0, 1.0, delta])
        n[0, 3] = n[3, 0] = 1.0
        return n

    def test_solve_ignores_rank_rtol(self):
        # a solve cut at rank_rtol = 1e-4 would drop sigma_min(R) ~ 7e-7
        res = wmp_inverse(self.A, np.eye(3), self.domain_weight(1e-6), self.TOL)
        assert res.exists
        assert res.r_cond == pytest.approx(2e6, rel=1e-3)
        assert max(res.penrose_residuals) <= 1e-9

    def test_verdict_changes_once_across_the_boundary(self):
        verdicts = []
        for d in np.logspace(-4, -16, 49):
            n = self.domain_weight(d)
            exists = wmp_inverse(self.A, np.eye(3), n, self.TOL).exists
            assert wmp_exists(self.A, np.eye(3), n, self.TOL).exists == exists
            verdicts.append(exists)
        assert verdicts[0] and not verdicts[-1]
        assert sum(a != b for a, b in zip(verdicts, verdicts[1:])) == 1


class TestExactAgainstDenseDefinitions:
    """``r_cond``, ``l_cond`` and the residuals are the 2-norm quantities of the dense matrices."""

    @staticmethod
    def dense_residuals(a, m, n, x):
        # the four residual matrices, formed as verify_weighted_penrose forms them
        am, xm = (np.ascontiguousarray(t, dtype=np.complex128) for t in (a, x))
        ax, xa = am @ xm, xm @ am
        max_, nxa = m.matrix @ ax, n.matrix @ xa
        return [ax @ am - am, xa @ xm - xm, max_ - max_.conj().T, nxa - nxa.conj().T]

    # rank 0, full rank, r <= n - r, r > n - r, and both rectangular orientations
    @pytest.mark.parametrize(
        "rows,cols,rank",
        [(6, 6, 0), (6, 6, 6), (8, 8, 3), (8, 8, 6), (9, 5, 2), (9, 5, 4), (5, 9, 2), (5, 9, 4)],
    )
    def test_seeded_problems(self, rows, cols, rank):
        gen = np.random.default_rng(rows * 100 + cols * 10 + rank)
        for _ in range(5):
            a = random_matrix_with_rank(gen, rows, cols, rank)
            m, n = random_weight(gen, rows), random_weight(gen, cols)
            res = wmp_inverse(a, m, n)
            for cond, factor in ((res.r_cond, res.r_factor), (res.l_cond, res.l_factor)):
                if cond <= 1e10:
                    assert cond == pytest.approx(condition_number(factor), rel=1e-10)
            if res.exists:
                dense = [operator_norm(d) for d in self.dense_residuals(a, m, n, res.inverse)]
                for got, want in zip(res.penrose_residuals, dense):
                    assert abs(got - want) <= 1e-12 * want + 1e-30

    @pytest.mark.parametrize("a_scale,x_scale", [(1.0, 1e150), (1e-170, 1.0), (0.0, 1.0)])
    def test_residuals_at_extreme_scales(self, a_scale, x_scale):
        # the Gram matrices of AXA - A and XAX - X overflow, underflow, or are exactly zero
        gen = np.random.default_rng(3)
        a = a_scale * random_matrix_with_rank(gen, 4, 3, 2)
        x = x_scale * random_complex(gen, 3, 4)
        m, n = random_weight(gen, 4), random_weight(gen, 3)
        dense = [operator_norm(d) for d in self.dense_residuals(a, m, n, x)]
        for got, want in zip(verify_weighted_penrose(a, m, n, x), dense):
            assert abs(got - want) <= 1e-12 * want + 1e-300

    @pytest.mark.parametrize("rank", [2, 4])
    def test_boundary_sweep_matches_dense_verdict(self, rank):
        # cond(N_00) from 1e8 to 1e16 on a 5 x 6 A; rank 2 leaves r <= n - r,
        # rank 4 the QR-compressed r > n - r.  R is not normalised, so at
        # weight scales 1e-6 and 1e6 it is past inv_cond_max over the whole
        # sweep; the verdict must still be the dense one point by point
        gen = np.random.default_rng(rank)
        q_cod, _ = np.linalg.qr(random_complex(gen, 5, 5))
        q_dom, _ = np.linalg.qr(random_complex(gen, 6, 6))
        a = (q_cod[:, :rank] * np.linspace(2.0, 1.0, rank)) @ q_dom[:, :rank].conj().T
        base = random_weight(gen, 6).matrix
        k = 6 - rank
        q_null, _ = np.linalg.qr(random_complex(gen, k, k))
        for scale in (1e-6, 1.0, 1e6):
            verdicts, dense = [], []
            for kappa in np.logspace(8, 16, 33):
                w = q_dom.conj().T @ base @ q_dom
                w[rank:, rank:] = (q_null * np.linspace(1.0, 1.0 / kappa, k)) @ q_null.conj().T
                n = scale * (q_dom @ w @ q_dom.conj().T)
                rep = wmp_exists(a, np.eye(5), 0.5 * (n + n.conj().T))
                verdicts.append(rep.exists)
                dense.append(condition_number(rep.r_factor) <= DEFAULT_TOL.inv_cond_max)
            assert verdicts == dense
            if scale == 1.0:
                assert verdicts[0] and not verdicts[-1]
                assert sum(x != y for x, y in zip(verdicts, verdicts[1:])) == 1


class TestBatchedPenroseNorms:
    """One batched ``eigvalsh`` gives the four residual norms that one ``eigvalsh`` per residual gives."""

    @staticmethod
    def separate(a, m, n, x):
        d = TestExactAgainstDenseDefinitions.dense_residuals(a, m, n, x)
        # an anti-Hermitian e makes 1j e exactly Hermitian, its norm the largest |eigenvalue|
        return [_residual_norm(d[0]), _residual_norm(d[1])] + [float(np.max(np.abs(np.linalg.eigvalsh(1j * e)))) for e in d[2:]]

    @staticmethod
    def shapes():
        # rows 1-12, cols 1-10, every rank from 0 to full, 1 x n and n x 1 included
        for rows in range(1, 13):
            for cols in range(1, 11):
                for rank in range(min(rows, cols) + 1):
                    yield rows, cols, rank

    @pytest.mark.parametrize("positive", [True, False], ids=["positive-definite", "indefinite"])
    def test_pool_shaped_family(self, positive):
        gen = np.random.default_rng(22 + positive)
        for rows, cols, rank in self.shapes():
            a = random_matrix_with_rank(gen, rows, cols, rank)
            m, n = random_weight(gen, rows, positive), random_weight(gen, cols, positive)
            res = wmp_inverse(a, m, n)
            # a non-existent inverse still leaves a candidate to measure
            x = res.inverse if res.exists else res.mp
            got = _penrose_residuals(as_matrix(a), m.matrix, n.matrix, x)
            np.testing.assert_allclose(got, self.separate(a, m, n, x), rtol=1e-14, atol=0.0)
            if res.exists:
                assert np.array_equal(res.penrose_residuals, _penrose_residuals(as_matrix(a), m.matrix, n.matrix, x))

    @pytest.mark.parametrize("scale, by_svd", [(1e-130, 0), (1e130, 1)])
    def test_one_gram_left_to_the_svd(self, scale, by_svd):
        # for the weighted inverse of an A of norm about s, AXA - A is about
        # eps s and XAX - X about eps / s, so at 1e-130 only the first
        # ||D||_F^2 falls to the floor and at 1e130 only the second
        gen = np.random.default_rng(130)
        a = scale * random_matrix_with_rank(gen, 7, 5, 3)
        m, n = random_weight(gen, 7), random_weight(gen, 5)
        x = wmp_inverse(a, m, n).inverse
        grams = TestExactAgainstDenseDefinitions.dense_residuals(a, m, n, x)[:2]
        floored = [not _GRAM_FLOOR < np.vdot(d, d).real < np.inf for d in grams]
        assert floored == [i == by_svd for i in range(2)]
        got = _penrose_residuals(as_matrix(a), m.matrix, n.matrix, x)
        np.testing.assert_allclose(got, self.separate(a, m, n, x), rtol=1e-14, atol=0.0)
        assert got[by_svd] > 0.0


class TestLazyFactors:
    """``r_factor``, ``l_factor`` and ``mp`` are built from the split on first read, then cached."""

    @pytest.mark.parametrize("rows,cols,rank", [(6, 6, 0), (6, 6, 6), (7, 5, 3), (4, 9, 2), (1, 6, 1), (6, 1, 0)])
    def test_built_from_the_split(self, rows, cols, rank):
        gen = np.random.default_rng(rows * 100 + cols * 10 + rank)
        a = random_matrix_with_rank(gen, rows, cols, rank)
        m, n = random_weight(gen, rows), random_weight(gen, cols)
        sp = _split_basis(as_matrix(a), DEFAULT_TOL)
        mi_u0 = np.linalg.solve(m.matrix, sp.u_0) if sp.u_0.size else sp.u_0
        r = np.eye(cols, dtype=np.complex128) + sp.v_0 @ (sp.v_0.conj().T @ n.matrix - sp.v_0.conj().T)
        l = np.eye(rows, dtype=np.complex128) + (mi_u0 - sp.u_0) @ sp.u_0.conj().T
        expected = {"r_factor": r, "l_factor": l, "mp": (sp.v_r / sp.sigma_r) @ sp.u_r.conj().T}
        for report, names in ((wmp_inverse(a, m, n), expected), (wmp_exists(a, m, n), ["r_factor", "l_factor"])):
            for name in names:
                want = expected[name]
                # nothing is built before the first read
                assert name not in vars(report)
                got = getattr(report, name)
                assert np.array_equal(got, want)
                assert getattr(report, name) is got

    @staticmethod
    def same(x, y):
        """Equal values, arrays bitwise, tuples (the split among them) entry by entry."""
        if isinstance(x, tuple):
            return type(x) is type(y) and len(x) == len(y) and all(map(TestLazyFactors.same, x, y))
        if isinstance(x, np.ndarray):
            return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        return type(x) is type(y) and x == y

    @pytest.mark.parametrize(
        "rows,cols,rank", [(4, 9, 2), (9, 4, 3), (6, 6, 4), (6, 6, 0), (4, 9, 4), (9, 4, 4), (6, 6, 6)]
    )
    def test_inverse_carries_every_field_of_the_verdict(self, rows, cols, rank):
        # wmp_inverse copies the verdict field by field into its WmpResult, so a
        # field added to ExistenceReport must reach it with wmp_exists's value
        gen = np.random.default_rng(rows * 100 + cols * 10 + rank)
        a = random_matrix_with_rank(gen, rows, cols, rank)
        self.assert_same_verdict(a, random_weight(gen, rows), random_weight(gen, cols))

    def test_no_inverse_carries_every_field_of_the_verdict(self):
        self.assert_same_verdict(np.diag([1.0, 0.0]), np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def assert_same_verdict(self, a, m, n):
        res, rep = wmp_inverse(a, m, n), wmp_exists(a, m, n)
        names = [f.name for f in dataclasses.fields(ExistenceReport)] + ["r_factor", "l_factor"]
        for name in names:
            assert self.same(getattr(res, name), getattr(rep, name)), name

    def test_mp_is_read_without_an_inverse(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        res = wmp_inverse(a, np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not res.exists and res.inverse is None
        assert np.array_equal(res.mp, [[1.0, 0.0], [0.0, 0.0]])


def test_factor_conditions_come_from_compressions(svdvals_shapes):
    # n - r = 10, so every values-only SVD has order at most 2 (n - r) = 20
    gen = np.random.default_rng(30)
    a = random_matrix_with_rank(gen, 40, 40, 30)
    m, n = random_weight(gen, 40), random_weight(gen, 40)
    svdvals_shapes.clear()
    assert wmp_inverse(a, m, n).exists
    assert svdvals_shapes
    assert max(max(shape) for shape in svdvals_shapes) <= 20


def test_identity_weights_give_ordinary_pinv(rng):
    a = random_matrix_with_rank(rng, 5, 4, 2)
    res = require_wmp_inverse(a, np.eye(5), np.eye(4))
    assert np.allclose(res.inverse, mp_inverse(a, DEFAULT_TOL), atol=1e-12)


def test_positive_oracle_agreement(rng):
    for _ in range(20):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        a = random_matrix_with_rank(rng, rows, cols, rank)
        m = random_weight(rng, rows, positive=True)
        n = random_weight(rng, cols, positive=True)
        direct = require_wmp_inverse(a, m, n).inverse
        oracle = wmp_inverse_positive(a, m, n)
        scale = 1.0 + operator_norm(oracle)
        assert operator_norm(direct - oracle) <= 1e-10 * scale


def test_weight_dimensions_are_checked_on_both_sides(rng):
    a = random_matrix_with_rank(rng, 4, 3, 2)
    m, n = random_weight(rng, 4, positive=True), random_weight(rng, 3, positive=True)
    x = require_wmp_inverse(a, m, n).inverse
    wrong_m, wrong_n = random_weight(rng, 5, positive=True), random_weight(rng, 2, positive=True)
    calls = [
        lambda mw, nw: verify_weighted_penrose(a, mw, nw, x),
        lambda mw, nw: wmp_inverse_positive(a, mw, nw),
        lambda mw, nw: weight_transfer_domain(a, mw, nw, n),
        lambda mw, nw: weight_transfer_codomain(a, mw, m, nw),
    ]
    for call in calls:
        for mw, nw in ((wrong_m, n), (m, wrong_n)):
            with pytest.raises(ValueError, match="weight dimensions"):
                call(mw, nw)


def test_verify_weighted_penrose_detects_wrong_candidate(rng):
    a = random_matrix_with_rank(rng, 4, 3, 2)
    m = random_weight(rng, 4)
    n = random_weight(rng, 3)
    x = require_wmp_inverse(a, m, n).inverse
    good = verify_weighted_penrose(a, m, n, x)
    assert np.max(good) <= 1e-9
    bad = verify_weighted_penrose(a, m, n, x + 0.1)
    assert np.max(bad) > 1e-3


def test_duality_under_adjoint(rng):
    for _ in range(10):
        a = random_matrix_with_rank(rng, 5, 4, 3)
        m = random_weight(rng, 5)
        n = random_weight(rng, 4)
        res = wmp_inverse(a, m, n)
        if not res.exists:
            continue
        dual = wmp_inverse(a.conj().T, Weight(n.inverse), Weight(m.inverse))
        assert dual.exists
        assert np.allclose(res.inverse.conj().T, dual.inverse, atol=1e-9)


def test_weighted_adjoint_pairing(rng):
    a = random_matrix_with_rank(rng, 4, 3, 3)
    m = random_weight(rng, 4, positive=True)
    n = random_weight(rng, 3, positive=True)
    adj = weighted_adjoint(a, m, n)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = np.vdot(y, m.matrix @ (a @ x))
    rhs = np.vdot(adj @ y, n.matrix @ x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


class TestPositiveReduction:
    def test_replacement_weights_are_positive(self, rng):
        a = random_matrix_with_rank(rng, 5, 4, 2)
        m = random_weight(rng, 5)
        n = random_weight(rng, 4)
        if not wmp_exists(a, m, n).exists:
            pytest.skip("drew a non-existent instance")
        red = positive_reduction(a, m, n)
        assert red.s.positive_definite
        assert red.t.positive_definite

    def test_same_inverse(self, golden):
        red = positive_reduction(golden["a"], golden["m"], golden["n"])
        replaced = require_wmp_inverse(golden["a"], red.s, red.t).inverse
        assert np.allclose(replaced, golden["wmp"], atol=1e-10)

    @staticmethod
    def kappa_family(kappa, indefinite_m):
        # a 7 x 6 rank-3 A and an N with the null block diag(1, -1/kappa, 0.5),
        # coupled across [V_r V_0] by a fixed C: R's condition grows like
        # kappa while the coupling C = N_00^-1 N_0r stays put
        gen = np.random.default_rng(0)
        a = random_matrix_with_rank(gen, 7, 6, 3)
        sp = _split_basis(as_matrix(a), DEFAULT_TOL)
        h, c = random_complex(gen, 3, 3), random_complex(gen, 3, 3)
        n00 = np.diag([1.0, -1.0 / kappa, 0.5])
        v = np.hstack([sp.v_r, sp.v_0])
        n = v @ np.block([[h + h.conj().T, c.conj().T @ n00], [n00 @ c, n00]]) @ v.conj().T
        m = random_weight(gen, 7).matrix if indefinite_m else np.eye(7)
        return a, m, 0.5 * (n + n.conj().T)

    @staticmethod
    def couplings(a, m, n):
        # C = N_00^-1 N_0r and D = Mi_00^-1 Mi_0r, Mi = M^-1, from dense blocks
        sp = _split_basis(as_matrix(a), DEFAULT_TOL)
        mi = np.linalg.inv(m)
        c = np.linalg.solve(sp.v_0.conj().T @ n @ sp.v_0, sp.v_0.conj().T @ n @ sp.v_r)
        d = np.linalg.solve(sp.u_0.conj().T @ mi @ sp.u_0, sp.u_0.conj().T @ mi @ sp.u_r)
        return c, d

    @staticmethod
    def disagreement(a, res, s, t):
        replaced = require_wmp_inverse(a, s, t).inverse
        return operator_norm(res.inverse - replaced) / (1.0 + operator_norm(res.inverse))

    @pytest.fixture(scope="class")
    def suite(self):
        # the 500 problems of the acceptance suite that have an inverse, with their results
        from test_acceptance import _suite_instances

        out = [(a, m, n, wmp_inverse(a, m, n)) for a, m, n in _suite_instances()]
        return [case for case in out if case[3].exists]

    @pytest.mark.parametrize("indefinite_m", [False, True], ids=["m-identity", "m-indefinite"])
    @pytest.mark.parametrize("kappa", [1e3, 1e5, 1e7, 1e9])
    def test_kappa_family_is_reproduced(self, kappa, indefinite_m):
        # R* R would have cond(R)^2, about 4 kappa^2: 5e-7 off at kappa = 1e5
        # and no weight from 1e7; the closed forms depend on C and D alone
        a, m, n = self.kappa_family(kappa, indefinite_m)
        res = require_wmp_inverse(a, m, n)
        assert res.r_cond > kappa
        red = positive_reduction(a, m, n)
        assert red.s.positive_definite and red.t.positive_definite
        assert self.disagreement(a, res, red.s, red.t) <= 1e-13
        c, d = self.couplings(a, m, n)
        assert red.t.cond <= 4.0 * (1.0 + np.linalg.norm(c) ** 2) < 1e3
        assert red.s.cond <= 4.0 * (1.0 + np.linalg.norm(d) ** 2) < 1e3

    @pytest.mark.parametrize("side", ["T", "S"])
    def test_a_coupling_no_weight_fits_is_named(self, side):
        # the kappa family at kappa = 1e6 with a fixed N_0r in place of a fixed
        # C, so C = N_00^-1 N_0r grows like kappa: the inverse exists, and
        # every positive definite T with coupling C has cond >= 4 ||C||_2^2 >
        # inv_cond_max; the same block structure in M^-1 gives S the same fate
        gen = np.random.default_rng(0)
        a = random_matrix_with_rank(gen, 7, 6, 3)
        sp = _split_basis(as_matrix(a), DEFAULT_TOL)
        h, n_0r = random_complex(gen, 3, 3), random_complex(gen, 3, 3)
        null_block = np.diag([1.0, -1e-6, 0.5])
        if side == "T":
            basis, fill = np.hstack([sp.v_r, sp.v_0]), null_block
        else:
            basis, fill = np.hstack([sp.u_r, sp.u_0]), np.diag([1.0, -1e-6, 0.5, 2.0])
            h, n_0r = random_complex(gen, 3, 3), random_complex(gen, 4, 3)
        w = basis @ np.block([[h + h.conj().T, n_0r.conj().T], [n_0r, fill]]) @ basis.conj().T
        w = 0.5 * (w + w.conj().T)
        m, n = (np.eye(7), w) if side == "T" else (np.linalg.inv(w), np.eye(6))
        assert require_wmp_inverse(a, m, n).exists
        coupling = self.couplings(a, m, n)[side == "S"]
        assert 4.0 * np.linalg.norm(coupling, 2) ** 2 > DEFAULT_TOL.inv_cond_max
        with pytest.raises(WeightError) as raised:
            positive_reduction(a, m, n)
        message = str(raised.value)
        name = {"T": "C = N_00^-1 N_0r", "S": "D = Mi_00^-1 Mi_0r"}[side]
        head = f"positive reduction: {side}, built for the coupling {name} of Frobenius norm "
        assert message.startswith(head), message
        fro = float(message[len(head) :].split(",")[0])
        assert fro == pytest.approx(np.linalg.norm(coupling), rel=1e-5)
        assert "numerically singular" not in message

    def test_cond_bounds_on_the_acceptance_suite(self, suite):
        worst = largest = 0.0
        for a, m, n, res in suite:
            red = positive_reduction(a, m, n)
            c, d = self.couplings(a, m.matrix, n.matrix)
            assert red.t.cond <= 4.0 * (1.0 + np.linalg.norm(c) ** 2)
            assert red.s.cond <= 4.0 * (1.0 + np.linalg.norm(d) ** 2)
            largest = max(largest, red.s.cond, red.t.cond)
            worst = max(worst, self.disagreement(a, res, red.s, red.t))
        # T = R* R, S = (L L*)^-1 read 1.0e-11 and 9.6e5 on these problems
        assert worst <= 1e-11
        assert largest <= 9.6e5

    def test_theorem_pair_where_its_squares_fit(self, suite):
        # the theorem's T = R* R and S = (L L*)^-1 give A+_MN wherever
        # r_cond^2 and l_cond^2 are within inv_cond_max, up to the rounding
        # of weights of those condition numbers
        cases = list(suite)
        for kappa in (1e3, 1e5, 1e7, 1e9):
            a, m, n = self.kappa_family(kappa, True)
            cases.append((a, m, n, wmp_inverse(a, m, n)))
        checked = 0
        for a, m, n, res in cases:
            squared = max(res.r_cond, res.l_cond) ** 2
            if squared > DEFAULT_TOL.inv_cond_max:
                continue
            r, l = res.r_factor, res.l_factor
            t = r.conj().T @ r
            s = np.linalg.inv(l @ l.conj().T)
            s, t = Weight(0.5 * (s + s.conj().T)), Weight(0.5 * (t + t.conj().T))
            assert s.positive_definite and t.positive_definite
            assert self.disagreement(a, res, s, t) <= 1e-13 + np.finfo(float).eps * squared
            checked += 1
        # every suite problem and the kappa family at 1e3 and 1e5
        assert checked == len(suite) + 2


class TestEquivalentDomainWeights:
    def test_family_members_share_the_inverse(self, golden, rng):
        fam = equivalent_domain_weights(golden["a"], golden["n"], samples=3, rng=rng)
        assert not fam.degenerate
        base = require_wmp_inverse(golden["a"], golden["m"], golden["n"]).inverse
        for n_alt in fam.weights:
            alt = require_wmp_inverse(golden["a"], golden["m"], n_alt).inverse
            assert np.allclose(alt, base, atol=1e-9)

    def test_full_rank_is_degenerate(self, rng):
        a = random_matrix_with_rank(rng, 4, 4, 4)
        fam = equivalent_domain_weights(a, random_weight(rng, 4), rng=rng)
        assert fam.degenerate

    def test_blocked_coupling_raises(self):
        with pytest.raises(NonExistentError):
            equivalent_domain_weights(golden_data.NOEXIST_A, golden_data.NOEXIST_N)

    def test_decides_on_the_domain_factor_alone(self, lapack_calls):
        gen = np.random.default_rng(3)
        a, n = random_matrix_with_rank(gen, 30, 8, 5), random_weight(gen, 8)
        lapack_calls.clear()
        equivalent_domain_weights(a, n, samples=1, rng=0)
        # the split of A, then cond(R) from its QR-compressed blocks (rank 5 > 8 - 5)
        assert lapack_calls["svd"] == 1
        assert lapack_calls["qr"] == 1
        # cond(R), then the two operator norms of the sample's random_spd draws
        assert lapack_calls["svdvals"] == 3
        # the coupling N_00^-1 N_0r, and the sample Weight
        assert lapack_calls["solve"] == 1
        assert lapack_calls["eigvalsh"] == 1
        assert lapack_calls["eigh"] == lapack_calls["inv"] == lapack_calls["lstsq"] == lapack_calls["norm2"] == 0

    def test_near_singular_domain_factor_raises_nonexistence(self):
        # N_00 = 1e-13 is a perfectly conditioned 1 x 1 block, yet cond(R) ~ 2e13
        a = TestNearSingularDomainFactor.A
        n = TestNearSingularDomainFactor.domain_weight(1e-13)
        assert not wmp_exists(a, np.eye(3), n).exists
        with pytest.raises(NonExistentError) as exc:
            equivalent_domain_weights(a, n)
        assert "R_{A,N}" in str(exc.value)


class TestWeightTransfer:
    def test_domain_transfer(self, rng):
        a = random_matrix_with_rank(rng, 5, 4, 3)
        m = random_weight(rng, 5, positive=True)
        n1 = random_weight(rng, 4, positive=True)
        n2 = random_weight(rng, 4, positive=True)
        r = weight_transfer_domain(a, m, n1, n2)
        x1 = require_wmp_inverse(a, m, n1).inverse
        x2 = require_wmp_inverse(a, m, n2).inverse
        assert np.allclose(x1, r @ x2, atol=1e-9)

    def test_codomain_transfer(self, rng):
        a = random_matrix_with_rank(rng, 5, 4, 3)
        m1 = random_weight(rng, 5, positive=True)
        m2 = random_weight(rng, 5, positive=True)
        n = random_weight(rng, 4, positive=True)
        l = weight_transfer_codomain(a, m1, m2, n)
        x1 = require_wmp_inverse(a, m1, n).inverse
        x2 = require_wmp_inverse(a, m2, n).inverse
        assert np.allclose(x1, x2 @ l, atol=1e-9)


def test_rho_embedding_recovers_inverse(golden):
    rho, t_weight = rho_embed(golden["a"], golden["m"], golden["n"])
    rows, cols = golden["a"].shape
    assert np.allclose(rho[:rows, rows:], golden["a"], atol=0)
    assert np.allclose(rho[rows:, :rows], golden["a"].conj().T, atol=0)
    emb = require_wmp_inverse(rho, t_weight, Weight(t_weight.inverse)).inverse
    assert np.allclose(emb[rows:, :rows], golden["wmp"], atol=1e-10)


def test_weights_are_applied_by_solves(lapack_calls, rng):
    # N^-1, N1^-1 and M2^-1 come from LU solves on the weights, not from an
    # eigendecomposition behind Weight.inverse
    a = random_matrix_with_rank(rng, 5, 4, 3)
    m1, m2 = random_weight(rng, 5).matrix, random_weight(rng, 5).matrix
    n1, n2 = random_weight(rng, 4).matrix, random_weight(rng, 4).matrix
    lapack_calls.clear()
    weighted_adjoint(a, m1, n1)
    weight_transfer_domain(a, m1, n1, n2)
    weight_transfer_codomain(a, m1, m2, n1)
    assert lapack_calls["eigh"] == lapack_calls["inv"] == 0


def test_rho_command_inverts_no_whole_embedded_weight(monkeypatch, tmp_path, capsys):
    # T^-1 = diag(M^-1, N) is assembled from its blocks: the eigendecompositions
    # are those of N, for rho_embed's T, and of M, never one of order m + n
    import json

    from wmpinv.cli import main
    from wmpinv.io import write_bundle

    gen = np.random.default_rng(9)
    a, m, n = random_matrix_with_rank(gen, 5, 4, 3), random_weight(gen, 5), random_weight(gen, 4)
    bundle = tmp_path / "problem.json"
    write_bundle(bundle, {"A": a, "M": m.matrix, "N": n.matrix})
    orders = []
    eigh = np.linalg.eigh

    def recording(w, *args, **kwargs):
        orders.append(len(w))
        return eigh(w, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    assert main(["rho", "--bundle", str(bundle), "--json"]) == 0
    assert sorted(orders) == [4, 5]
    assert json.loads(capsys.readouterr().out)["block_residual"] <= 1e-12


class TestMatchedProjection:
    def test_golden_value(self):
        m = matched_projection(golden_data.MATCHED_Q)
        assert np.allclose(m, golden_data.MATCHED_GOLDEN, atol=1e-12)

    def test_projection_properties(self, rng):
        # random idempotent: oblique projector onto a random subspace
        g = random_matrix_with_rank(rng, 5, 2, 2)
        h = random_matrix_with_rank(rng, 5, 2, 2)
        q = g @ np.linalg.inv(h.conj().T @ g) @ h.conj().T
        m = matched_projection(q)
        assert np.allclose(m, m.conj().T, atol=1e-10)
        assert np.allclose(m @ m, m, atol=1e-10)
        # trace accuracy degrades with the obliqueness of q
        assert np.trace(m).real == pytest.approx(2.0, abs=1e-6)

    def test_fixes_hermitian_idempotents(self, rng):
        g = random_matrix_with_rank(rng, 5, 3, 3)
        qmat, _ = np.linalg.qr(g)
        p = qmat @ qmat.conj().T
        assert np.allclose(matched_projection(p), p, atol=1e-10)

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotentError):
            matched_projection(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_one_eigendecomposition(self, lapack_calls):
        # the idempotency check, then one eigh of Q Q* gives |Q*|, its
        # pseudoinverse and (|Q*| + I)^-1
        lapack_calls.clear()
        matched_projection(golden_data.MATCHED_Q)
        assert lapack_calls["svdvals"] == lapack_calls["eigh"] == 1
        assert sum(lapack_calls.values()) == 2


def test_one_split_per_problem(svd_calls, tmp_path, capsys):
    # A enters the weighted inverse only through its split, so a call that
    # holds A fixed while the weights move makes one full SVD of it
    from support import random_separated_pair
    from wmpinv import closed_form_separated, general_limit_via_decomposition, perturb_weights_only
    from wmpinv.cli import main
    from wmpinv.io import write_bundle

    def svds(call, *args, full=True, **kwargs):
        svd_calls.clear()
        call(*args, **kwargs)
        return sum(f == full for _, f in svd_calls)

    def cli(*argv):
        assert main([*argv, "--json"]) == 0

    gen = np.random.default_rng(6)
    a = random_matrix_with_rank(gen, 40, 30, 20)
    m, n = random_weight(gen, 40), random_weight(gen, 30)
    pairs = [(m.matrix + np.eye(40) / (i + 1), n.matrix + np.eye(30) / (i + 1)) for i in range(50)]
    assert svds(perturb_weights_only, a, m, n, pairs) == 1

    a, m1, m2 = random_matrix_with_rank(gen, 6, 5, 3), random_weight(gen, 6), random_weight(gen, 6)
    n1, n2 = random_weight(gen, 5), random_weight(gen, 5)
    assert svds(weight_transfer_domain, a, m1, n1, n2) == 1
    assert svds(weight_transfer_codomain, a, m1, m2, n1) == 1

    a, b = random_matrix_with_rank(gen, 4, 5, 3), random_matrix_with_rank(gen, 3, 5, 3)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    # the split of A and the joint rows of [A; B]; the closed form's base is
    # read off the weighted inverse the split of B is made against
    assert svds(general_limit_via_decomposition, a, b, v, w) <= 2
    # the separated closed form reuses the projectors its separation verdict was decided on
    assert svds(general_limit_via_decomposition, a, b, v, w, full=False) <= 3
    bundle = tmp_path / "pencil.json"
    write_bundle(bundle, {"A": a, "B": b, "V": v.matrix, "W": w.matrix})
    assert svds(cli, "decompose", "--bundle", str(bundle), full=False) <= 7

    a, b = random_separated_pair(gen, 6, 4, 3, 2, 2)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    assert svds(closed_form_separated, a, b, v, w) <= 2
    assert svds(closed_form_separated, a, b, v, w, full=False) <= 2

    a, m, n = random_matrix_with_rank(gen, 6, 5, 3), random_weight(gen, 6), random_weight(gen, 5)
    bundle = tmp_path / "problem.json"
    write_bundle(bundle, {"A": a, "M": m.matrix, "N": n.matrix})
    assert svds(cli, "reduce", "--bundle", str(bundle)) == 1
    # perturb --kind full projects its direction with the split the harness starts from
    svd_calls.clear()
    cli("perturb", "--bundle", str(bundle), "--kind", "full", "--terms", "3")
    assert sum(np.array_equal(mat, a) for mat, _ in svd_calls) == 1
    capsys.readouterr()


def test_no_matrix_is_decomposed_twice(monkeypatch):
    # the separated pipeline hands its splits on instead of redoing them, so
    # no matrix reaches numpy.linalg.svd twice, values-only calls included;
    # the instances are those of test_one_split_per_problem
    from support import random_separated_pair
    from wmpinv import closed_form_separated, decompose_b, general_limit_via_decomposition

    seen = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        seen.append(np.array(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)

    def repeats(call, *args, **kwargs):
        seen.clear()
        call(*args, **kwargs)
        return sum(any(np.array_equal(m, prev) for prev in seen[:i]) for i, m in enumerate(seen))

    gen = np.random.default_rng(6)
    # draw past the weighted-inverse instances that come first there
    random_matrix_with_rank(gen, 40, 30, 20), random_weight(gen, 40), random_weight(gen, 30)
    random_matrix_with_rank(gen, 6, 5, 3), [random_weight(gen, k) for k in (6, 6, 5, 5)]

    a, b = random_matrix_with_rank(gen, 4, 5, 3), random_matrix_with_rank(gen, 3, 5, 3)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    assert repeats(general_limit_via_decomposition, a, b, v, w) == 0
    assert repeats(general_limit_via_decomposition, a, b, v, w, w_prime=w) == 0
    assert repeats(decompose_b, a, b, v, w) == 0

    a, b = random_separated_pair(gen, 6, 4, 3, 2, 2)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    assert repeats(closed_form_separated, a, b, v, w) == 0


def test_separated_pipeline_svd_counts(lapack_calls):
    # values-only calls included, on the instances of test_one_split_per_problem:
    # the closed form's base is read off the weighted inverse, not from an SVD
    # of A* V A, and ||P Q|| off the SVD of 2I - P - Q that decides separation
    from support import random_separated_pair
    from wmpinv import closed_form_separated, decompose_b, general_limit_via_decomposition, separated_pair_check

    def svds(call, *args):
        lapack_calls.clear()
        call(*args)
        return lapack_calls["svd"] + lapack_calls["svdvals"]

    gen = np.random.default_rng(6)
    random_matrix_with_rank(gen, 40, 30, 20), random_weight(gen, 40), random_weight(gen, 30)
    random_matrix_with_rank(gen, 6, 5, 3), [random_weight(gen, k) for k in (6, 6, 5, 5)]

    a, b = random_matrix_with_rank(gen, 4, 5, 3), random_matrix_with_rank(gen, 3, 5, 3)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    assert svds(general_limit_via_decomposition, a, b, v, w) <= 13
    assert svds(decompose_b, a, b, v, w) <= 11

    a, b = random_separated_pair(gen, 6, 4, 3, 2, 2)
    v, w = Weight(random_spd(gen, 4)), Weight(random_spd(gen, 3))
    assert svds(closed_form_separated, a, b, v, w) <= 8
    # B's row basis, the SVD of 2I - P - Q and the split of A
    assert svds(separated_pair_check, a, b) == 3


def test_raw_weights_make_no_eigendecomposition(lapack_calls, rng):
    # the verdict reads M only through a solve and the Weight only its
    # eigenvalues, so exactly Hermitian raw weights cost one eigvalsh each
    a = random_matrix_with_rank(rng, 7, 6, 4)
    m, n = random_weight(rng, 7).matrix, random_weight(rng, 6).matrix
    lapack_calls.clear()
    res = wmp_inverse(a, m, n)
    assert res.exists
    assert lapack_calls["eigh"] == 0
    # the two weights, then one batched call for the four Penrose residuals
    assert lapack_calls["eigvalsh"] == 3
    # the split of A; cond(R) and cond(L) from QR-compressed blocks (rank 4 > 6 - 4, 7 - 4)
    assert lapack_calls["svd"] == 1
    assert lapack_calls["svdvals"] == 2
    assert lapack_calls["qr"] == 2
    # M^-1 U_0 and the two block solves
    assert lapack_calls["solve"] == 3
    assert lapack_calls["inv"] == lapack_calls["lstsq"] == lapack_calls["norm2"] == 0


def test_private_routines_take_checked_arrays():
    # public functions coerce and check; a _-prefixed routine takes checked
    # complex128 arrays, so it calls no coercion and no public entry point
    # of the modules that check their inputs, except the boundary helpers
    import ast
    import importlib
    import inspect
    from pathlib import Path

    import wmpinv

    forbidden = {"as_matrix", "as_weight", "_problem"}
    for name in ("core", "limits", "continuity"):
        mod = importlib.import_module(f"wmpinv.{name}")
        forbidden |= {f for f in mod.__all__ if inspect.isfunction(getattr(mod, f))}
    boundary = {"_problem", "_pencil_inputs", "_hermitian"}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    def calls(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                f = sub.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in forbidden:
                    yield name

    offenders = []

    def visit(node, qual, inside_private):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = f"{qual}{child.name}"
            is_private = inside_private or private(child.name)
            if isinstance(child, ast.FunctionDef) and is_private:
                if name not in boundary:
                    offenders.extend(f"{path.name}: {name} calls {c}" for c in calls(child))
            else:
                visit(child, f"{name}.", is_private)

    for path in sorted(Path(wmpinv.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "", False)
    assert offenders == []


def test_no_explicit_inverse_in_the_package():
    # weights are applied by solves and positive reductions built in closed
    # form; an explicit inverse is read only off Weight.inverse's eigh
    import ast
    from pathlib import Path

    import wmpinv

    def dotted(f):
        parts = []
        while isinstance(f, ast.Attribute):
            parts.append(f.attr)
            f = f.value
        if isinstance(f, ast.Name):
            parts.append(f.id)
        return ".".join(reversed(parts))

    offenders = []
    for path in sorted(Path(wmpinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and dotted(node.func).endswith("linalg.inv"):
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                offenders.extend(f"{path.name}:{node.lineno}" for a in node.names if a.name == "inv")
    assert offenders == []


def test_every_public_helper_has_a_user():
    # a name exported by linalg or sampling is used by another module of
    # the package, documented in the README, or wrapped by the benchmark's
    # tracer; helpers that only the tests need live in tests/support.py
    import ast
    import importlib
    import re
    from pathlib import Path

    import wmpinv

    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    tracing = ast.parse((root / "bench" / "tracing.py").read_text())
    (library,) = (
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LIBRARY"]
    )
    src = Path(wmpinv.__file__).parent
    used = {}
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            used[path.stem] = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(ast.parse(path.read_text()))
                if isinstance(n, (ast.Name, ast.Attribute))
            }

    unused = []
    for owner in ("linalg", "sampling"):
        for name in importlib.import_module(f"wmpinv.{owner}").__all__:
            elsewhere = any(name in names for mod, names in used.items() if mod != owner)
            if not (elsewhere or re.search(rf"`{name}\b", readme) or (owner, name) in library):
                unused.append(f"{owner}.{name}")
    assert unused == []


def test_each_input_is_scanned_once(monkeypatch, rng):
    # A and the two raw weights are coerced once each; nothing under the
    # public call scans them, or the arrays it builds, again
    a = random_matrix_with_rank(rng, 6, 5, 3)
    m, n = random_weight(rng, 6).matrix, random_weight(rng, 5).matrix
    scans = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        scans.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    assert wmp_inverse(a, m, n).exists
    assert scans == [(6, 5), (6, 6), (5, 5)]
    scans.clear()
    assert wmp_exists(a, m, n).exists
    assert scans == [(6, 5), (6, 6), (5, 5)]
