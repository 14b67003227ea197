"""Core kernels: truncated SVD, projectors, solves, tolerances."""

from fractions import Fraction

import numpy as np
import pytest

from support import numerical_rank, random_matrix_with_rank
from wmpinv.limits import _GradedSolver, _hermitian_floor, limit_lambda_to_inf
from wmpinv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _U,
    _fro,
    _gamma,
    _kernel_error,
    _orthonormality_defect,
    _product_rounding,
    _projected_norm,
    _sum_error,
    _verify,
    as_matrix,
    condition_number,
    hermitian_power,
    limit_atol_for,
    mp_inverse,
    operator_norm,
    projector_rowspace,
    solve_linear,
    svd_factor,
)
from wmpinv.exceptions import VerificationError, WmpError
from wmpinv.sampling import random_spd


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rtol=-1.0)
    with pytest.raises(ValueError):
        ToleranceConfig(inv_cond_max=0.5)
    with pytest.raises(ValueError):
        ToleranceConfig(verify_atol=-1e-9)
    cfg = ToleranceConfig(rank_rtol=1e-10)
    assert cfg.rank_rtol_for((5, 3)) == 1e-10
    adaptive = DEFAULT_TOL.rank_rtol_for((5, 3))
    assert adaptive == 5 * np.finfo(np.float64).eps


def test_svd_factor_rank_detection(rng):
    for rank in range(0, 5):
        a = random_matrix_with_rank(rng, 6, 5, rank)
        f = svd_factor(a, DEFAULT_TOL)
        assert f.rank == rank
        assert numerical_rank(a, DEFAULT_TOL) == rank
    # adaptive cutoff treats the middle entry as zero
    assert numerical_rank(np.diag([1.0, 1e-20, 0.0]), DEFAULT_TOL) == 1


def test_mp_inverse_penrose_equations(rng):
    a = random_matrix_with_rank(rng, 7, 4, 3)
    x = mp_inverse(a, DEFAULT_TOL)
    assert np.allclose(a @ x @ a, a, atol=1e-12)
    assert np.allclose(x @ a @ x, x, atol=1e-12)
    assert np.allclose((a @ x).conj().T, a @ x, atol=1e-12)
    assert np.allclose((x @ a).conj().T, x @ a, atol=1e-12)


def test_projectors(rng):
    a = random_matrix_with_rank(rng, 6, 4, 2)
    q = projector_rowspace(a, DEFAULT_TOL)
    assert np.allclose(q @ q, q, atol=1e-12)
    assert np.allclose(q.conj().T, q, atol=1e-12)
    assert np.allclose(a @ q, a, atol=1e-12)


def test_condition_number_and_invertibility():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)
    assert np.isinf(condition_number(np.diag([1.0, 0.0])))


def test_operator_norm_is_numpy_2_norm(rng):
    shapes = [(1, 1), (1, 7), (7, 1), (3, 5), (6, 4), (12, 10), (0, 3), (3, 0), (0, 0)]
    for rows, cols in shapes:
        for x in (
            rng.standard_normal((rows, cols)),
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
        ):
            assert operator_norm(x) == np.linalg.norm(as_matrix(x), 2)


def test_hermitian_power(rng):
    h = random_spd(rng, 4)
    half = hermitian_power(h, 0.5, DEFAULT_TOL)
    assert np.allclose(half @ half, h, atol=1e-10)
    inv = hermitian_power(h, -1.0, DEFAULT_TOL)
    assert np.allclose(inv @ h, np.eye(4), atol=1e-10)
    with pytest.raises(WmpError):
        hermitian_power(np.diag([1.0, -1.0]), 0.5, DEFAULT_TOL)


def test_hermitian_power_rejects_a_non_self_adjoint_input():
    # the Hermitian part of [[1, 1], [0, 1]] is positive definite, but the
    # matrix itself is not self-adjoint, so it has no Hermitian power
    with pytest.raises(ValueError, match="self-adjoint"):
        hermitian_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5, DEFAULT_TOL)


def test_solve_linear_vs_inverse(rng):
    a = random_spd(rng, 5)
    b = rng.standard_normal((5, 3))
    x = solve_linear(a, b)
    assert np.allclose(a @ x, b, atol=1e-10)


def test_limit_atol_scaling():
    small = limit_atol_for(np.zeros((2, 2)))
    assert small == pytest.approx(1e-8)
    big = limit_atol_for(np.diag([1e6, 1e6]))
    assert big > 1e-3


def test_verify_raises_past_its_bound_and_passes_at_it():
    with pytest.raises(VerificationError) as exc:
        _verify("x", 2e-9, 1.0, DEFAULT_TOL)
    assert (exc.value.what, exc.value.residual, exc.value.atol) == ("x", 2e-9, DEFAULT_TOL.verify_atol)
    # the bound is verify_atol * scale, inclusive
    _verify("x", DEFAULT_TOL.verify_atol * 3.0, 3.0, DEFAULT_TOL)


def test_ranks_are_cut_only_by_the_two_factoring_helpers():
    # outside linalg no module forms a rank cutoff of its own or factors a
    # matrix by hand: a rank that needs bases comes from svd_factor or
    # _split_basis, and np.linalg.svd is called for singular values alone
    import ast
    from pathlib import Path

    import wmpinv

    offenders = []
    for path in sorted(Path(wmpinv.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            name = ast.unparse(node.func)
            if node.func.attr == "rank_rtol_for":
                offenders.append(f"{path.name}:{node.lineno} {name}")
            elif name.endswith("linalg.svd"):
                values_only = any(
                    k.arg == "compute_uv" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in node.keywords
                )
                if not values_only:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind by a change keeps a dependency that no code has;
    # the package __init__ only re-exports, so it is exempt
    import ast
    from pathlib import Path

    import wmpinv

    offenders = []
    for path in sorted(Path(wmpinv.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert offenders == []


class TestRoundingModel:
    """Each margin of the rounding model against an exact reference, on inputs where it is needed.

    Every test here fails when the margin it names is set to zero.
    """

    @staticmethod
    def exact(m):
        """The entries of a complex float matrix as pairs of Fractions."""
        return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(m)]

    @staticmethod
    def product(x, y):
        """The exact product of two matrices of Fraction pairs."""
        cols = range(len(y[0]))
        return [
            [
                (
                    sum(p[0] * y[k][j][0] - p[1] * y[k][j][1] for k, p in enumerate(row)),
                    sum(p[0] * y[k][j][1] + p[1] * y[k][j][0] for k, p in enumerate(row)),
                )
                for j in cols
            ]
            for row in x
        ]

    @staticmethod
    def difference(computed, exact):
        """``computed - exact`` as a float matrix, each entry rounded once."""
        return np.array(
            [
                [complex(float(Fraction(c.real) - e[0]), float(Fraction(c.imag) - e[1])) for c, e in zip(crow, erow)]
                for crow, erow in zip(computed, exact)
            ]
        )

    def test_gamma_and_the_unit_roundoff(self):
        eps = np.finfo(np.float64).eps
        assert _U == eps / 2
        assert _gamma(1) == _U / (1.0 - _U) and _gamma(4) == 4 * _U / (1.0 - 4 * _U)
        assert _kernel_error(3, 2.0) == 3 * eps * 2.0 and _kernel_error(5) == 5 * eps
        assert _sum_error(3.0) == _U * 3.0 and _sum_error(1.0, 2) == eps

    def test_eigenvalue_floor_of_an_exactly_singular_matrix_is_not_positive(self):
        # rank-one Hermitian v v* with integer v of 20 bits, and G G* with
        # integer G: every entry is exact, so each matrix is exactly singular,
        # yet eigvalsh puts its smallest eigenvalue above zero; the backward
        # error of _kernel_error must bring the floor back to zero or below.
        # In the first two the computed eigenvalue is above half that margin.
        vs = [[554411 - 992149j, 942566 + 507955j], [497878 + 295762j, 465845 + 132866j]]
        factors = [np.array(v).reshape(2, 1) for v in vs]
        factors.append(np.array([[-1, 8], [0, 6], [5, -8]], dtype=np.complex128) * 2.0**7)
        lowest = []
        for f in factors:
            x = f @ f.conj().T
            # x is F F* exactly, F of fewer columns than rows
            assert not self.difference(x, self.product(self.exact(f), self.exact(f.conj().T))).any()
            h, skew, low = _hermitian_floor(x)
            assert h == np.inf and skew == 0.0
            lowest.append(low)
        assert any(low > 0.0 for low in lowest)

    def test_lambda_check_accepts_exactly_singular_inputs_whose_eigenvalue_rounds_below_zero(self):
        # v v* with integer v of 20 bits is exactly positive semidefinite and
        # singular, yet eigvalsh puts its smallest eigenvalue below zero, by
        # more than half the band n eps ||X||_F and by far more than
        # verify_atol; the check must take that band, on A and on B
        eps = np.finfo(np.float64).eps
        lowest = []
        for v in ([426930 + 148705j, -599499 - 253323j], [375892 - 140174j, 421037 - 87315j]):
            x = np.outer(v, np.conj(v))
            exact = self.product(self.exact(np.reshape(v, (2, 1))), self.exact([np.conj(v)]))
            assert not self.difference(x, exact).any()
            lowest.append(np.linalg.eigvalsh(x)[0] / (2 * eps * np.linalg.norm(x)))
            for a, b in ((np.diag([1.0, 0.0]), x), (x, np.diag([1.0, 0.0]))):
                assert limit_lambda_to_inf(a, b).converged
        assert min(lowest) < -0.5

    def test_triple_product_rounding_bounds_the_exact_error(self):
        gen = np.random.default_rng(11)
        for d in (1, 2, 5):
            x, m, y = (
                gen.standard_normal(shape) + 1j * gen.standard_normal(shape) for shape in ((d, 3), (d, d), (d, 2))
            )
            computed = x.conj().T @ m @ y
            exact = self.product(self.product(self.exact(x.conj().T), self.exact(m)), self.exact(y))
            err = _fro(self.difference(computed, exact))
            assert 0.0 < err <= _product_rounding(d) * _fro(x) * _fro(m) * _fro(y)

    def test_schur_radius_covers_the_rounding_of_forming_s(self):
        # ||E||_2 <= r0 + t r1 + 2u ||S||_F of _GradedSolver._schur_constants,
        # E the exact difference between S(t) as formed and as defined, with
        # H11 of order one and K of order 1e-6, so the sum H11 + t K11 rounds
        # where the scaling of K does not matter
        gen = np.random.default_rng(12)
        q = np.linalg.qr(gen.standard_normal((3, 3)))[0]
        h11 = (q * [1.0, 2.0, 3.0]) @ q.T
        h11 = (0.5 * (h11 + h11.T)).astype(np.complex128)
        f = gen.standard_normal((4, 4)) * 1e-3
        k = f @ f.T
        k = (0.5 * (k + k.T)).astype(np.complex128)
        k11, k12, k22 = k[:3, :3], k[:3, 3:], k[3:, 3:]
        basis = np.eye(4, dtype=np.complex128)
        solver = _GradedSolver(basis, h11, k11, k12, k22, lambda t: np.zeros((3, 1)), np.zeros((1, 1)), DEFAULT_TOL, 0.0)
        _, _, _, r0, r1, _, sum_rel = solver.schur
        h_pad = self.exact(np.pad(h11, ((0, 1), (0, 1))))
        for t in (0.3, 0.7, 1e-3):
            formed = np.block([[h11 + t * k11, t * k12], [k12.conj().T, k22]])
            # S(t) = diag(H11, 0) + diag(t, t, t, 1) K, in exact arithmetic
            rows = [Fraction(t)] * 3 + [Fraction(1)]
            defined = [
                [(h[0] + s * kk[0], h[1] + s * kk[1]) for h, kk in zip(hrow, krow)]
                for s, hrow, krow in zip(rows, h_pad, self.exact(k))
            ]
            err = operator_norm(self.difference(formed, defined))
            assert 0.0 < err <= r0 + t * r1 + sum_rel * np.linalg.norm(formed)

    def test_orthonormality_defect_of_one_column_bounds_the_exact_one(self):
        # for a single column ||Q* Q - I||_2 = | ||q||^2 - 1 | is one number,
        # so the Frobenius norm leaves no slack and the rounding terms carry
        # the bound; a normalised column has a defect of order eps
        gen = np.random.default_rng(3)
        for h in range(2, 9):
            for _ in range(20):
                q = gen.standard_normal(h) + 1j * gen.standard_normal(h)
                q = (q / np.linalg.norm(q)).reshape(h, 1)
                exact = abs(sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in q[:, 0]) - 1)
                assert Fraction(_orthonormality_defect(q)) >= exact

    def test_certified_projection_interval_holds_the_exact_remainder(self):
        # where q fl(q* d) rounds back to d, the computed remainder R is zero,
        # but the exact one, R_e = d - q W, is the rounding of q W; at the
        # largest eta that _projected_norm certifies, the exact interval
        # 2 eta + 4 ||q* R_e|| / ||W|| + ||R_e||^2 / ||W||^2 must still lie
        # within the budget 2 (h + k) eps, which the rounding terms of W's
        # product ensure
        h, k = 4, 4
        for seed in range(2000):
            gen = np.random.default_rng(seed)
            q = gen.standard_normal((h, 1)) + 1j * gen.standard_normal((h, 1))
            q /= np.linalg.norm(q)
            d = q @ (gen.standard_normal((1, k)) + 1j * gen.standard_normal((1, k)))
            w = q.conj().T @ d
            if not (d - q @ w).any():
                break
        else:
            pytest.fail("no column q with q fl(q* d) == d found")
        remainder = self.difference(d, self.product(self.exact(q), self.exact(w)))
        assert remainder.any()
        budget = 2 * (h + k) * np.finfo(np.float64).eps
        low, high = 0.0, budget
        for _ in range(80):
            eta = 0.5 * (low + high)
            low, high = (low, eta) if _projected_norm(d, q, eta) is None else (eta, high)
        defect = abs(sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in q[:, 0]) - 1)
        assert low >= defect and _projected_norm(d, q, low) is not None
        w_norm = operator_norm(w)
        coupling = operator_norm(q.conj().T @ remainder)
        assert 2 * low + 4 * coupling / w_norm + (operator_norm(remainder) / w_norm) ** 2 <= budget


def test_the_rounding_model_and_the_policy_constants_read_eps_alone():
    # outside linalg no module names _EPS, calls np.finfo or reads
    # sys.float_info, but for the message threshold of exceptions._cond_text
    # (exceptions cannot import linalg); inside linalg only the rounding
    # section and the policy helpers read _EPS
    import ast
    from pathlib import Path

    import wmpinv

    readers = {"_kernel_error", "_solve_cutoff", "_cond_cap", "rank_rtol_for"}
    offenders = []
    for path in sorted(Path(wmpinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # at module level, the definitions of _EPS and of u = _EPS / 2
        model = {
            node.lineno
            for node in tree.body
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] in (["_EPS"], ["_U"])
        }
        scopes = [(node.name, node) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Name) and node.id == "_EPS") or (
                isinstance(node, ast.Attribute) and node.attr in ("finfo", "float_info")
            )
            if not named:
                continue
            inside = [name for name, scope in scopes if scope.lineno <= node.lineno <= scope.end_lineno]
            if path.name == "linalg.py":
                allowed = node.lineno in model if not inside else inside[-1] in readers
            else:
                allowed = path.name == "exceptions.py" and inside == ["_cond_text"] and node.attr == "float_info"
            if not allowed:
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)} in {inside or 'module'}")
    assert offenders == []
