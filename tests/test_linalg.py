"""Core kernels: truncated SVD, projectors, solves, tolerances."""

import numpy as np
import pytest

from support import numerical_rank, random_matrix_with_rank
from wmpinv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
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
