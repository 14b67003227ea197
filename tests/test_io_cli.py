"""Bundle serialization and the command-line front end."""

import argparse
import ast
import builtins
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as golden_data
import wmpinv
from support import nearly_nested_pair, random_matrix_with_rank, random_weight
from wmpinv import NonExistentError, RankFlipWarning, cli, omega_weight, require_wmp_inverse, wmp_exists
from wmpinv.cli import main
from wmpinv.io import (
    BundleFormatError,
    _bundle_from_obj,
    _loads,
    _plain,
    dump_json,
    geometric_schedule,
    load_bundle,
    load_matrix,
    matrix_from_obj,
    matrix_to_arrays,
    matrix_to_obj,
    parse_bundle,
    read_matrix_market,
    write_bundle,
)
from wmpinv.linalg import DEFAULT_TOL, ToleranceConfig
from wmpinv.sampling import random_complex


@pytest.fixture
def golden_bundle(tmp_path, golden):
    path = tmp_path / "golden.json"
    write_bundle(path, {"A": golden["a"], "M": golden["m"], "N": golden["n"]})
    return str(path)


@pytest.fixture
def singular_bundle(tmp_path):
    path = tmp_path / "singular.json"
    write_bundle(
        path,
        {"A": golden_data.NOEXIST_A, "M": np.eye(2), "N": golden_data.NOEXIST_N},
    )
    return str(path)


# R = I is invertible and L is singular, so L alone rules out the inverse
_SINGULAR_L = {"A": golden_data.NOEXIST_A, "M": golden_data.NOEXIST_N, "N": np.eye(2)}


class TestBundleFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mats = {
            "A": rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
            "B": rng.standard_normal((2, 4)) * 1e-17,
        }
        path = tmp_path / "b.json"
        write_bundle(path, mats)
        back = load_bundle(path)
        for key, mat in mats.items():
            assert np.array_equal(back.matrices[key], np.asarray(mat, dtype=np.complex128))

    def test_scalars_round_trip(self, tmp_path):
        path = tmp_path / "b.json"
        write_bundle(
            path,
            {"A": np.eye(2)},
            scalars={"tolerances": {"verify_atol": 1e-7}, "seed": 42, "schedule": [0.1, 0.01]},
        )
        back = load_bundle(path)
        assert back.tolerances == {"verify_atol": 1e-7}
        assert back.seed == 42
        assert np.allclose(back.schedule, [0.1, 0.01])

    def test_parse_rejects_malformed(self):
        with pytest.raises(BundleFormatError):
            parse_bundle(json.dumps({"A": {"rows": 2, "cols": 2}}))
        with pytest.raises(BundleFormatError):
            parse_bundle(json.dumps({"A": {"rows": 2, "cols": 2, "re": [1.0]}}))
        with pytest.raises(BundleFormatError):
            parse_bundle(json.dumps({"A": {"rows": 2, "cols": 2, "re": [0.0] * 4, "extra": 1}}))
        with pytest.raises(BundleFormatError):
            parse_bundle(json.dumps([1, 2, 3]))
        with pytest.raises(BundleFormatError):
            parse_bundle("{not json")

    def test_matrix_obj_skips_zero_imag(self):
        obj = matrix_to_obj(np.eye(2, dtype=np.complex128))
        assert "im" not in obj
        assert matrix_from_obj(obj).dtype == np.complex128
        obj2 = matrix_to_obj(1j * np.eye(2))
        assert "im" in obj2

    def test_dump_json_handles_nonfinite(self):
        subnormal = 5e-324
        text = dump_json(
            {
                "x": float("inf"),
                "y": float("nan"),
                "z": 1.0,
                "nested": [np.float64(-np.inf), {"w": float("nan")}, (2.5, float("nan"))],
                "flag": np.bool_(True),
                "count": np.int64(7),
                "array": np.array([[1.5, np.inf], [-2.0, 3.0]]),
                "signed_zero": -0.0,
                "subnormal": subnormal,
                3: "key",
            }
        )
        assert text.endswith("\n") and "\n" not in text[:-1]
        parsed = json.loads(text)
        assert parsed["x"] is None
        assert parsed["y"] is None
        assert parsed["z"] == 1.0
        assert parsed["nested"] == [None, {"w": None}, [2.5, None]]
        assert parsed["flag"] is True
        assert parsed["count"] == 7
        assert parsed["array"] == [[1.5, None], [-2.0, 3.0]]
        assert parsed["3"] == "key"
        for key, value in (("signed_zero", -0.0), ("subnormal", subnormal)):
            assert np.float64(parsed[key]).tobytes() == np.float64(value).tobytes()
        with pytest.raises(TypeError):
            dump_json({"unsupported": object()})

    def test_dump_json_passes_finite_entry_lists_unchanged(self, rng):
        # the entry lists skip the per-entry walk; the bytes must be those of
        # the walk, non-finite scalars and entries still written as null
        x = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        report = {
            "r_cond": float("inf"),
            "l_cond": float("nan"),
            "residuals": [1e-15, np.float64(2e-15), float("nan")],
            "inverse": matrix_to_obj(x),
            "overflowing_sum": [1e308, 1e308],
            "entries": (2.5, -0.0, 5e-324),
            "mixed": [1, 2.5, True, None],
        }
        walked = {
            "r_cond": None,
            "l_cond": None,
            "residuals": [1e-15, 2e-15, None],
            "inverse": {
                "rows": 5,
                "cols": 4,
                "re": [float(v) for v in x.real.ravel()],
                "im": [float(v) for v in x.imag.ravel()],
            },
            "overflowing_sum": [1e308, 1e308],
            "entries": [2.5, -0.0, 5e-324],
            "mixed": [1, 2.5, True, None],
        }
        assert dump_json(report) == json.dumps(walked, allow_nan=False) + "\n"

    def test_matrix_market_read(self, tmp_path, rng):
        mat = rng.standard_normal((3, 2))
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(path, mat)
        back = read_matrix_market(path)
        assert np.allclose(back, mat, atol=0)
        assert np.allclose(load_matrix(path), mat, atol=0)

    def test_geometric_schedule(self):
        s = geometric_schedule(1e-1, 1e-8)
        assert s.size == 8
        assert s[0] == pytest.approx(1e-1)
        assert s[-1] == pytest.approx(1e-8)
        assert np.all(np.diff(s) < 0)
        up = geometric_schedule(1.0, 1e6, count=7)
        assert up.size == 7
        assert np.all(np.diff(up) > 0)

    @pytest.mark.parametrize("start, stop", [(1.0, np.inf), (np.inf, 1.0), (1.0, np.nan)])
    def test_geometric_schedule_rejects_non_finite_endpoints(self, start, stop):
        with pytest.raises(ValueError, match="finite and positive"):
            geometric_schedule(start, stop)

    def test_geometric_schedule_counts_decades_whose_ratio_overflows(self):
        s = geometric_schedule(1e-300, 1e300)
        assert s.size == 601 and np.all(np.isfinite(s))


class TestCliCommands:
    def test_wmp_prints_twelve_digits(self, capsys, golden_bundle):
        assert main(["wmp", "--bundle", golden_bundle]) == 0
        out = capsys.readouterr().out
        assert "0.142857142857" in out
        assert "-0.285714285714" in out

    def test_wmp_json_output(self, capsys, golden_bundle, golden):
        assert main(["wmp", "--bundle", golden_bundle, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exists"] is True
        inv = matrix_from_obj(report["inverse"])
        assert np.allclose(inv, golden["wmp"], atol=1e-12)

    def test_wmp_out_round_trip(self, tmp_path, capsys, golden_bundle, golden):
        out_path = tmp_path / "result.json"
        assert main(["wmp", "--bundle", golden_bundle, "--out", str(out_path)]) == 0
        capsys.readouterr()
        saved = load_bundle(out_path)
        lib = require_wmp_inverse(golden["a"], golden["m"], golden["n"]).inverse
        assert np.array_equal(saved.matrices["inverse"], lib)

    def test_exists_singular_names_factor(self, capsys, singular_bundle):
        assert main(["exists", "--bundle", singular_bundle]) == 2
        captured = capsys.readouterr()
        assert "R_{A,N}" in captured.err
        assert "condition number" in captured.err

    @pytest.mark.parametrize("command", ["exists", "wmp", "rho"])
    def test_singular_l_alone_is_named(self, command, tmp_path, capsys):
        path = tmp_path / "singular_l.json"
        write_bundle(path, _SINGULAR_L)
        assert main([command, "--bundle", str(path), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["singular_factor"] == "L_{A,M^-1}"

    def test_require_names_a_singular_l(self):
        with pytest.raises(NonExistentError) as exc:
            require_wmp_inverse(_SINGULAR_L["A"], _SINGULAR_L["M"], _SINGULAR_L["N"])
        assert exc.value.factor == "L_{A,M^-1}"

    def test_exists_text_quotes_no_rounding_noise(self, tmp_path, capsys):
        # the hyperbolic block of N pairs a range direction of A with a null
        # one, so N_00 and R are exactly singular; their computed condition
        # number is rounding noise, which only the --json report carries
        gen = np.random.default_rng(0)
        q, _ = np.linalg.qr(random_complex(gen, 4, 4))
        h = np.eye(4)
        h[[0, 2], [0, 2]] = 0.0
        h[0, 2] = h[2, 0] = 1.0
        path = tmp_path / "hyperbolic.json"
        a, n = q @ np.diag([1.0, 0.5, 0.0, 0.0]) @ q.conj().T, q @ h @ q.conj().T
        write_bundle(path, {"A": a, "M": np.eye(4), "N": n})
        assert main(["exists", "--bundle", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "R factor invertible: False (condition number >= 1/eps, singular to working precision)" in lines
        assert "L factor invertible: True (condition number 1.000000e+00)" in lines
        assert main(["exists", "--bundle", str(path), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        rep = wmp_exists(*(load_bundle(path).matrices[k] for k in "AMN"))
        assert rep.r_cond * np.finfo(float).eps >= 1.0
        assert report["r_cond"] == (rep.r_cond if np.isfinite(rep.r_cond) else None)
        assert report["l_cond"] == rep.l_cond

    def test_role_overrides_bundle(self, tmp_path, capsys, golden_bundle):
        ident = np.eye(4)
        mtx = tmp_path / "ident.mtx"
        scipy.io.mmwrite(mtx, ident)
        code = main(
            ["wmp", "--bundle", golden_bundle, "--role", f"M={mtx}", "--role", f"N={mtx}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # identity weights reduce to the ordinary pseudoinverse, 11/27
        assert "0.407407407407" in out

    def test_json_role_files(self, tmp_path, capsys, golden_bundle, golden):
        # the README's round trip: wmp --out x.json feeds verify --role X=x.json
        x = tmp_path / "x.json"
        assert main(["wmp", "--bundle", golden_bundle, "--out", str(x)]) == 0
        assert main(["verify", "--bundle", golden_bundle, "--role", f"X={x}"]) == 0
        capsys.readouterr()
        ident = tmp_path / "ident.json"
        ident.write_text(json.dumps(matrix_to_obj(np.eye(4))))
        assert main(["wmp", "--bundle", golden_bundle, "--role", f"M={ident}", "--role", f"N={ident}"]) == 0
        assert "0.407407407407" in capsys.readouterr().out
        two = tmp_path / "two.json"
        write_bundle(two, {"A": golden["a"], "M": golden["m"]})
        assert main(["verify", "--bundle", golden_bundle, "--role", f"X={two}"]) == 1
        assert "expected one matrix" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 1,')
        assert main(["verify", "--bundle", golden_bundle, "--role", f"X={bad}"]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_verify_pass_and_fail(self, tmp_path, capsys, golden):
        lib = require_wmp_inverse(golden["a"], golden["m"], golden["n"]).inverse
        good = tmp_path / "good.json"
        write_bundle(good, {"A": golden["a"], "M": golden["m"], "N": golden["n"], "X": lib})
        assert main(["verify", "--bundle", str(good)]) == 0
        bad = tmp_path / "bad.json"
        write_bundle(bad, {"A": golden["a"], "M": golden["m"], "N": golden["n"], "X": lib + 0.5})
        assert main(["verify", "--bundle", str(bad)]) == 2
        capsys.readouterr()

    def test_reduce(self, capsys, golden_bundle):
        assert main(["reduce", "--bundle", golden_bundle]) == 0
        assert "agreement" in capsys.readouterr().out

    def test_limit_t0_with_schedule(self, tmp_path, capsys, rng):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bundle = tmp_path / "pencil.json"
        write_bundle(bundle, {"A": a, "B": b, "V": np.eye(2), "W": np.eye(2)})
        code = main(["limit-t0", "--bundle", str(bundle), "--schedule", "1e-1:1e-10", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert len(report["errors"]) == 10
        assert report["errors"][-1] < report["errors"][0]

    def test_limit_t0_weight_roles(self, tmp_path, capsys):
        # U built from the defaults, or X and Y set to them, give the default trace
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        roles = {"A": a, "B": b, "V": np.diag([2.0, 1.0]), "W": np.eye(2)}

        def errors(**extra):
            path = tmp_path / "pencil.json"
            write_bundle(path, {**roles, **extra})
            assert main(["limit-t0", "--bundle", str(path), "--json"]) == 0
            return json.loads(capsys.readouterr().out)["errors"]

        default = errors()
        assert errors(U=omega_weight(a, b, roles["W"], x=roles["V"]).u.matrix) == default
        assert errors(X=roles["V"]) == default
        assert errors(Y=np.eye(3)) == default

    @pytest.mark.parametrize("extra", ["X", "Y", "XY"])
    def test_limit_t0_u_with_x_or_y_is_a_usage_error(self, extra, tmp_path, capsys):
        # U is what X and Y build, so binding both would leave X and Y unread
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        roles = {"A": a, "B": b, "V": np.eye(2), "W": np.eye(2), "U": np.eye(3)}
        path = tmp_path / "pencil.json"
        write_bundle(path, {**roles, **{name: 5.0 * np.eye(2 if name == "X" else 3) for name in extra}})
        assert main(["limit-t0", "--bundle", str(path), "--json"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err == "error: role U excludes roles X and Y: bind U, or X and Y that build it\n"

    def test_limit_lambda(self, tmp_path, capsys):
        bundle = tmp_path / "lam.json"
        write_bundle(bundle, {"A": golden_data.LAMBDA_A, "B": golden_data.LAMBDA_B})
        assert main(["limit-lambda", "--bundle", str(bundle)]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_limit_lambda_text_names_rank_flips(self, tmp_path, capsys):
        a, b = nearly_nested_pair(1e-6)
        bundle = tmp_path / "nested.json"
        write_bundle(bundle, {"A": a, "B": b})
        assert main(["limit-lambda", "--bundle", str(bundle)]) == 0
        out, err = capsys.readouterr()
        assert "rank flips at schedule indices: [0, 1, 2, 3, 4, 5]" in out.splitlines()
        # the warning is printed once by main, without a source location
        assert err.splitlines() == [
            "warning: the scaled pencil system degenerated at schedule indices [0, 1, 2, 3, 4, 5]; "
            "iterates there are unreliable"
        ]
        assert "cli.py:" not in err

    def test_other_warnings_pass_through_main(self, capsys):
        def handler(args, ctx):
            warnings.warn("flip", RankFlipWarning)
            warnings.warn("plain", UserWarning)
            return 0

        args = argparse.Namespace(handler=handler)
        with pytest.warns(UserWarning) as caught:
            assert cli._run_handler(args, None, []) == 0
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, "plain")]
        assert capsys.readouterr().err == "warning: flip\n"

        def noisy(args, ctx):
            return np.float64(1.0) / 0.0

        # the suite turns RuntimeWarning into an error, and main keeps that filter
        with pytest.raises(RuntimeWarning):
            cli._run_handler(argparse.Namespace(handler=noisy), None, [])

    def test_separated_and_closed_form(self, tmp_path, capsys):
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[1.0, 1.0, 0.0]])
        bundle = tmp_path / "sep.json"
        write_bundle(bundle, {"A": a, "B": b, "V": np.eye(1), "W": np.eye(1)})
        assert main(["separated", "--bundle", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "separated: True" in out
        assert main(["closed-form", "--bundle", str(bundle), "--seed", "5"]) == 0
        capsys.readouterr()

    def test_decompose(self, tmp_path, capsys, rng):
        from support import random_matrix_with_rank
        from wmpinv.sampling import random_spd

        a = random_matrix_with_rank(rng, 4, 5, 3)
        b = random_matrix_with_rank(rng, 3, 5, 3)
        bundle = tmp_path / "dec.json"
        write_bundle(
            bundle, {"A": a, "B": b, "V": random_spd(rng, 4), "W": random_spd(rng, 3)}
        )
        assert main(["decompose", "--bundle", str(bundle), "--seed", "3"]) == 0
        capsys.readouterr()

    def test_matched_projection(self, tmp_path, capsys):
        bundle = tmp_path / "q.json"
        write_bundle(bundle, {"Q": golden_data.MATCHED_Q})
        assert main(["matched-projection", "--bundle", str(bundle)]) == 0
        assert "0.853553390593" in capsys.readouterr().out

    def test_rho(self, capsys, golden_bundle):
        assert main(["rho", "--bundle", golden_bundle]) == 0
        capsys.readouterr()

    def test_perturb(self, capsys, golden_bundle):
        assert main(["perturb", "--bundle", golden_bundle, "--terms", "12"]) == 0
        out = capsys.readouterr().out
        assert "wmp_diff" in out

    @pytest.mark.parametrize("endpoints", ["1:inf", "inf:1", "1:nan"])
    def test_non_finite_schedule_is_usage_error(self, endpoints, capsys, golden_bundle):
        assert main(["limit-lambda", "--bundle", golden_bundle, "--schedule", endpoints]) == 64
        assert "schedule endpoints must be finite and positive" in capsys.readouterr().err

    def test_perturb_short_sequence_is_usage_error(self, capsys, golden_bundle):
        assert main(["perturb", "--bundle", golden_bundle, "--terms", "1"]) == 64
        assert "--terms must be at least 2" in capsys.readouterr().err

    def test_perturb_binds_its_roles_before_it_checks_terms(self, tmp_path, capsys):
        path = tmp_path / "only_a.json"
        write_bundle(path, {"A": np.eye(2)})
        assert main(["perturb", "--bundle", str(path), "--terms", "1"]) == 64
        assert "missing role(s) M, N" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "role, kind, shape", [("DM", "weights-only", "3 x 3"), ("DN", "weights-only", "4 x 4"), ("E", "full", "3 x 4")]
    )
    def test_perturb_direction_of_the_wrong_shape_names_its_role(self, role, kind, shape, tmp_path, capsys):
        path = tmp_path / "problem.json"
        a = np.hstack([np.diag([2.0, 1.0, 0.0]), np.zeros((3, 1))])
        write_bundle(path, {"A": a, "M": np.eye(3), "N": np.eye(4), role: np.eye(2)})
        assert main(["perturb", "--bundle", str(path), "--kind", kind, "--terms", "4"]) == 2
        assert capsys.readouterr().err == f"error: {role} must be {shape}, got shape (2, 2)\n"

    @pytest.mark.parametrize(
        "endpoints, message", [("1-2", "expected A:B"), ("a:b", "schedule endpoints must be numbers")]
    )
    def test_malformed_schedule_is_usage_error(self, endpoints, message, capsys, golden_bundle):
        assert main(["limit-lambda", "--bundle", golden_bundle, "--schedule", endpoints]) == 64
        assert message in capsys.readouterr().err

    def test_text_tolerance_line_names_every_json_tolerance(self, tmp_path, capsys, golden):
        path = tmp_path / "tol.json"
        write_bundle(
            path,
            {"A": golden["a"], "M": golden["m"], "N": golden["n"]},
            scalars={"tolerances": {"inv_cond_max": 1e10}},
        )
        assert main(["wmp", "--bundle", str(path), "--json"]) == 0
        in_json = json.loads(capsys.readouterr().out)["tolerances"]
        assert main(["wmp", "--bundle", str(path)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        in_text = {k: (v, src) for k, v, src in re.findall(r"(\w+)=(\S+) \((\w+)\)", line)}
        assert set(in_text) == set(in_json) - {"sources"} == set(in_json["sources"])
        assert in_text["inv_cond_max"] == ("1e+10", "bundle")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["no-such-command"]) == 64
        capsys.readouterr()

    def test_missing_bundle_file(self, capsys):
        assert main(["wmp", "--bundle", "/does/not/exist.json"]) == 1
        capsys.readouterr()

    def test_malformed_bundle(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["wmp", "--bundle", str(path)]) == 1
        capsys.readouterr()

    def test_missing_role(self, tmp_path, capsys):
        path = tmp_path / "only_a.json"
        write_bundle(path, {"A": np.eye(2)})
        # an unbound role is a bad invocation, not a math failure
        assert main(["wmp", "--bundle", str(path)]) == 64
        assert "missing role" in capsys.readouterr().err

    def test_console_entry_point(self, golden_bundle):
        src = str(Path(wmpinv.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "wmpinv.cli", "wmp", "--bundle", golden_bundle],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "0.142857142857" in proc.stdout

    def test_invalid_tolerances_exit_with_documented_codes(self, tmp_path, capsys, golden_bundle, golden):
        # a flag value ToleranceConfig rejects is a usage error
        assert main(["wmp", "--bundle", golden_bundle, "--rank-rtol", "5"]) == 64
        assert main(["exists", "--bundle", golden_bundle, "--verify-atol", "0", "--json"]) == 64
        assert main(["verify", "--bundle", golden_bundle, "--verify-atol", "nan"]) == 64
        assert "verification tolerances must be positive" in capsys.readouterr().err
        # an infinite tolerance would pass every check it makes
        assert main(["wmp", "--bundle", golden_bundle, "--verify-atol", "inf"]) == 64
        assert capsys.readouterr().err == "error: verification tolerances must be positive and finite\n"
        # a bundle value is a format error of the bundle
        with pytest.raises(BundleFormatError, match="must be positive"):
            parse_bundle(json.dumps({"tolerances": {"verify_atol": -1}}))
        with pytest.raises(BundleFormatError, match="must exceed 1"):
            parse_bundle('{"tolerances": {"inv_cond_max": NaN}}')
        with pytest.raises(BundleFormatError, match="must exceed 1"):
            parse_bundle('{"tolerances": {"inv_cond_max": Infinity}}')
        infinite = tmp_path / "infinite_tol.json"
        roles = {"A": np.diag([1.0, 0.0]), "M": np.eye(2), "N": np.array([[0.0, 1.0], [1.0, 0.0]])}
        text = json.dumps({k: matrix_to_obj(x) for k, x in roles.items()})
        infinite.write_text(text[:-1] + ', "tolerances": {"inv_cond_max": Infinity}}')
        for command in ("exists", "wmp"):
            assert main([command, "--bundle", str(infinite)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == "error: inv_cond_max must exceed 1 and be finite\n"
        path = tmp_path / "bad_tol.json"
        write_bundle(
            path,
            {"A": golden["a"], "M": golden["m"], "N": golden["n"]},
            scalars={"tolerances": {"verify_atol": -1.0}},
        )
        assert main(["wmp", "--bundle", str(path)]) == 1
        assert "verification tolerances must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["Infinity", "NaN", "0", "-1"])
    def test_bundle_schedule_out_of_range_is_a_format_error(self, bad, tmp_path, capsys):
        # like a bad bundle tolerance, a bad bundle schedule is a format error
        # of the bundle, not a mathematical failure of the command
        path = tmp_path / "schedule.json"
        roles = json.dumps({"A": matrix_to_obj(np.diag([1.0, 0.0])), "B": matrix_to_obj(np.ones((2, 2)))})
        path.write_text(roles[:-1] + f', "schedule": [1, {bad}]}}')
        with pytest.raises(BundleFormatError, match="finite and positive"):
            load_bundle(path)
        assert main(["limit-lambda", "--bundle", str(path)]) == 1
        assert "schedule values must be finite and positive" in capsys.readouterr().err

    def test_bundle_schedule_empty_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        roles = json.dumps({"A": matrix_to_obj(np.diag([1.0, 0.0])), "B": matrix_to_obj(np.ones((2, 2)))})
        path.write_text(roles[:-1] + ', "schedule": []}')
        with pytest.raises(BundleFormatError, match="schedule must be a nonempty 1-D sequence"):
            load_bundle(path)
        assert main(["limit-lambda", "--bundle", str(path)]) == 1


_BIG = "1" + "0" * 400
_ONE = '"A": {"rows": 1, "cols": 1, "re": [1]}'


class TestBadValues:
    """Every bad value of a bundle is a format error, exit code 1, with the message of its field."""

    CASES = {
        # integers past the float range, and floats past the integer one
        "re_overflows": ('{"A": {"rows": 1, "cols": 1, "re": [%s]}}' % _BIG, "re must be a flat list of numbers"),
        "im_overflows": (
            '{"A": {"rows": 1, "cols": 1, "re": [1], "im": [%s]}}' % _BIG,
            "im must be a flat list of numbers",
        ),
        "rows_overflow": ('{"A": {"rows": 1e400, "cols": 1, "re": [1]}}', "rows and cols must be integers"),
        "seed_overflows": ('{%s, "seed": 1e400}' % _ONE, "seed must be an integer"),
        "tolerance_overflows": (
            '{%s, "tolerances": {"verify_atol": %s}}' % (_ONE, _BIG),
            "tolerance values must be numbers",
        ),
        "schedule_overflows": ('{%s, "schedule": [1, %s]}' % (_ONE, _BIG), "schedule must be a flat list of numbers"),
        # the other messages of each field
        "re_not_flat": ('{"A": {"rows": 1, "cols": 1, "re": [[1]]}}', "re must be a flat list of numbers"),
        "re_not_numbers": ('{"A": {"rows": 1, "cols": 1, "re": ["one"]}}', "re must be a flat list of numbers"),
        "rows_not_integer": ('{"A": {"rows": "one", "cols": 1, "re": [1]}}', "rows and cols must be integers"),
        "im_wrong_length": ('{"A": {"rows": 1, "cols": 1, "re": [1], "im": [1, 2]}}', "im must match re in length"),
        "tolerance_unknown_key": (
            '{%s, "tolerances": {"speed": 1}}' % _ONE,
            "tolerances must be an object with keys from ['inv_cond_max', 'rank_rtol', 'verify_atol']",
        ),
        "tolerance_not_number": ('{%s, "tolerances": {"verify_atol": [1]}}' % _ONE, "tolerance values must be numbers"),
        "seed_not_integer": ('{%s, "seed": "seven"}' % _ONE, "seed must be an integer"),
        # entries that read as floats but are not finite
        "re_overflows_to_infinity": ('{"A": {"rows": 1, "cols": 1, "re": [1e400]}}', "re entries must be finite"),
        "re_nan": ('{"A": {"rows": 1, "cols": 1, "re": [NaN]}}', "re entries must be finite"),
        "im_infinity": ('{"A": {"rows": 1, "cols": 1, "re": [1], "im": [Infinity]}}', "im entries must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_field_names_its_bad_value(self, case, tmp_path, capsys):
        text, message = self.CASES[case]
        with pytest.raises(BundleFormatError, match=f"^{re.escape(message)}$"):
            parse_bundle(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["wmp", "--bundle", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN", "Infinity"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_a_non_finite_entry_is_a_format_error_on_every_reader(self, entry, part, tmp_path, capsys, golden_bundle):
        role = _role(1, 1, entry) if part == "re" else _role(1, 1, "1", entry)
        message = f"{part} entries must be finite"
        # orjson refuses the literal and json reads it; past the bracket limit json reads it alone
        texts = [f'{{"A": {role}}}', f'{{"A": {role}, "{"[" * 129}": {_role(1, 1, "1")}}}']
        for text in texts:
            for parse in (parse_bundle, _parse_with_json):
                with pytest.raises(BundleFormatError, match=f"^{message}$"):
                    parse(text)
        bundle, role_file = tmp_path / "bundle.json", tmp_path / "a.json"
        bundle.write_text(texts[1])
        role_file.write_text(role)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["--bundle", str(bundle)], ["--bundle", golden_bundle, "--role", f"A={role_file}"]):
                assert main(["wmp", *argv]) == 1
                assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_a_non_finite_matrix_market_entry_is_a_format_error(self, entry, tmp_path, capsys, golden_bundle):
        path = tmp_path / "a.mtx"
        scipy.io.mmwrite(path, np.array([[1.0, entry], [0.0, 1.0]]))
        with pytest.raises(BundleFormatError, match="Matrix Market entries must be finite"):
            read_matrix_market(path)
        assert main(["wmp", "--bundle", golden_bundle, "--role", f"A={path}"]) == 1
        assert capsys.readouterr().err == f"error: {path}: Matrix Market entries must be finite\n"

    @pytest.mark.parametrize("option", ["--bundle", "--role"])
    def test_a_file_nested_past_the_recursion_limit_is_a_format_error(self, option, tmp_path, capsys):
        # parse_bundle leaves RecursionError to json (TestReader); the CLI
        # names the file instead
        path = tmp_path / "deep.json"
        path.write_text('{"A": ' + "[" * 5000 + "]" * 5000 + "}")
        argv = ["--bundle", str(path)] if option == "--bundle" else ["--role", f"A={path}"]
        assert main(["wmp", *argv]) == 1
        assert capsys.readouterr().err == f"error: {path}: nested too deeply to read\n"


class TestJsonTypes:
    """``rows``, ``cols`` and ``seed`` are JSON integers; tolerances and schedule entries are numbers, not bools."""

    CASES = {
        "seed_float": ('{%s, "seed": 2.7}' % _ONE, "seed must be an integer"),
        "seed_integral_float": ('{%s, "seed": 2.0}' % _ONE, "seed must be an integer"),
        "seed_true": ('{%s, "seed": true}' % _ONE, "seed must be an integer"),
        "rows_true_cols_float": ('{"A": {"rows": true, "cols": 1.9, "re": [5]}}', "rows and cols must be integers"),
        "cols_integral_float": ('{"A": {"rows": 1, "cols": 1.0, "re": [5]}}', "rows and cols must be integers"),
        "rows_past_64_bits_empty": (
            '{"A": {"rows": %d, "cols": 0, "re": []}}' % 10**29,
            "a %d x 0 matrix is too large" % 10**29,
        ),
        "tolerance_true": ('{%s, "tolerances": {"verify_atol": true}}' % _ONE, "tolerance values must be numbers"),
        "schedule_true": ('{%s, "schedule": [true]}' % _ONE, "schedule must be a flat list of numbers"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_both_readers_and_both_commands_refuse_it(self, case, tmp_path, capsys):
        text, message = self.CASES[case]
        for parse in (parse_bundle, _parse_with_json):
            with pytest.raises(BundleFormatError, match=f"^{re.escape(message)}$"):
                parse(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in ("wmp", "exists"):
            assert main([command, "--bundle", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_matrix_file_refuses_a_bool_dimension(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"rows": 1, "cols": true, "re": [5]}')
        with pytest.raises(BundleFormatError, match="^rows and cols must be integers$"):
            load_matrix(path)

    def test_integers_and_numbers_still_read(self):
        role = '"A": {"rows": 1, "cols": 2, "re": [1, 2]}'
        bundle = parse_bundle('{%s, "seed": %d, "tolerances": {"verify_atol": 1}, "schedule": [2, 1.5]}' % (role, 2**70))
        assert bundle.seed == 2**70 and type(bundle.seed) is int
        assert bundle.matrices["A"].shape == (1, 2)
        assert bundle.tolerances == {"verify_atol": 1.0}
        assert bundle.schedule.tolist() == [2.0, 1.5]


class TestMathematicalFailures:
    """A raised WmpError or ValueError of a command exits 2 with one error line."""

    BUNDLES = {
        "limit-lambda": {"A": np.diag([1.0, -1.0]), "B": np.eye(2)},
        "closed-form": {"A": np.array([[1.0, 0.0, 0.0]]), "B": np.array([[1.0, 0.0, 0.0]]), "V": np.eye(1), "W": np.eye(1)},
        "verify": {"A": np.ones((2, 3)), "M": np.eye(2), "N": np.eye(3), "X": np.ones((2, 2))},
    }
    MESSAGES = {
        "limit-lambda": "a is not positive semidefinite: smallest eigenvalue -1.000000e+00",
        "closed-form": "row spaces are not separated: ||P Q|| = 1.000000000 is not below 1",
        "verify": "candidate inverse must be 3 x 2, got (2, 2)",
    }

    @pytest.mark.parametrize("command", sorted(BUNDLES))
    def test_exit_two_with_one_error_line(self, command, tmp_path, capsys):
        path = tmp_path / "problem.json"
        write_bundle(path, self.BUNDLES[command])
        assert main([command, "--bundle", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {self.MESSAGES[command]}\n")


def test_coordinate_matrix_market_role_is_densified(tmp_path, capsys, golden):
    # a sparse .mtx file is written in coordinate format and read back dense
    import scipy.sparse

    path = tmp_path / "a.mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(golden["a"]))
    assert "coordinate" in path.read_text().splitlines()[0]
    assert np.array_equal(load_matrix(path), golden["a"])
    bundle = tmp_path / "weights.json"
    write_bundle(bundle, {"M": golden["m"], "N": golden["n"]})
    assert main(["wmp", "--bundle", str(bundle), "--role", f"A={path}", "--json"]) == 0
    inverse = matrix_from_obj(json.loads(capsys.readouterr().out)["inverse"])
    assert np.array_equal(inverse, require_wmp_inverse(golden["a"], golden["m"], golden["n"]).inverse)


class TestRepeatedMain:
    """``main`` builds its parser once per process; no call leaves state for the next."""

    def test_parser_is_built_on_the_first_call_only(self, monkeypatch, capsys, golden_bundle):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        counts = []
        for _ in range(2):
            built.clear()
            assert main(["exists", "--bundle", golden_bundle, "--json"]) == 0
            counts.append(len(built))
        capsys.readouterr()
        # the main parser, the parent of the shared options, one per subcommand
        assert counts == [14, 0]

    @pytest.fixture
    def contexts(self, monkeypatch):
        """The context fields of every call of ``main``, in call order."""
        seen = []
        gather = cli._gather

        def recording(args):
            ctx = gather(args)
            seen.append(_context_fields(ctx))
            return ctx

        monkeypatch.setattr(cli, "_gather", recording)
        return seen

    @pytest.mark.parametrize(
        "flags, changed",
        [
            (["--role", "M={ident}"], "matrices"),
            (["--rank-rtol", "1e-10"], "tol_sources"),
            (["--schedule", "1:1e4"], "schedule"),
            (["--seed", "5"], "seed"),
        ],
        ids=["role", "rank-rtol", "schedule", "seed"],
    )
    def test_flags_do_not_carry_over(self, flags, changed, tmp_path, capsys, contexts, golden_bundle):
        ident = tmp_path / "ident.mtx"
        scipy.io.mmwrite(ident, np.eye(4))
        flags = [f.format(ident=ident) for f in flags]
        argv = ["wmp", "--bundle", golden_bundle, "--json"]
        outs = []
        for extra in ([], flags, []):
            assert main([*argv, *extra]) == 0
            outs.append(capsys.readouterr().out)
        clean, flagged, after = contexts
        assert flagged[changed] != clean[changed]
        assert after == clean
        assert outs[2] == outs[0]

    def test_mutated_namespace_does_not_leak(self, tmp_path, capsys, monkeypatch, golden_bundle):
        # a caller that appends to the role list of its namespace must not
        # bind that role in the next call
        ident = tmp_path / "ident.mtx"
        scipy.io.mmwrite(ident, np.eye(4))
        gather = cli._gather

        def mutating(args):
            ctx = gather(args)
            if isinstance(args.role, list):
                args.role.append(("M", str(ident)))
            return ctx

        monkeypatch.setattr(cli, "_gather", mutating)
        argv = ["wmp", "--bundle", golden_bundle, "--json"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]

    def test_help_and_usage_errors_leave_later_calls_unchanged(self, capsys, contexts, golden_bundle):
        argv = ["exists", "--bundle", golden_bundle, "--json"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        assert main(["exists", "--help"]) == 0
        assert "--bundle" in capsys.readouterr().out
        assert main(["exists", "--bundle", golden_bundle, "--seed", "5", "--schedule", "1:1"]) == 64
        assert main(["exists", "--role", "M"]) == 64
        assert "usage:" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == before
        assert len(contexts) == 2 and contexts[0] == contexts[1]


def _context_fields(ctx) -> dict:
    """The fields of a ``cli._Context``, arrays as bytes so that they compare with ``==``."""
    return {
        "matrices": {name: m.tobytes() for name, m in ctx.matrices.items()},
        "tol": ctx.tol,
        "tol_sources": ctx.tol_sources,
        "schedule": None if ctx.schedule is None else ctx.schedule.tobytes(),
        "seed": ctx.seed,
    }


_PENCIL = {
    "A": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "B": np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "V": np.eye(2),
    "W": np.eye(2),
}
_SEPARATED = {"A": np.array([[1.0, 0.0, 0.0]]), "B": np.array([[1.0, 1.0, 0.0]]), "V": np.eye(1), "W": np.eye(1)}
_ROLES = {
    "limit-t0": _PENCIL,
    "limit-lambda": {"A": golden_data.LAMBDA_A, "B": golden_data.LAMBDA_B},
    "separated": _SEPARATED,
    "closed-form": _SEPARATED,
    "decompose": _PENCIL,
    "matched-projection": {"Q": golden_data.MATCHED_Q},
}
_MATRIX_BLOCK = re.compile(r"^(\S+) \(\d+ x \d+\):$", re.MULTILINE)


def _reject_constant(name):
    raise AssertionError(f"--json report holds {name}, which is not JSON")


@pytest.mark.parametrize(
    "command",
    [
        "wmp",
        "exists",
        "reduce",
        "limit-t0",
        "limit-lambda",
        "separated",
        "closed-form",
        "decompose",
        "verify",
        "perturb",
        "matched-projection",
        "rho",
    ],
)
def test_report_carries_each_matrix_in_every_output(command, tmp_path, capsys, golden):
    roles = {"A": golden["a"], "M": golden["m"], "N": golden["n"]}
    if command == "verify":
        roles["X"] = require_wmp_inverse(golden["a"], golden["m"], golden["n"]).inverse
    bundle = tmp_path / "in.json"
    write_bundle(bundle, _ROLES.get(command, roles))
    argv = [command, "--bundle", str(bundle), *(["--terms", "4"] if command == "perturb" else [])]
    out = tmp_path / "out.json"

    assert main([*argv, "--json", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["command"] == command
    assert set(report["tolerances"]["sources"]) == {"rank_rtol", "inv_cond_max", "verify_atol"}
    in_json = {k for k, v in report.items() if isinstance(v, dict) and {"rows", "cols", "re"} <= set(v)}
    in_out = set(load_bundle(out).matrices) if out.exists() else set()
    assert main(argv) == 0
    in_text = set(_MATRIX_BLOCK.findall(capsys.readouterr().out))
    assert in_json == in_out == in_text


def test_each_handler_takes_its_table_roles_and_its_help_names_them():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    # argparse keeps each subcommand's help line on a pseudo-action of its own
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert len(sub.choices) == len(helps) == 12
    for name, parser in sub.choices.items():
        required, optional = parser.get_default("roles")
        params = list(inspect.signature(parser.get_default("handler")).parameters)
        assert params == ["args", "ctx", *(r.lower() for r in required + optional)], name
        named = re.fullmatch(r".* \(roles? ([^;]*)(?:; optional (.*))?\)", helps[name])
        assert named[1] == ", ".join(required), name
        assert named[2] == (", ".join(optional) or None), name


def test_benchmark_tracer_names_exist():
    # bench/tracing.py wraps these by name; one that no longer exists would
    # leave its per-layer metric silently empty
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("wmpinv_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr in tracing.LIBRARY:
        assert callable(getattr(importlib.import_module(f"wmpinv.{module}"), attr, None)), (module, attr)
    # the tracer patches cli's own name for the writer, so cli must call that very function
    assert wmpinv.cli.dump_json is wmpinv.io.dump_json


def _parse_with_json(text):
    """``parse_bundle`` with ``json`` alone, as it read bundles before ``orjson``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise BundleFormatError(f"invalid JSON: {e}") from e
    return _bundle_from_obj(raw)


def _outcome(parse, text):
    """The parsed bundle as exact bits, or the type and message of what parsing raised."""
    try:
        b = parse(text)
    except Exception as e:
        return type(e), str(e)
    schedule = None if b.schedule is None else (b.schedule.dtype, b.schedule.tobytes())
    return (
        [(k, v.dtype, v.shape, v.tobytes()) for k, v in b.matrices.items()],
        [(k, v.hex()) for k, v in b.tolerances.items()],
        schedule,
        (type(b.seed), b.seed),
    )


def _role(rows, cols, re_text, im_text=None):
    im = "" if im_text is None else f', "im": [{im_text}]'
    return f'{{"rows": {rows}, "cols": {cols}, "re": [{re_text}]{im}}}'


# literals at the edges of double rounding: extreme exponents, the least
# subnormal and its halfway point, the largest double, exact halfway cases
# that round to even, mantissas longer than 17 digits, and integers on
# both sides of the 64-bit range (orjson reads the latter as doubles)
_EDGE_LITERALS = [
    "1E5", "-0.0", "0e0", "-0e0", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1e-400", "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1.7976931348623158e308", "0.1000000000000000055511151231257827021181583404541015625",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203125000000001",
    "9007199254740993", "9007199254740993.0", "9007199254740995.0", "-9007199254740993e0",
    "3.14159265358979323846264338327950288419716939937510582097494459", "1e0000000000000000000000001",
    "9223372036854775807", "9223372036854775808", "18446744073709551615", "18446744073709553664",
    "18446744073709553665", "-9223372036854775809", str(2**70 + 2**17), "123456789e-30", "-1.5E+300",
]


def _hand_written():
    """Hand-written bundles that orjson parses, one idea each."""
    edge = ", ".join(_EDGE_LITERALS)
    n = len(_EDGE_LITERALS)
    return {
        "whitespace": ' \n\t{ "A" :\r\n { "rows" : 2 ,\t"cols":2, "re" : [ 1E5 ,-0.0 , 5e-324,\n1.7976931348623157e308 ] } }\n ',
        "edge literals": f'{{"A": {_role(1, n, edge, edge)}}}',
        "reordered keys": (
            '{"seed": 7, "schedule": [0.5, 0.25, 1e-3], "N": {"im": [0.5, -0.5], "cols": 1, "re": [1, 2], "rows": 2},'
            ' "tolerances": {"verify_atol": 1e-7, "inv_cond_max": 1000000000000}, "A": {"re": [3], "cols": 1, "rows": 1}}'
        ),
        "duplicate keys": (
            f'{{"A": {_role(1, 1, "1.0")}, "B": {_role(1, 1, "2.0")}, "A": {{"rows": 1, "rows": 2, "cols": 1, "re": [3, 4]}},'
            ' "seed": 1, "seed": 2}'
        ),
        "integer tolerances and schedule": '{"tolerances": {"verify_atol": 1, "rank_rtol": 0.0001}, "schedule": [4, 2, 1]}',
        "non-ascii role": f'{{"\\u00c5": {_role(1, 1, "1")}, "\\ud83d\\ude00": {_role(1, 1, "2")}}}',
    }


def _bench_bundle_texts(tmp_path, seeds=(1, 2, 3)):
    """The texts of the benchmark's ``cli-verdicts`` bundles, 24 x 24, for each seed."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("wmpinv_bench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        texts = []
        for seed in seeds:
            cases = workloads.CliVerdicts(wmpinv, seed, tmp_path / f"seed{seed}").cases
            texts += [Path(case[0]).read_text() for case in cases]
    finally:
        sys.path.remove(str(bench))
    return texts


def _dumped_with_json(obj):
    """``dump_json`` as ``json.dumps`` alone wrote it, before ``orjson`` wrote the float lists."""
    return json.dumps(_plain(obj), allow_nan=False) + "\n"


# the edges of the positional range of repr, where orjson's layout differs
_NEAR_EDGES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-6, 1e-3),
    st.floats(-1e-3, -1e-6),
    st.floats(1e14, 1e18),
    st.floats(-1e18, -1e14),
)


# float64 entries weighted to the edges of the writer's array path: the
# band [1e-5, 1e-4), where orjson is positional and repr is not, the
# neighbours of 1e-4 and 1e16, signed zeros, the least subnormal and the
# largest double
_ARRAY_ENTRIES = st.one_of(
    _NEAR_EDGES,
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(-1e-4, -1e-5, exclude_min=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-5, -1e-5]),
    st.deferred(lambda: st.sampled_from(_edge_floats())),
)


def _edge_floats():
    """Neighbours of 1e-4 and 1e16, signed zeros, the extreme doubles and integral doubles past 2**53."""
    edges = []
    for x in (1e-4, 1e16):
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            edges += [float(y), -float(y)]
    return edges + [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                    2.0**53 + 2, 2.0**63, 1e-5, 1e15, 1e-7, 0.1]


class TestWriter:
    """``dump_json`` against ``json.dumps``, the writer of every float before ``orjson``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_NEAR_EDGES, min_size=1, max_size=40), st.booleans())
    def test_finite_float_lists_write_as_json_writes_them(self, values, as_tuple):
        entries = tuple(values) if as_tuple else values
        report = {"command": "wmp", "re": entries, "nested": [{"im": entries}, entries, "[NaN, 0]"], "r_cond": 1.5}
        for obj in (entries, report):
            assert dump_json(obj) == _dumped_with_json(obj)

    def test_edge_values_write_as_json_writes_them(self):
        edges = _edge_floats()
        report = {"entries": edges, "each": [[x] for x in edges], "tuple": tuple(edges), "ints": [2**53 + 1, 2**64, -(2**70)]}
        assert dump_json(report) == _dumped_with_json(report)
        assert dump_json(edges) == "[" + ", ".join(map(repr, edges)) + "]\n"

    def test_placeholders_do_not_collide_with_strings(self):
        # keys and strings that spell the placeholder, with escaped quotes and
        # backslashes, and two keys that _plain makes one
        report = {
            "[NaN, 0]": [1.0, 2.5],
            "s": '"[NaN, 1]" \\[NaN, 0]\\ \\"',
            1: [3.0],
            "1": [4.0],
            "list": ["[NaN, 0]", [0.5], '"', "\\"],
        }
        assert dump_json(report) == _dumped_with_json(report)
        assert json.loads(dump_json(report))["1"] == [4.0]

    def test_unsupported_values_raise_as_json_raises(self):
        for obj in ({"x": [1.0, 2.0], "bad": object()}, [[0.5], 1j], {"s": {1, 2}}):
            with pytest.raises(TypeError) as parent:
                _dumped_with_json(obj)
            with pytest.raises(TypeError) as got:
                dump_json(obj)
            assert str(got.value) == str(parent.value)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda x: f"{x:.17e}",
            lambda x: np.format_float_positional(x, unique=True, trim="0"),
            lambda x: np.format_float_positional(x, unique=True, trim="-"),
            lambda x: f"{x:,}",
        ],
        ids=["exponent-form", "positional-form", "no-point", "thousands-separators"],
    )
    def test_other_layouts_of_orjson_still_write_json_text(self, layout, monkeypatch, rng):
        # an orjson that wrote every float in exponent form, every float
        # positionally with its shortest digits (1e16 as 10000000000000000.0,
        # 5e-324 as 0.000...5), integral floats without a point (1.0 as 1),
        # or commas inside numbers: the tokens that are not positional or lie
        # outside the positional range of repr fall back to repr, a list whose
        # tokens do not match its entries falls back whole, and the text stays
        # json.dumps's
        def dumps(values):
            return ("[" + ",".join(map(layout, values)) + "]").encode()

        values = rng.standard_normal(50).tolist() + _edge_floats()
        report = {"inverse": matrix_to_obj(np.array(values).reshape(1, -1)), "t": tuple(values)}
        expected = _dumped_with_json(report)
        monkeypatch.setattr(orjson, "dumps", dumps)
        assert dump_json(report) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ARRAY_ENTRIES, max_size=40), st.integers(0, 2))
    def test_float64_arrays_write_as_json_writes_them(self, values, step):
        # arrays, empty and one-entry ones included, strided views, and the
        # same entries as a list and a tuple, side by side in one report
        entries = np.array(values, dtype=np.float64)
        report = {
            "re": entries,
            "list": values,
            "nested": [{"im": entries[::step + 1]}, entries[:1], tuple(values)],
            "matrix": matrix_to_arrays(entries.reshape(1, -1)),
        }
        for obj in (entries, report):
            assert dump_json(obj) == _dumped_with_json(obj)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda x: f"{x:.17e}",
            lambda x: np.format_float_positional(x, unique=True, trim="0"),
            lambda x: np.format_float_positional(x, unique=True, trim="-"),
            lambda x: f"{x:,}",
            None,
        ],
        ids=["exponent-form", "positional-form", "no-point", "thousands-separators", "refuses-arrays"],
    )
    def test_other_layouts_of_orjson_for_arrays_still_write_json_text(self, layout, monkeypatch, rng):
        # the layouts of test_other_layouts_of_orjson_still_write_json_text,
        # now of an orjson that takes the arrays with OPT_SERIALIZE_NUMPY, and
        # an orjson that refuses them as orjson refuses what it cannot write
        def dumps(values, option=None):
            assert option == orjson.OPT_SERIALIZE_NUMPY and values.dtype == np.float64
            if layout is None:
                raise orjson.JSONEncodeError("Type is not JSON serializable: numpy.ndarray")
            return ("[" + ",".join(map(layout, values)) + "]").encode()

        values = rng.standard_normal(50).tolist() + _edge_floats()
        entries = np.array(values)
        report = {"inverse": matrix_to_arrays((entries + 1j * entries[::-1]).reshape(2, -1)), "re": entries, "t": tuple(values), "one": entries[:1]}
        expected = _dumped_with_json(report)
        monkeypatch.setattr(orjson, "dumps", dumps)
        assert dump_json(report) == expected

    def test_repr_writes_only_the_entries_outside_the_positional_range(self, monkeypatch, rng):
        # signed zeros and 1e-4 <= |x| < 1e16 keep orjson's token; repr writes
        # each other entry, once, and nothing else
        inside = [0.0, -0.0, 1e-4, -1e-4, 0.5, -123.25, float(np.nextafter(1e16, 0.0)), 9.5e15]
        outside = [1e-5, -3e-5, float(np.nextafter(1e-4, 0.0)), 1e16, -2e17, 5e-324, -1.7976931348623157e308]
        written = []
        monkeypatch.setattr(wmpinv.io, "repr", lambda x: written.append(x) or builtins.repr(x), raising=False)
        for values in (inside, outside, inside + outside):
            entries = rng.permutation(np.array(values))
            written.clear()
            assert dump_json({"re": entries}) == _dumped_with_json({"re": entries})
            assert sorted(written) == sorted(x for x in values if x in outside)

    def test_matrix_to_arrays_holds_the_entries_of_matrix_to_obj(self, rng):
        for x in (rng.standard_normal((3, 4)), rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), np.zeros((0, 3))):
            arrays, lists = matrix_to_arrays(x), matrix_to_obj(x)
            assert {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in arrays.items()} == lists
            assert all(v.dtype == np.float64 and v.ndim == 1 for v in arrays.values() if isinstance(v, np.ndarray))
            assert dump_json(arrays) == _dumped_with_json(lists)


@pytest.mark.parametrize("command", ["exists", "wmp"])
def test_each_cli_matrix_is_scanned_once(command, monkeypatch, tmp_path, rng, capsys):
    # a matrix orjson read is finite: the library's check of each input is
    # its one scan, and only a document json alone parsed is scanned on read
    a = random_matrix_with_rank(rng, 6, 5, 3)
    m, n = random_weight(rng, 6).matrix, random_weight(rng, 5).matrix
    bundle, weights, role = tmp_path / "bundle.json", tmp_path / "weights.json", tmp_path / "a.json"
    write_bundle(bundle, {"A": a, "M": m, "N": n})
    write_bundle(weights, {"M": m, "N": n})
    role.write_text(json.dumps(matrix_to_obj(a)))
    past_limit = tmp_path / "past_limit.json"
    past_limit.write_text(bundle.read_text().rstrip()[:-1] + f', "{"[" * 129}": {_role(1, 1, "1")}}}')
    scans = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        scans.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    # the weights are coerced first, then A; wmp writes the inverse and its two parts
    inputs = [(6, 6), (5, 5), (6, 5)]
    written = [(5, 6), (30,), (30,)] if command == "wmp" else []
    for argv in (["--bundle", str(bundle)], ["--bundle", str(weights), "--role", f"A={role}"]):
        scans.clear()
        assert main([command, *argv, "--json"]) == 0
        assert scans == inputs + written
    # json reads the document past the bracket limit: its re and im lists are scanned as read
    scans.clear()
    assert main([command, "--bundle", str(past_limit), "--json"]) == 0
    assert scans == [(30,), (30,), (36,), (36,), (25,), (25,), (1,)] + inputs + written
    capsys.readouterr()


def test_tolerance_fields_are_read_as_asdict_reads_them():
    for tol in (DEFAULT_TOL, ToleranceConfig(rank_rtol=1e-8, inv_cond_max=1e6, verify_atol=1e-7)):
        values = cli._tol_values(tol)
        assert values == dataclasses.asdict(tol) and list(values) == list(dataclasses.asdict(tol))


class TestReader:
    """The ``orjson`` reader against ``json``, the reader it replaces."""

    def test_write_bundle_output_parses_as_json_parses_it(self, tmp_path, rng):
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        extremes = np.array([[5e-324, -0.0, 1.7976931348623157e308], [-2.2250738585072014e-308, 1e-17, 0.1]])
        path = tmp_path / "b.json"
        for matrices, scalars in [
            ({"A": x, "M": np.eye(4), "N": x.conj().T @ x}, None),
            ({"A": extremes, "B": 1j * extremes}, {"seed": 42, "schedule": [0.1, 0.01], "tolerances": {"verify_atol": 1e-7}}),
            ({"A": np.zeros((0, 3))}, {"seed": -(2**63)}),
        ]:
            write_bundle(path, matrices, scalars)
            text = path.read_text()
            orjson.loads(text)  # the fast path reads it
            assert _outcome(parse_bundle, text) == _outcome(_parse_with_json, text)
            assert _outcome(lambda _: load_bundle(path), None) == _outcome(_parse_with_json, text)

    @pytest.mark.parametrize("name", sorted(_hand_written()))
    def test_hand_written_bundles_parse_as_json_parses_them(self, name):
        text = _hand_written()[name]
        orjson.loads(text)  # the fast path reads it
        parse_bundle(text)  # and it is a bundle
        assert _outcome(parse_bundle, text) == _outcome(_parse_with_json, text)

    def test_benchmark_bundles_parse_as_json_parses_them(self, tmp_path):
        texts = _bench_bundle_texts(tmp_path)
        assert len(texts) == 48
        for text in texts:
            orjson.loads(text)  # the fast path reads it
            assert _outcome(parse_bundle, text) == _outcome(_parse_with_json, text)

    def test_single_matrix_files_load_as_json_loads_them(self, tmp_path):
        path = tmp_path / "a.json"
        matrix = _role(1, 3, "1E5, -0.0, 5e-324", "0.1, 18446744073709553665, -1")
        expected = matrix_from_obj(json.loads(matrix))
        # a matrix object, and a bundle holding one matrix
        for text in (matrix, f'{{"X": {matrix}}}'):
            path.write_text(text)
            got = load_matrix(path)
            assert got.tobytes() == expected.tobytes() and got.shape == expected.shape

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.from_regex(r"-?(0|[1-9][0-9]{0,25})", fullmatch=True),
                st.from_regex(r"(\.[0-9]{1,30})?", fullmatch=True),
                st.one_of(st.just(""), st.integers(-340, 320).map(lambda e: f"e{e}")),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_decimal_literals_read_to_the_same_bits(self, parts):
        literals = ", ".join("".join(p) for p in parts)
        text = f'{{"A": {_role(1, len(parts), literals)}}}'
        assert _outcome(parse_bundle, text) == _outcome(_parse_with_json, text)

    @pytest.mark.parametrize(
        "text",
        [
            f'{{"A": {_role(1, 3, "NaN, Infinity, -Infinity")}}}',
            f'{{"A": {_role(1, 2, "1e400, -1e400")}}}',
            f'{{"A": {_role(1, 1, "1" + "0" * 400)}}}',
            f'{{"\\ud800": {_role(1, 1, "1")}}}',
            f'{{"\ud800": {_role(1, 1, "1")}}}',
            f'{{"A": {_role(1, 1, "1")}, "schedule": [1, Infinity]}}',
            '{"tolerances": {"inv_cond_max": NaN}}',
            '{"tolerances": {"inv_cond_max": Infinity}}',
        ],
        ids=["nan-infinity", "overflow", "overflowing-integer", "escaped-lone-surrogate", "lone-surrogate", "infinite-schedule", "nan-tolerance", "infinite-tolerance"],
    )
    def test_what_orjson_refuses_reads_as_json_reads_it(self, text):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
        assert _outcome(parse_bundle, text) == _outcome(_parse_with_json, text)

    @pytest.mark.parametrize("field", ["seed", "rows", "cols"])
    @pytest.mark.parametrize("value", [2**64 + 1, -(2**63) - 1, 10**30])
    def test_integer_fields_outside_64_bits_read_as_json_reads_them(self, field, value, tmp_path):
        if field == "seed":
            text = f'{{"A": {_role(1, 1, "1")}, "seed": {value}}}'
        else:
            text = f'{{"A": {_role(value if field == "rows" else 1, value if field == "cols" else 1, "1")}}}'
        # orjson alone would round the value to a double
        obj = orjson.loads(text)
        assert isinstance(obj["seed"] if field == "seed" else obj["A"][field], float)
        parsed = _outcome(parse_bundle, text)
        assert parsed == _outcome(_parse_with_json, text)
        if field == "seed":
            assert parsed[3] == (int, value)
        path = tmp_path / "m.json"
        path.write_text(text)
        assert _outcome(lambda _: load_bundle(path), None) == parsed

    @pytest.mark.parametrize(
        "content",
        [b"", b"   ", b'{"A": {"rows": 1, "cols": 1, "re": [1', b'{"A": ', b"\xef\xbb\xbf{}", b"{} {}", b"[1,]"],
        ids=["empty", "blank", "truncated-list", "truncated-object", "bom", "extra-data", "trailing-comma"],
    )
    def test_malformed_files_keep_the_json_message(self, content, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(json.JSONDecodeError) as parent:
            json.loads(path.read_text())
        with pytest.raises(BundleFormatError) as got:
            load_bundle(path)
        assert str(got.value) == f"invalid JSON: {parent.value}"
        with pytest.raises(BundleFormatError) as got:
            load_matrix(path)
        assert str(got.value) == f"{path}: invalid JSON: {parent.value}"

    @pytest.mark.parametrize("brackets", [128, 129])
    @pytest.mark.parametrize("in_strings", [0, 1, 40])
    def test_the_bracket_limit_routes_as_before(self, brackets, in_strings, monkeypatch):
        # every [ and { counts, those inside strings too: up to 128 go to
        # orjson, more to json; the roles split them between [ and {
        roles = [f'"R{i}": {_role(1, 1, "1")}' for i in range(30)]
        name = "[{" * (in_strings // 2) + "[" * (in_strings % 2)
        text = "{" + ", ".join(roles) + f', "{name}": ' + _role(1, 1, "1")
        nested = brackets - text.count("[") - text.count("{")
        assert 0 <= nested
        # an "im" of the last role holds the rest, and the document closes
        text = text[:-1] + ', "im": ' + "[" * nested + "]" * nested + "}}"
        assert text.count("[") + text.count("{") == brackets
        ran = []
        for module in (orjson, json):
            monkeypatch.setattr(module, "loads", lambda t, _loads=module.loads, _name=module.__name__: ran.append(_name) or _loads(t))
        obj = _loads(text)
        assert ran == (["orjson"] if brackets <= 128 else ["json"])
        assert obj == json.JSONDecoder().decode(text)

    def test_a_deep_document_is_left_to_json(self):
        # orjson 3.8 parses without a depth limit and overflows the C stack
        # near 55 000 nested objects; json raises RecursionError instead, in
        # a child process so that a crash fails this test alone
        src = str(Path(wmpinv.__file__).resolve().parents[1])
        code = (
            "from wmpinv.io import parse_bundle\n"
            "depth = 200000\n"
            "try:\n"
            "    parse_bundle('{\"A\": ' + '{\"x\": ' * depth + '1' + '}' * depth + '}')\n"
            "except RecursionError:\n"
            "    print('RecursionError')\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout.strip()) == (0, "RecursionError")
        for depth in (2, 200):
            text = '{"A": ' + "[" * depth + "1" + "]" * depth + "}"
            assert _outcome(parse_bundle, text) == _outcome(_parse_with_json, text)


def test_orjson_is_loaded_by_the_first_read_only(tmp_path):
    # bench/worker.py imports wmpinv.cli for every workload; orjson costs
    # about 0.5 MB of resident memory where no JSON is read
    path = tmp_path / "b.json"
    write_bundle(path, {"A": np.eye(2)})
    src = str(Path(wmpinv.__file__).resolve().parents[1])
    code = (
        "import sys, wmpinv, wmpinv.cli\n"
        "print('orjson' in sys.modules)\n"
        "wmpinv.io.load_bundle(sys.argv[1])\n"
        "print('orjson' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["False", "True"]


def _declared_dependencies(pyproject: str) -> set:
    """Distribution names in ``[project] dependencies``, read without ``tomllib`` (absent before Python 3.11)."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", pyproject, re.M | re.S).group(1)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_") for spec in re.findall(r'"([^"]+)"', listed)}


def test_third_party_imports_are_the_declared_dependencies():
    # every import, at module level or inside a function, of a module that is
    # neither the standard library's nor the package's own
    root = Path(wmpinv.__file__).resolve().parent
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"wmpinv"}
    pyproject = (root.parents[1] / "pyproject.toml").read_text()
    assert third_party == _declared_dependencies(pyproject) == {"numpy", "scipy", "orjson"}
