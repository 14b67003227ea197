"""Bundle serialization and the command-line front end."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import conftest as golden_data
import wmpinv
from wmpinv import cli, omega_weight, require_wmp_inverse, wmp_exists
from wmpinv.cli import main
from wmpinv.io import (
    BundleFormatError,
    dump_json,
    geometric_schedule,
    load_bundle,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    parse_bundle,
    read_matrix_market,
    write_bundle,
)
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

    def test_limit_lambda(self, tmp_path, capsys):
        bundle = tmp_path / "lam.json"
        write_bundle(bundle, {"A": golden_data.LAMBDA_A, "B": golden_data.LAMBDA_B})
        assert main(["limit-lambda", "--bundle", str(bundle)]) == 0
        assert "converged: True" in capsys.readouterr().out

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
        from wmpinv.sampling import random_matrix_with_rank, random_spd

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
        # a bundle value is a format error of the bundle
        with pytest.raises(BundleFormatError, match="must be positive"):
            parse_bundle(json.dumps({"tolerances": {"verify_atol": -1}}))
        with pytest.raises(BundleFormatError, match="must exceed 1"):
            parse_bundle('{"tolerances": {"inv_cond_max": NaN}}')
        path = tmp_path / "bad_tol.json"
        write_bundle(
            path,
            {"A": golden["a"], "M": golden["m"], "N": golden["n"]},
            scalars={"tolerances": {"verify_atol": -1.0}},
        )
        assert main(["wmp", "--bundle", str(path)]) == 1
        assert "verification tolerances must be positive" in capsys.readouterr().err


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
