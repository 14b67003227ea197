"""Command line front end.

Exit codes: 0 success, 1 file or parse error, 2 mathematical
non-existence or precondition failure, 64 usage error.

The command table in :func:`build_parser` names each subcommand's
required and optional roles; :func:`main` binds them, coerces the weight
roles to ``Weight`` and passes them to the handler in table order.

:func:`main` builds its argparse parser once per process and reuses it,
so it may be called repeatedly in-process (by scripts, test suites and
benchmarks) without paying the parser's set-up again.  The parser holds
the command grammar only; no input, result or flag value carries over
from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .continuity import PerturbationSequence, _diagnostics, perturb_weights_only
from .core import (
    _positive_weights,
    _problem,
    _required_on_split,
    _singular_factor,
    matched_projection,
    rho_embed,
    verify_weighted_penrose,
    wmp_exists,
    wmp_inverse,
)
from .exceptions import RankFlipWarning, WmpError, _cond_text
from .io import (
    BundleFormatError,
    ProblemBundle,
    dump_json,
    geometric_schedule,
    load_bundle,
    load_matrix,
    matrix_to_obj,
    write_bundle,
)
from .limits import (
    closed_form_separated,
    decompose_b,
    limit_lambda_to_inf,
    limit_t_to_zero,
    omega_weight,
    separated_pair_check,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, _split_basis, as_matrix, operator_norm
from .sampling import random_complex, rng_from
from .weights import Weight, as_weight

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64 instead of argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _role_pair(text: str):
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, path


def _schedule_endpoints(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"schedule endpoints must be numbers, got {text!r}")
    # the endpoints follow the rule of geometric_schedule, as usage errors
    try:
        return geometric_schedule(a, b)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", help="JSON problem bundle holding the input roles")
    p.add_argument(
        "--role",
        action="append",
        # not a list: the parser is shared by every call of main
        default=None,
        type=_role_pair,
        metavar="NAME=PATH",
        help="bind a role to a JSON matrix or Matrix Market file (repeatable)",
    )
    p.add_argument("--out", help="write result matrices to this JSON file")
    p.add_argument("--json", action="store_true", help="machine readable report on stdout")
    p.add_argument("--rank-rtol", type=float, help="relative singular value cutoff")
    p.add_argument("--verify-atol", type=float, help="identity verification tolerance")
    p.add_argument(
        "--schedule",
        type=_schedule_endpoints,
        metavar="A:B",
        help="geometric schedule endpoints for limit commands",
    )
    p.add_argument("--seed", type=int, help="seed for the random direction of perturb --kind full")


@dataclass
class _Context:
    matrices: dict
    tol: ToleranceConfig
    tol_sources: dict
    schedule: np.ndarray | None
    seed: int | None


def _gather(args) -> _Context:
    path = args.bundle
    try:
        bundle = load_bundle(path) if path else ProblemBundle()
        matrices = dict(bundle.matrices)
        for name, path in args.role or ():
            matrices[name] = load_matrix(path)
    except RecursionError as e:
        # json's verdict on a file nested past the recursion limit; path names the file being read
        raise BundleFormatError(f"{path}: nested too deeply to read") from e

    values = asdict(DEFAULT_TOL)
    sources = dict.fromkeys(values, "default")
    flags = {"rank_rtol": args.rank_rtol, "verify_atol": args.verify_atol}
    for source, given in (("bundle", bundle.tolerances), ("flag", flags)):
        for k, v in given.items():
            if v is not None:
                values[k] = v
                sources[k] = source
    # parse_bundle has checked the bundle's values, so a rejection here is a flag's
    try:
        tol = ToleranceConfig(**values)
    except ValueError as e:
        raise _UsageError(str(e)) from e

    schedule = args.schedule if args.schedule is not None else bundle.schedule
    seed = args.seed if args.seed is not None else bundle.seed
    return _Context(matrices=matrices, tol=tol, tol_sources=sources, schedule=schedule, seed=seed)


class _UsageError(Exception):
    """Bad invocation discovered after argparse (e.g. an unbound role)."""


def _need(ctx: _Context, *names: str) -> list:
    missing = [n for n in names if n not in ctx.matrices]
    if missing:
        raise _UsageError(
            f"missing role(s) {', '.join(missing)}; supply them via --bundle or --role"
        )
    return [ctx.matrices[n] for n in names]


# the roles that name a weight; main coerces each one given to a Weight
_WEIGHT_ROLES = frozenset({"M", "N", "V", "W", "U"})


def _fmt_entry(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:.12g}"
    return f"({v.real:.12g}{v.imag:+.12g}j)"


def _matrix_lines(name: str, a: np.ndarray) -> list:
    lines = [f"{name} ({a.shape[0]} x {a.shape[1]}):"]
    for row in np.atleast_2d(a):
        lines.append("  [ " + "  ".join(_fmt_entry(v) for v in row) + " ]")
    return lines


def _tol_line(ctx: _Context) -> str:
    parts = [
        f"{k}={'adaptive' if v is None else f'{v:g}'} ({ctx.tol_sources[k]})"
        for k, v in asdict(ctx.tol).items()
    ]
    return "tolerances: " + ", ".join(parts)


def _emit(args, ctx: _Context, report: dict, lines: list, matrices: dict | None = None) -> None:
    """Write one report: JSON or text on stdout, and ``matrices`` to ``--out``.

    The JSON opens with the command and the tolerances with their
    sources, and the text with the tolerance line; every entry of
    ``matrices`` appears in all three outputs.
    """
    matrices = matrices or {}
    if args.json:
        head = {"command": args.command, "tolerances": {**asdict(ctx.tol), "sources": ctx.tol_sources}}
        body = {name: matrix_to_obj(mat) for name, mat in matrices.items()}
        sys.stdout.write(dump_json({**head, **report, **body}))
    else:
        lines = [_tol_line(ctx), *lines]
        for name, mat in matrices.items():
            lines += _matrix_lines(name, mat)
        print("\n".join(lines))
    if args.out and matrices:
        write_bundle(args.out, matrices)


def _no_inverse(args, ctx, report: dict, lines: list, res, matrices: dict | None = None) -> int:
    """Report that the weighted inverse does not exist; exit code 2."""
    factor, cond = _singular_factor(res.r_cond, res.l_cond, ctx.tol)
    report["singular_factor"] = factor
    msg = f"weighted inverse does not exist: {factor} has {_cond_text(cond)}"
    _emit(args, ctx, report, lines + [msg], matrices)
    if not args.json:
        print(msg, file=sys.stderr)
    return 2


def _emit_trace(args, ctx, trace, param_name: str) -> int:
    """Report a limit trace: schedule, errors, verdict, target and final iterate."""
    report = {
        "schedule": [float(t) for t in trace.params],
        "errors": [float(e) for e in trace.errors],
        "limit_atol": trace.limit_atol,
        "converged": bool(trace.converged),
        "rank_flips": list(trace.rank_flips),
    }
    lines = [f"{param_name:>12}  {'error':>14}"]
    for t, _, e in trace.rows():
        lines.append(f"{t:>12.6g}  {e:>14.6e}")
    lines.append(f"converged: {trace.converged} (final error vs tolerance {trace.limit_atol:.3e})")
    if trace.rank_flips:
        lines.append(f"rank flips at schedule indices: {list(trace.rank_flips)}")
    _emit(args, ctx, report, lines, {"target": trace.target, "final_iterate": trace.iterates[-1]})
    return 0


def cmd_wmp(args, ctx, a, m, n) -> int:
    res = wmp_inverse(a, m, n, ctx.tol)
    report = {"exists": res.exists, "r_cond": res.r_cond, "l_cond": res.l_cond}
    if not res.exists:
        return _no_inverse(args, ctx, report, [], res)
    report["penrose_residuals"] = [float(x) for x in res.penrose_residuals]
    lines = [
        f"exists: true (cond R = {res.r_cond:.6e}, cond L = {res.l_cond:.6e})",
        "penrose residuals: " + ", ".join(f"{x:.3e}" for x in res.penrose_residuals),
    ]
    _emit(args, ctx, report, lines, {"inverse": res.inverse})
    return 0


def cmd_exists(args, ctx, a, m, n) -> int:
    rep = wmp_exists(a, m, n, ctx.tol)
    report = {
        "exists": rep.exists,
        "r_invertible": rep.r_invertible,
        "l_invertible": rep.l_invertible,
        "r_cond": rep.r_cond,
        "l_cond": rep.l_cond,
    }
    lines = [
        f"R factor invertible: {rep.r_invertible} ({_cond_text(rep.r_cond)})",
        f"L factor invertible: {rep.l_invertible} ({_cond_text(rep.l_cond)})",
        f"exists: {rep.exists}",
    ]
    if not rep.exists:
        return _no_inverse(args, ctx, report, lines, rep)
    _emit(args, ctx, report, lines)
    return 0


def cmd_verify(args, ctx, a, m, n, x) -> int:
    resid = verify_weighted_penrose(a, m, n, x, ctx.tol)
    names = ["AXA - A", "XAX - X", "hermitian M A X", "hermitian N X A"]
    passes = [bool(r <= ctx.tol.verify_atol) for r in resid]
    report = {
        "residuals": {nm: float(r) for nm, r in zip(names, resid)},
        "passes": {nm: p for nm, p in zip(names, passes)},
        "all_pass": all(passes),
    }
    lines = [f"{nm}: residual {r:.6e} {'pass' if p else 'FAIL'}" for nm, r, p in zip(names, resid, passes)]
    lines.append(f"all identities pass: {all(passes)}")
    _emit(args, ctx, report, lines)
    return 0 if all(passes) else 2


def cmd_reduce(args, ctx, a, m, n) -> int:
    am, mw, nw = _problem(a, m, n, ctx.tol)
    # S, T, X_MN and X_ST all come from one split of A
    sp = _split_basis(am, ctx.tol)
    factors, x_orig = _required_on_split(sp, mw, sp.v_0.conj().T @ nw.matrix, ctx.tol)
    red = _positive_weights(factors, ctx.tol)
    x_red = _required_on_split(sp, red.s, sp.v_0.conj().T @ red.t.matrix, ctx.tol)[1]
    agreement = operator_norm(x_orig - x_red)
    report = {"agreement": float(agreement), "s_cond": red.s.cond, "t_cond": red.t.cond}
    lines = [
        f"positive definite replacements found (cond S = {red.s.cond:.3e}, cond T = {red.t.cond:.3e})",
        f"inverse agreement ||X_MN - X_ST|| = {agreement:.6e}",
    ]
    _emit(args, ctx, report, lines, {"S": red.s.matrix, "T": red.t.matrix})
    return 0


def cmd_limit_t0(args, ctx, a, b, v, w, u, x, y) -> int:
    if u is None and (x is not None or y is not None):
        u = omega_weight(a, b, w, x=v.matrix if x is None else x, y=y, tol=ctx.tol)
    trace = limit_t_to_zero(a, b, v, w, u, schedule=ctx.schedule, tol=ctx.tol)
    return _emit_trace(args, ctx, trace, "t")


def cmd_limit_lambda(args, ctx, a, b) -> int:
    trace = limit_lambda_to_inf(a, b, schedule=ctx.schedule, tol=ctx.tol)
    return _emit_trace(args, ctx, trace, "lambda")


def cmd_separated(args, ctx, a, b) -> int:
    rep = separated_pair_check(a, b, ctx.tol)
    report = {
        "is_separated": rep.is_separated,
        "pq_norm": rep.pq_norm,
        "two_minus_sum_cond": rep.two_minus_sum_cond,
        "intersection_dim": rep.intersection_dim,
        "sum_rank": rep.sum_rank,
    }
    lines = [
        f"||P Q|| = {rep.pq_norm:.12f}",
        f"cond(2I - P - Q) = {rep.two_minus_sum_cond:.6e}",
        f"row-space intersection dimension: {rep.intersection_dim}",
        f"separated: {rep.is_separated}",
    ]
    _emit(args, ctx, report, lines)
    return 0


def cmd_closed_form(args, ctx, a, b, v, w) -> int:
    pi, d = closed_form_separated(a, b, v, w, ctx.tol)
    lines = ["closed form verified against the weighted inverse"]
    _emit(args, ctx, {}, lines, {"pi": pi, "closed_form": d})
    return 0


def cmd_decompose(args, ctx, a, b, v, w) -> int:
    dec = decompose_b(a, b, v, w, ctx.tol)
    w_cross, containment, pair = dec.w_orthogonality, dec.containment, dec.separation
    report = {
        "w_orthogonality": float(w_cross),
        "containment": float(containment),
        "b2_separated": pair.is_separated,
        "b2_pq_norm": pair.pq_norm,
    }
    lines = [
        f"||B2* W B1|| = {w_cross:.6e}",
        f"row-space containment residual = {containment:.6e}",
        f"(A, B2) separated: {pair.is_separated} (||P Q|| = {pair.pq_norm:.6f})",
    ]
    _emit(args, ctx, report, lines, {"B1": dec.b1, "B2": dec.b2, "Z": dec.z})
    return 0


def cmd_matched_projection(args, ctx, q) -> int:
    m = matched_projection(q, ctx.tol)
    qm = as_matrix(q)
    herm = operator_norm(m - m.conj().T)
    idem = operator_norm(m @ m - m)
    dist = operator_norm(m - qm)
    report = {
        "hermitian_residual": float(herm),
        "idempotent_residual": float(idem),
        "distance_to_input": float(dist),
    }
    lines = [
        f"hermitian residual {herm:.3e}, idempotent residual {idem:.3e}",
        f"distance to input ||m(Q) - Q|| = {dist:.6e}",
    ]
    _emit(args, ctx, report, lines, {"projection": m})
    return 0


def cmd_rho(args, ctx, a, m, n) -> int:
    rho, t_weight = rho_embed(a, m, n, ctx.tol)
    base = wmp_inverse(a, m, n, ctx.tol)
    # T^-1 = diag(M^-1, N) from its blocks: no inverse of the whole T
    k, t_inv = m.dim, np.zeros_like(t_weight.matrix)
    t_inv[:k, :k], t_inv[k:, k:] = m.inverse, n.matrix
    embedded = wmp_inverse(rho, t_weight, Weight(t_inv, ctx.tol), ctx.tol)
    report = {"base_exists": base.exists, "embedded_exists": embedded.exists}
    lines = [f"base exists: {base.exists}, embedded exists: {embedded.exists}"]
    matrices = {"rho": rho, "T": t_weight.matrix}
    if not base.exists:
        return _no_inverse(args, ctx, report, lines, base, matrices)
    block = embedded.inverse[k:, :k]
    block_resid = operator_norm(block - base.inverse)
    report["block_residual"] = float(block_resid)
    lines.append(f"lower-left block residual against the direct inverse: {block_resid:.6e}")
    _emit(args, ctx, report, lines, {**matrices, "inverse_block": block})
    return 0


def cmd_perturb(args, ctx, a, m, n, dm, dn, e) -> int:
    terms = args.terms
    if terms < 2:
        raise _UsageError("--terms must be at least 2")
    am = as_matrix(a)
    if args.kind == "weights-only":
        if dm is None:
            dm = 0.1 * operator_norm(m.matrix) * np.eye(m.dim, dtype=np.complex128)
        if dn is None:
            dn = 0.1 * operator_norm(n.matrix) * np.eye(n.dim, dtype=np.complex128)
        pairs = [(m.matrix + dm / (i + 1), n.matrix + dn / (i + 1)) for i in range(terms)]
        diag = perturb_weights_only(am, m, n, pairs, ctx.tol)
    else:
        gen = rng_from(ctx.seed)
        if e is None:
            scale = 0.1 * max(operator_norm(am), 1.0)
            e = scale * random_complex(gen, am.shape[0], am.shape[1])
        sp = _split_basis(am, ctx.tol)
        p_cod = sp.u_r @ sp.u_r.conj().T
        p_dom = sp.v_r @ sp.v_r.conj().T
        direction = p_cod @ as_matrix(e) @ p_dom
        seq = PerturbationSequence.full(
            am, m, n, [(am + direction / (i + 1), m.matrix, n.matrix) for i in range(terms)], ctx.tol
        )
        diag = _diagnostics(seq, sp, ctx.tol)
    finals = {k: (float(v[-1]) if np.isfinite(v[-1]) else None) for k, v in diag.columns.items()}
    report = {
        "kind": args.kind,
        "terms": terms,
        "trends": diag.trends,
        "final_values": finals,
        "equivalences_consistent": diag.equivalences_consistent,
        "n0": diag.n0,
        "exists": [bool(x) for x in diag.exists],
    }
    lines = [f"kind: {args.kind}, terms: {terms}"]
    for name, trend in diag.trends.items():
        final = finals[name]
        shown = "nan" if final is None else f"{final:.6e}"
        lines.append(f"{name}: trend {trend}, final {shown}")
    lines.append(f"equivalence proxies consistent: {diag.equivalences_consistent}")
    lines.append(f"first index with stable existence: {diag.n0}")
    _emit(args, ctx, report, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and shared by every later call."""
    parser = _Parser(prog="wmpinv", description="Weighted pseudoinverse toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    # name, handler, required roles, optional roles, summary; the handler
    # takes (args, ctx) and then the roles in this order
    entries = [
        ("wmp", cmd_wmp, "A M N", "", "weighted pseudoinverse via the factored formula"),
        ("exists", cmd_exists, "A M N", "", "existence check through the two factors"),
        ("reduce", cmd_reduce, "A M N", "", "positive definite weight replacement"),
        ("limit-t0", cmd_limit_t0, "A B V W", "U X Y", "pencil limit t -> 0"),
        ("limit-lambda", cmd_limit_lambda, "A B", "", "pencil limit lambda -> inf"),
        ("separated", cmd_separated, "A B", "", "row-space separation verdict"),
        ("closed-form", cmd_closed_form, "A B V W", "", "separated closed form of the pencil limit"),
        ("decompose", cmd_decompose, "A B V W", "", "split B against the weighted inverse"),
        ("verify", cmd_verify, "A M N X", "", "check the four weighted identities"),
        ("perturb", cmd_perturb, "A M N", "DM DN E", "continuity diagnostics under perturbation"),
        ("matched-projection", cmd_matched_projection, "Q", "", "orthogonal projection matched to an idempotent"),
        ("rho", cmd_rho, "A M N", "", "self-adjoint embedding of the weighted problem"),
    ]
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    for name, handler, required, optional, summary in entries:
        required, optional = required.split(), optional.split()
        roles = f"role{'s' * (len(required) > 1)} {', '.join(required)}"
        if optional:
            roles += f"; optional {', '.join(optional)}"
        p = sub.add_parser(name, help=f"{summary} ({roles})", parents=[common])
        if name == "perturb":
            p.add_argument("--terms", type=int, default=50, help="sequence length")
            p.add_argument(
                "--kind",
                choices=["weights-only", "full"],
                default="weights-only",
                help="perturb only the weights or the matrix as well",
            )
        p.set_defaults(handler=handler, roles=(required, optional))
    return parser


def _run_handler(args, ctx, inputs) -> int:
    """``args.handler(args, ctx, *inputs)``, each ``RankFlipWarning`` printed as ``warning: <message>``.

    The report names the flipped indices, so no source line is shown; other warnings reach ``showwarning``.
    """
    show = warnings.showwarning

    def show_flip(message, category, *rest):
        if issubclass(category, RankFlipWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *rest)

    with warnings.catch_warnings():
        warnings.simplefilter("always", RankFlipWarning)
        warnings.showwarning = show_flip
        return args.handler(args, ctx, *inputs)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        ctx = _gather(args)
        # the command's roles in table order: weights coerced, an absent optional one None
        required, optional = args.roles
        given = _need(ctx, *required) + [ctx.matrices.get(r) for r in optional]
        inputs = [
            as_weight(x, ctx.tol) if x is not None and r in _WEIGHT_ROLES else x
            for r, x in zip(required + optional, given)
        ]
        return _run_handler(args, ctx, inputs)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 64
    except (BundleFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (WmpError, ValueError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
