"""The benchmark's workloads: input generators, the timed call, the check.

Inputs are drawn with plain NumPy from the seed alone; wmpinv receives
only the generated arrays (or, for ``dense``, ``Weight`` objects built
from them during set-up).  Each workload is a fixed list of instances
that the timed loop cycles through; ``cycle`` calls make one full pass.

A workload object offers:

- ``call(i)``: the timed call on instance ``i % cycle``;
- ``result(i, out)``: the part of the output that ``check`` needs,
  reduced to plain values, and a digest identifying it, so that repeated
  identical outputs are checked once;
- ``check(i, payload)``: ``None`` if the output is right, else a reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference as ref

WORKLOADS = ("pool", "dense", "limits", "cli-verdicts")
# instances and matrix order of ``dense`` and ``cli-verdicts``; both use rank 3n/4
DENSE_COUNT, DENSE_SIZE = 16, 128
CLI_COUNT, CLI_SIZE = 16, 24


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def gaussian(rng, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z / np.sqrt(2.0)


def unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def low_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """Product of Gaussian factors, exact rank ``rank``."""
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return gaussian(rng, rows, rank) @ gaussian(rng, rank, cols)


def gram_spd(rng, n: int) -> np.ndarray:
    """``G* G + 1e-3 ||G* G|| I``."""
    g = gaussian(rng, n, n)
    gram = ref.hermitian(g.conj().T @ g)
    return gram + 1e-3 * ref.opnorm(gram) * np.eye(n)


def spectral_weight(rng, n: int, positive: bool) -> np.ndarray:
    """``Q diag(d) Q*`` with |d| in [0.5, 2]; random signs unless ``positive``."""
    q = unitary(rng, n)
    d = rng.uniform(0.5, 2.0, size=n)
    if not positive:
        d = d * np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return ref.hermitian((q * d) @ q.conj().T)


def well_spread(rng, rows: int, cols: int, rank: int):
    """``A = U_r diag(s) V_r*`` with s in [1, 2], plus full unitary bases of both sides."""
    u = unitary(rng, rows)
    v = unitary(rng, cols)
    s = rng.uniform(1.0, 2.0, size=rank)
    return (u[:, :rank] * s) @ v[:, :rank].conj().T, u, v


def paired_weight(rng, basis: np.ndarray, rank: int) -> np.ndarray:
    """Indefinite weight whose compression to ``basis[:, rank:]`` is exactly singular.

    In the basis, a hyperbolic 2 x 2 block ``[[0, 1], [1, 0]]`` pairs the
    first range direction with the first null direction; every other
    direction gets an indefinite block with eigenvalue magnitudes in
    [0.5, 2].  The first null direction is then mapped into the range,
    so the null-space compression has a zero row, while the weight keeps
    eigenvalues of magnitude in [0.5, 2] and condition number at most 4.
    """
    n = basis.shape[0]
    t = np.zeros((n, n), dtype=np.complex128)
    t[0, rank] = t[rank, 0] = 1.0
    rest = [i for i in range(n) if i not in (0, rank)]
    t[np.ix_(rest, rest)] = spectral_weight(rng, n - 2, positive=False)
    return ref.hermitian(basis @ t @ basis.conj().T)


def digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class Instance(NamedTuple):
    a: np.ndarray
    m: np.ndarray
    n: np.ndarray
    rank: int
    positive: bool
    exists: bool
    m_arg: object  # what wmp_inverse receives: ``m`` itself or a Weight built from it
    n_arg: object


class _InverseWorkload:
    """Shared by ``pool`` and ``dense``: one ``wmp_inverse`` call per instance."""

    def __init__(self, api):
        self.api = api
        self.instances: list[Instance] = []

    @property
    def cycle(self) -> int:
        return len(self.instances)

    def call(self, i):
        inst = self.instances[i % self.cycle]
        return self.api.wmp_inverse(inst.a, inst.m_arg, inst.n_arg)

    def result(self, i, out):
        if out.inverse is None:
            return digest(np.array([out.exists])), (bool(out.exists), None)
        x = out.inverse.copy()
        return digest(np.array([out.exists]), x), (bool(out.exists), x)

    def check(self, i, payload):
        inst = self.instances[i % self.cycle]
        got_exists, x = payload
        if got_exists != inst.exists:
            return f"verdict exists={got_exists}, construction says {inst.exists}"
        if not inst.exists:
            return None if x is None else "an inverse was returned for a non-existent case"
        return ref.check_inverse(inst.a, inst.m, inst.n, x, inst.rank, inst.positive)


class Pool(_InverseWorkload):
    """500 small problems drawn like acceptance criterion 2; raw weight arrays."""

    def __init__(self, api, seed: int, scratch: Path, count: int = 500):
        super().__init__(api)
        rng = rng_for(seed, "pool")
        for i in range(count):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 11))
            rank = int(rng.integers(0, min(rows, cols) + 1))
            positive = bool(i % 2)
            a = low_rank(rng, rows, cols, rank)
            # redraw weights whose inverse sits so close to the existence
            # boundary that double precision cannot meet the residual bound
            for _ in range(50):
                if positive:
                    m, n = gram_spd(rng, rows), gram_spd(rng, cols)
                else:
                    m = spectral_weight(rng, rows, positive=False)
                    n = spectral_weight(rng, cols, positive=False)
                exists, x, r_cond, l_cond = ref.weighted_inverse(a, m, n, rank)
                if not exists or r_cond * l_cond * (1.0 + ref.opnorm(x)) <= 1e6:
                    break
            self.instances.append(Instance(a, m, n, rank, positive, exists, m, n))


class Dense(_InverseWorkload):
    """128 x 128 problems of rank 96; weights prebuilt as ``Weight`` objects."""

    def __init__(self, api, seed: int, scratch: Path):
        super().__init__(api)
        rng = rng_for(seed, "dense")
        size = DENSE_SIZE
        rank = 3 * size // 4
        for i in range(DENSE_COUNT):
            positive = i % 2 == 0
            a, _, _ = well_spread(rng, size, size, rank)
            # the same redraw rule as ``pool``, with the bound scaled for n = 128:
            # it keeps the Penrose residuals near 1e-11, well inside the check
            while True:
                m = spectral_weight(rng, size, positive)
                n = spectral_weight(rng, size, positive)
                exists, x, r_cond, l_cond = ref.weighted_inverse(a, m, n, rank)
                if (
                    exists
                    and max(r_cond, l_cond) <= 1e6
                    and r_cond * l_cond * (1.0 + ref.opnorm(x)) <= 1e7
                ):
                    break
            self.instances.append(
                Instance(a, m, n, rank, positive, True, api.Weight(m), api.Weight(n))
            )


class Limits:
    """``limit_t_to_zero`` and ``limit_lambda_to_inf`` traces, in turn.

    One workload call is one t-trace followed by one lambda-trace.  The two
    take different times (about 60 and 70 ms here), and the median of a
    50/50 mix of single traces falls in the gap between the two modes,
    where it jumps from run to run.
    """

    def __init__(self, api, seed: int, scratch: Path, count: int = 4):
        self.api = api
        rng = rng_for(seed, "limits")
        self.t_cases = []
        self.lam_cases = []
        for _ in range(count):
            # rank 40 + rank 48 > 80 columns, so the row spaces overlap
            a, _, _ = well_spread(rng, 48, 80, 40)
            b = gaussian(rng, 48, 80) / np.sqrt(2.0)
            v = spectral_weight(rng, 48, positive=True)
            w = spectral_weight(rng, 48, positive=True)
            target = ref.t_limit_target(a, b, v, w, rank_a=40, rank_joint=80)
            self.t_cases.append((a, b, api.Weight(v), api.Weight(w), target))
        for _ in range(count):
            qa = unitary(rng, 80)[:, :32]
            qb = unitary(rng, 80)[:, :56]
            a = ref.hermitian((qa * rng.uniform(0.2, 1.0, size=32)) @ qa.conj().T)
            b = ref.hermitian((qb * rng.uniform(0.2, 1.0, size=56)) @ qb.conj().T)
            # the compression of B to the 48-dimensional complement of
            # range(A) has rank min(56, 48)
            target = ref.lambda_limit_target(b, qa, rank_mid=48)
            self.lam_cases.append((a, b, target))

    @property
    def cycle(self) -> int:
        return len(self.t_cases)

    def call(self, i):
        a, b, v, w, _ = self.t_cases[i % self.cycle]
        t_trace = self.api.limit_t_to_zero(a, b, v, w)
        a, b, _ = self.lam_cases[i % self.cycle]
        return t_trace, self.api.limit_lambda_to_inf(a, b)

    def points(self, i) -> int:
        limits = self.api.limits
        return len(limits.DEFAULT_T_SCHEDULE) + len(limits.DEFAULT_LAMBDA_SCHEDULE)

    def result(self, i, out):
        parts = [(bool(tr.converged), tr.target.copy(), tr.iterates[-1].copy()) for tr in out]
        arrays = [a for flag, target, final in parts for a in (np.array([flag]), target, final)]
        return digest(*arrays), parts

    def check(self, i, payload):
        wants = (self.t_cases[i % self.cycle][-1], self.lam_cases[i % self.cycle][-1])
        for label, (converged, target, _), want in zip(("t", "lambda"), payload, wants):
            if not converged:
                return f"{label}-trace did not converge"
            err = ref.rel_diff(target, want)
            if not err <= ref.TARGET_RTOL:
                return f"{label}-trace target differs from the reference by {err:.3e}"
        return None


class CliVerdicts:
    """``wmpinv wmp --json`` and ``wmpinv exists --json`` on bundle files."""

    def __init__(self, api, seed: int, scratch: Path):
        self.api = api
        rng = rng_for(seed, "cli-verdicts")
        size = CLI_SIZE
        rank = 3 * size // 4
        self.cases = []  # (path, a, m, n, rank, expected singular factor or None)
        scratch.mkdir(parents=True, exist_ok=True)
        for i in range(CLI_COUNT):
            kind = ("exists", "exists", "r-singular", "l-singular")[i % 4]
            a, u, v = well_spread(rng, size, size, rank)
            if kind == "r-singular":
                m, n = self._draw_weights(rng, a, rank, n=paired_weight(rng, v, rank))
            elif kind == "l-singular":
                mi = paired_weight(rng, u, rank)
                m, n = self._draw_weights(rng, a, rank, m=ref.hermitian(np.linalg.inv(mi)))
            else:
                m, n = self._draw_weights(rng, a, rank)
            expected = {"exists": None, "r-singular": ref.LABEL_R, "l-singular": ref.LABEL_L}[kind]
            path = scratch / f"bundle{i:02d}.json"
            path.write_text(json.dumps({"A": matrix_obj(a), "M": matrix_obj(m), "N": matrix_obj(n)}))
            self.cases.append((str(path), a, m, n, rank, expected))

    @staticmethod
    def _draw_weights(rng, a, rank, m=None, n=None):
        """Draw whichever of M, N is not given until the factor it decides has cond <= 100."""
        size = a.shape[0]
        while True:
            mm = spectral_weight(rng, size, False) if m is None else m
            nn = spectral_weight(rng, size, False) if n is None else n
            r_cond, l_cond, _, _ = ref.factor_conds(a, mm, nn, rank)
            if (n is not None or r_cond <= 100) and (m is not None or l_cond <= 100):
                return mm, nn

    @property
    def cycle(self) -> int:
        return 2 * len(self.cases)

    def _case(self, i):
        j = i % self.cycle
        return ("wmp", "exists")[j % 2], self.cases[j // 2]

    def call(self, i):
        command, case = self._case(i)
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.api.cli.main([command, "--bundle", case[0], "--json"])
        return code, buf.getvalue()

    def result(self, i, out):
        code, text = out
        return hashlib.blake2b(f"{code}\n{text}".encode(), digest_size=16).digest(), out

    def check(self, i, payload):
        command, (_, a, m, n, rank, expected) = self._case(i)
        code, text = payload
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return "stdout is not one JSON object"
        exists = expected is None
        if report.get("exists") is not exists:
            return f"verdict exists={report.get('exists')}, construction says {exists}"
        if code != (0 if exists else 2):
            return f"exit code {code} for exists={exists}"
        if not exists:
            got = report.get("singular_factor")
            return None if got == expected else f"singular_factor {got!r}, expected {expected!r}"
        if command == "exists":
            return None
        try:
            x = matrix_from_obj(report["inverse"])
        except (KeyError, TypeError, ValueError):
            return "report carries no readable inverse"
        return ref.check_inverse(a, m, n, x, rank, positive=False)


def matrix_obj(a) -> dict:
    """A matrix in the bundle layout: flat row-major real and imaginary parts."""
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def matrix_from_obj(obj) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=np.float64)
    return (re + 1j * im).reshape(int(obj["rows"]), int(obj["cols"]))


def build(name: str, api, seed: int, scratch: Path):
    cls = {"pool": Pool, "dense": Dense, "limits": Limits, "cli-verdicts": CliVerdicts}[name]
    return cls(api, seed, scratch)
