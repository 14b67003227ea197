"""Perturbation harness for continuity of the weighted inverse.

For a sequence (A_n, M_n, N_n) -> (A, M, N) the convergence of the
weighted inverses, of the plain Moore-Penrose inverses, of the two
projectors, and the boundedness of the inverse norms stand or fall
together.  The harness evaluates finite proxies for each of these
conditions per term and classifies their tails, so rank-preserving and
rank-dropping perturbations can be told apart by inspection.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .core import _inverse_on_split, _problem, _required_on_split
from .exceptions import WeightError
from .linalg import (
    DEFAULT_TOL,
    SplitBasis,
    ToleranceConfig,
    _hermitian,
    _split_basis,
    as_matrix,
    operator_norm,
)
from .weights import Weight

__all__ = [
    "PerturbationSequence",
    "ContinuityDiagnostics",
    "TAIL_FRACTION",
    "DIVERGENCE_FACTOR",
    "run_diagnostics",
    "perturb_weights_only",
]

# Trend classification examines the last quarter of the terms; a column
# whose tail grows by at least the factor below is flagged diverging.
TAIL_FRACTION = 0.25
DIVERGENCE_FACTOR = 10.0

_DIFF_COLUMNS = ("wmp_diff", "proj_domain_diff", "proj_codomain_diff", "mp_diff")
_NORM_COLUMNS = ("wmp_norm", "mp_norm")
# the columns that depend on the matrix of a term alone, not on its weights
_SPLIT_COLUMNS = ("mp_norm", "mp_diff", "proj_domain_diff", "proj_codomain_diff")


def _projections(sp: SplitBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A+, A+A, AA+) from one split of A."""
    return sp.pinv(), sp.v_r @ sp.v_r.conj().T, sp.u_r @ sp.u_r.conj().T


@dataclass(frozen=True)
class PerturbationSequence:
    """Base problem plus a list of perturbed terms.

    ``kind`` is ``"full"`` when the matrix itself moves and
    ``"weights-only"`` when every term shares the base matrix.  Term
    weights are stored raw because they are allowed to be singular; the
    harness records per-term non-existence instead of rejecting them.
    Construction checks every matrix and weight under ``tol`` and stores
    them coerced, whether through :meth:`full`, :meth:`weights_only` or
    the constructor itself, so :func:`run_diagnostics` re-checks none of
    them.
    """

    base_a: np.ndarray
    base_m: Weight
    base_n: Weight
    terms: tuple
    kind: str
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig):
        if self.kind not in ("full", "weights-only"):
            raise ValueError(f"kind must be 'full' or 'weights-only', got {self.kind!r}")
        am, mw, nw = _problem(self.base_a, self.base_m, self.base_n, tol)
        k, h = am.shape
        checked = []
        for i, (an, mn, nn) in enumerate(self.terms):
            # a term that carries the base matrix itself is coerced already
            anm = am if an is self.base_a else as_matrix(an)
            if anm.shape != am.shape:
                raise ValueError(f"term {i}: matrix shape {anm.shape} differs from base {am.shape}")
            mnm = _hermitian(mn, f"term {i} codomain weight", tol, k)
            checked.append((anm, mnm, _hermitian(nn, f"term {i} domain weight", tol, h)))
        if not checked:
            raise ValueError("a perturbation sequence needs at least one term")
        for name, value in (("base_a", am), ("base_m", mw), ("base_n", nw), ("terms", tuple(checked))):
            object.__setattr__(self, name, value)

    @classmethod
    def full(cls, a, m, n, terms, tol: ToleranceConfig = DEFAULT_TOL) -> "PerturbationSequence":
        """Sequence with varying matrices; terms are (A_n, M_n, N_n) triples."""
        return cls(a, m, n, terms, "full", tol)

    @classmethod
    def weights_only(cls, a, m, n, weight_pairs, tol: ToleranceConfig = DEFAULT_TOL) -> "PerturbationSequence":
        """Sequence moving only the weights; terms are (M_n, N_n) pairs."""
        return cls(a, m, n, tuple((a, mn, nn) for mn, nn in weight_pairs), "weights-only", tol)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class ContinuityDiagnostics:
    """Per-term proxy columns with tail-trend classifications.

    Columns, one value per term (operator norms, ``nan`` where the
    weighted inverse does not exist):

    - ``wmp_diff``: distance of the perturbed weighted inverse to the base one
    - ``wmp_norm``: norm of the perturbed weighted inverse
    - ``mp_norm``: norm of the perturbed Moore-Penrose inverse
    - ``proj_domain_diff``: distance between the domain projectors
    - ``proj_codomain_diff``: distance between the codomain projectors
    - ``mp_diff``: distance between the Moore-Penrose inverses

    ``equivalences_consistent`` records whether the convergence proxies
    and the boundedness proxies landed on the same side, which the theory
    demands.  ``n0`` is the first 1-based index from which every later
    term has an existing weighted inverse (``None`` if the final term has
    none).
    """

    columns: dict
    exists: list
    trends: dict
    equivalences_consistent: bool
    tail_start: int
    n0: int | None


def _tail_start(count: int) -> int:
    if count <= 1:
        return 0
    return min(count - 2, math.floor(count * (1.0 - TAIL_FRACTION)))


def _classify(values: np.ndarray, start: int, atol: float) -> str:
    tail = values[start:]
    tail = tail[np.isfinite(tail)]
    if tail.size == 0:
        return "undefined"
    first, last = float(tail[0]), float(tail[-1])
    if last <= atol:
        return "decreasing"
    if first == 0.0:
        return "diverging"
    ratio = last / first
    if ratio >= DIVERGENCE_FACTOR:
        return "diverging"
    if ratio <= 0.9:
        return "decreasing"
    return "bounded"


def run_diagnostics(seq: PerturbationSequence, tol: ToleranceConfig = DEFAULT_TOL) -> ContinuityDiagnostics:
    """Evaluate all continuity proxies over a perturbation sequence.

    The base weighted inverse must exist; per-term failures (singular
    weights or singular factors) are recorded as non-existence rather
    than raised.
    """
    return _diagnostics(seq, _split_basis(seq.base_a, tol), tol)


def _diagnostics(seq: PerturbationSequence, sp: SplitBasis, tol: ToleranceConfig) -> ContinuityDiagnostics:
    """:func:`run_diagnostics` with the split ``sp`` of the checked base matrix made already.

    One split per distinct matrix, and the columns that depend on it alone
    once per split: every term of a weights-only run reuses A's.
    """
    a_prev = seq.base_a
    base_inv = _required_on_split(sp, seq.base_m, sp.v_0.conj().T @ seq.base_n.matrix, tol)[1]
    mp0, p_dom0, p_cod0 = _projections(sp)

    count = len(seq.terms)
    cols = {
        name: np.full(count, np.nan)
        for name in ("wmp_diff", "wmp_norm", "mp_norm", "proj_domain_diff", "proj_codomain_diff", "mp_diff")
    }
    exists = []
    split_norms = None
    for i, (an, mn, nn) in enumerate(seq.terms):
        if not np.array_equal(an, a_prev):
            a_prev, sp, split_norms = an, _split_basis(an, tol), None
        if split_norms is None:
            mpn, p_dom, p_cod = _projections(sp)
            split_norms = [operator_norm(d) for d in (mpn, mpn - mp0, p_dom - p_dom0, p_cod - p_cod0)]
        for name, value in zip(_SPLIT_COLUMNS, split_norms):
            cols[name][i] = value
        try:
            inverse = _inverse_on_split(sp, Weight(mn, tol), sp.v_0.conj().T @ Weight(nn, tol).matrix, tol)[1]
        except WeightError:
            inverse = None
        exists.append(inverse is not None)
        if inverse is not None:
            cols["wmp_diff"][i] = operator_norm(inverse - base_inv)
            cols["wmp_norm"][i] = operator_norm(inverse)

    start = _tail_start(count)
    trends = {name: _classify(vals, start, tol.verify_atol) for name, vals in cols.items()}
    diffs_converge = all(trends[name] == "decreasing" for name in _DIFF_COLUMNS)
    norms_bounded = all(trends[name] != "diverging" for name in _NORM_COLUMNS)
    consistent = diffs_converge == norms_bounded

    n0 = None
    if exists and exists[-1]:
        n0 = count
        while n0 > 1 and exists[n0 - 2]:
            n0 -= 1
    return ContinuityDiagnostics(
        columns=cols,
        exists=exists,
        trends=trends,
        equivalences_consistent=consistent,
        tail_start=start,
        n0=n0,
    )


def perturb_weights_only(a, m, n, weight_pairs, tol: ToleranceConfig = DEFAULT_TOL) -> ContinuityDiagnostics:
    """Run the harness for a sequence that moves only the weights.

    Terms may have singular weights or singular factors; ``n0`` in the
    result reports the first index from which everything stays
    invertible, matching the threshold in the weights-only continuity
    statement.
    """
    seq = PerturbationSequence.weights_only(a, m, n, weight_pairs, tol)
    return run_diagnostics(seq, tol)
