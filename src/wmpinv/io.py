"""Problem bundles and matrix files.

A bundle is a JSON object whose top-level keys are role names mapping to
matrix objects ``{"rows": r, "cols": c, "re": [...], "im": [...]}`` with
flat row-major entry lists (``im`` optional), plus the reserved keys
``tolerances`` (numeric overrides), ``schedule`` (list of positive
floats), and ``seed``.  JSON is written by ``json.dumps``: floats as the
shortest round-trip repr, one line, so a write/read cycle is bit
identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .linalg import ToleranceConfig, as_matrix

__all__ = [
    "BundleFormatError",
    "ProblemBundle",
    "matrix_to_obj",
    "matrix_from_obj",
    "load_bundle",
    "parse_bundle",
    "load_matrix",
    "read_matrix_market",
    "dump_json",
    "write_bundle",
    "geometric_schedule",
]


class BundleFormatError(ValueError):
    """The file parsed as JSON but does not follow the bundle layout."""


@dataclass
class ProblemBundle:
    """Named matrices plus optional numeric policy carried alongside."""

    matrices: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    schedule: np.ndarray | None = None
    seed: int | None = None


def matrix_to_obj(a) -> dict:
    """Matrix object with flat row-major entry lists."""
    m = as_matrix(a)
    obj = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.ravel().tolist(),
    }
    if np.any(m.imag != 0.0):
        obj["im"] = m.imag.ravel().tolist()
    return obj


def _as_float_vector(value, what: str) -> np.ndarray:
    # malformed content is a format error, not a numerical one
    try:
        out = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise BundleFormatError(f"{what} must be a flat list of numbers") from e
    if out.ndim != 1:
        raise BundleFormatError(f"{what} must be a flat list of numbers")
    return out


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "re"} <= set(obj):
        raise BundleFormatError("matrix object needs keys rows, cols, re")
    unknown = set(obj) - {"rows", "cols", "re", "im"}
    if unknown:
        raise BundleFormatError(f"matrix object has unrecognized keys {sorted(unknown)}")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    except (TypeError, ValueError) as e:
        raise BundleFormatError("rows and cols must be integers") from e
    if rows < 0 or cols < 0:
        raise BundleFormatError("matrix dimensions must be nonnegative")
    re = _as_float_vector(obj["re"], "re")
    if re.shape != (rows * cols,):
        raise BundleFormatError(
            f"re has {re.size} entries, expected rows*cols = {rows * cols} (flat row-major)"
        )
    out = re.astype(np.complex128)
    if "im" in obj:
        im = _as_float_vector(obj["im"], "im")
        if im.shape != (rows * cols,):
            raise BundleFormatError("im must match re in length")
        out = out + 1j * im
    return out.reshape(rows, cols)


def parse_bundle(text: str) -> ProblemBundle:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise BundleFormatError(f"invalid JSON: {e}") from e
    return _bundle_from_obj(raw)


def _bundle_from_obj(raw) -> ProblemBundle:
    if not isinstance(raw, dict):
        raise BundleFormatError("bundle must be a JSON object")
    bundle = ProblemBundle()
    for key, value in raw.items():
        if key == "tolerances":
            names = sorted(f.name for f in fields(ToleranceConfig))
            if not isinstance(value, dict) or not set(value) <= set(names):
                raise BundleFormatError(f"tolerances must be an object with keys from {names}")
            try:
                bundle.tolerances = {k: float(v) for k, v in value.items()}
            except (TypeError, ValueError) as e:
                raise BundleFormatError("tolerance values must be numbers") from e
            try:
                ToleranceConfig(**bundle.tolerances)
            except ValueError as e:
                raise BundleFormatError(str(e)) from e
        elif key == "schedule":
            sched = _as_float_vector(value, "schedule")
            if sched.size == 0:
                raise BundleFormatError("schedule must be a nonempty list of numbers")
            bundle.schedule = sched
        elif key == "seed":
            try:
                bundle.seed = int(value)
            except (TypeError, ValueError) as e:
                raise BundleFormatError("seed must be an integer") from e
        elif isinstance(value, dict):
            bundle.matrices[key] = matrix_from_obj(value)
        else:
            raise BundleFormatError(f"unrecognized bundle key {key!r}")
    return bundle


def load_bundle(path) -> ProblemBundle:
    return parse_bundle(Path(path).read_text())


def read_matrix_market(path) -> np.ndarray:
    """Dense array from a Matrix Market file (sparse input is densified)."""
    from scipy.io import mmread

    data = mmread(str(path))
    if hasattr(data, "todense"):
        data = np.asarray(data.todense())
    return as_matrix(np.atleast_2d(data))


def load_matrix(path) -> np.ndarray:
    """Single matrix from a JSON matrix object or a Matrix Market file.

    A bundle file holding exactly one matrix also works, so the output of
    ``--out`` can be bound straight back to a role.
    """
    p = Path(path)
    if p.suffix.lower() in {".mtx", ".mm"}:
        return read_matrix_market(p)
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise BundleFormatError(f"{p}: invalid JSON: {e}") from e
    if isinstance(obj, dict) and not {"rows", "cols", "re"} <= set(obj):
        bundle = _bundle_from_obj(obj)
        if len(bundle.matrices) == 1:
            return next(iter(bundle.matrices.values()))
        raise BundleFormatError(
            f"{p}: expected one matrix, found roles {sorted(bundle.matrices)}"
        )
    return matrix_from_obj(obj)


def _plain(obj):
    """``obj`` with NumPy values made Python ones, non-finite floats ``None`` and keys ``str``."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # an entry list of finite floats is plain already; the type set and the
        # sum run in C (a sum that overflows only sends the list down the walk)
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            return obj
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def dump_json(obj) -> str:
    """One line of JSON, non-finite floats as null; ``TypeError`` for anything else JSON lacks."""
    return json.dumps(_plain(obj), allow_nan=False) + "\n"


def write_bundle(path, matrices: dict, scalars: dict | None = None) -> None:
    """Write named matrices (plus optional scalar entries) as a bundle."""
    out: dict = {name: matrix_to_obj(mat) for name, mat in matrices.items()}
    for key, value in (scalars or {}).items():
        if key in out:
            raise ValueError(f"scalar key {key!r} collides with a matrix role")
        out[key] = value
    Path(path).write_text(dump_json(out))


def geometric_schedule(start: float, stop: float, count: int | None = None) -> np.ndarray:
    """Strictly monotone geometric schedule between finite positive endpoints.

    The default point count is one per decade spanned, with a floor of
    two points.
    """
    # written so that NaN fails
    if not (0.0 < start < np.inf and 0.0 < stop < np.inf):
        raise ValueError("schedule endpoints must be finite and positive")
    if start == stop:
        raise ValueError("schedule endpoints must differ")
    if count is None:
        # the ratio of the endpoints may overflow where their logarithms do not
        count = max(2, int(round(abs(np.log10(stop) - np.log10(start)))) + 1)
    if count < 2:
        raise ValueError("schedule needs at least two points")
    return np.geomspace(start, stop, count)
