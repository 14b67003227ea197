"""Problem bundles and matrix files.

A bundle is a JSON object whose top-level keys are role names mapping to
matrix objects ``{"rows": r, "cols": c, "re": [...], "im": [...]}`` with
flat row-major entry lists (``im`` optional), plus the reserved keys
``tolerances`` (numeric overrides), ``schedule`` (list of finite positive
floats), and ``seed``.  Bundles, reports and ``--out`` files are the text of
``json.dumps``: floats as the shortest round-trip repr, one line, so a
write/read cycle is bit identical.  ``orjson`` writes the entries of float
lists wherever its token is that text (``dump_json``).

Bundles and JSON role files are read by ``orjson``, which parses them
several times faster than ``json`` to the same values.  ``json`` reads a
document again where ``orjson`` refuses it (``NaN`` and ``Infinity``
literals, numbers that overflow to infinity, lone surrogates, malformed
text, whose ``invalid JSON: ...`` message is ``json``'s), where an
integer field (``seed``, ``rows``, ``cols``) comes back a float, which is
how ``orjson`` reads integer literals outside the 64-bit range, and where
the document is too deeply nested for ``orjson`` to parse safely.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .linalg import ToleranceConfig, _schedule_values, as_matrix

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


# malformed content, an integer past the float range included, is a format error, not a numerical one
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _as_float_vector(value, what: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=np.float64)
    except _BAD_VALUE as e:
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
    rows, cols = obj["rows"], obj["cols"]
    # a JSON integer: a bool is an int to Python, and an integral float is refused too
    if type(rows) is not int or type(cols) is not int:
        raise BundleFormatError("rows and cols must be integers")
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
    try:
        return out.reshape(rows, cols)
    except ValueError as e:
        raise BundleFormatError(f"a {rows} x {cols} matrix is too large") from e


# orjson 3.8 has no depth limit: near 55 000 nested objects it overflows an
# 8 MiB C stack and kills the process, where json raises RecursionError from
# sys.getrecursionlimit() levels less the caller's depth; a document with
# this many brackets nests no deeper, and a bundle needs three per matrix
_ORJSON_MAX_BRACKETS = 128


def _loads(text: str):
    """The value of a JSON document, as ``json.loads`` reads it.

    ``orjson`` parses it, imported here so that importing the package does
    not load it.  ``json`` parses instead where ``orjson`` raises, where an
    integer field came back a float (see the module docstring), and where
    the text opens more than ``_ORJSON_MAX_BRACKETS`` arrays and objects.
    """
    import orjson

    opened = 0  # [ and { found one at a time, up to the first one past the limit
    for bracket in "[{":
        i = text.find(bracket)
        while i >= 0 and opened <= _ORJSON_MAX_BRACKETS:
            opened += 1
            i = text.find(bracket, i + 1)
    if opened > _ORJSON_MAX_BRACKETS:
        return json.loads(text)
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)
    return json.loads(text) if _float_in_integer_field(obj) else obj


def _float_in_integer_field(obj) -> bool:
    """Whether a ``seed``, or a ``rows`` or ``cols`` of a matrix object or of a bundle's role, is a float."""
    if not isinstance(obj, dict):
        return False
    if isinstance(obj.get("seed"), float):
        return True
    return any(
        isinstance(m.get(k), float)
        for m in (obj, *(v for v in obj.values() if isinstance(v, dict)))
        for k in ("rows", "cols")
    )


def parse_bundle(text: str) -> ProblemBundle:
    try:
        raw = _loads(text)
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
            if any(isinstance(v, bool) for v in value.values()):
                raise BundleFormatError("tolerance values must be numbers")
            try:
                bundle.tolerances = {k: float(v) for k, v in value.items()}
            except _BAD_VALUE as e:
                raise BundleFormatError("tolerance values must be numbers") from e
            try:
                ToleranceConfig(**bundle.tolerances)
            except ValueError as e:
                raise BundleFormatError(str(e)) from e
        elif key == "schedule":
            # entries of re and im are not scanned so: they are the bulk of a bundle
            if isinstance(value, list) and any(isinstance(v, bool) for v in value):
                raise BundleFormatError("schedule must be a flat list of numbers")
            try:
                bundle.schedule = _schedule_values(_as_float_vector(value, "schedule"))
            except ValueError as e:
                raise BundleFormatError(str(e)) from e
        elif key == "seed":
            if type(value) is not int:
                raise BundleFormatError("seed must be an integer")
            bundle.seed = value
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
        obj = _loads(p.read_text())
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


def _plain(obj, lists=None):
    """``obj`` with NumPy values made Python ones, non-finite floats ``None`` and keys ``str``."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _plain(v, lists) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # an entry list of finite floats is plain already, or goes to lists as [NaN, its index];
        # the type set and the sum run in C (a sum that overflows only sends the list down the walk)
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            if lists is None:
                return obj
            lists.append(obj)
            return [math.nan, len(lists) - 1]
        return [_plain(v, lists) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist(), lists)
    return obj


def _float_list_text(values) -> str:
    """``json.dumps(values)`` for finite floats, with ``orjson``'s token wherever ``repr`` writes the same.

    Both write the shortest round-trip digits, and ``repr`` writes them
    positionally for zero and for ``1e-4 <= |x| < 1e16``: there a positional
    token (a ``.``, no ``e``) is kept, and ``repr`` writes every other entry, or
    every entry where the tokens do not pair off with the entries.
    """
    import orjson

    tokens = orjson.dumps(values)[1:-1].decode().split(",")
    if len(tokens) != len(values):
        tokens = [""] * len(values)
    entries = [t if "." in t and "e" not in t and (1e-4 <= abs(x) < 1e16 or x == 0.0) else repr(x)
               for t, x in zip(tokens, values)]
    return "[" + ", ".join(entries) + "]"


# a string of json.dumps, or a placeholder of _plain: _plain leaves no other NaN
_STRING_OR_PLACEHOLDER = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|\[NaN, (\d+)\]')


def dump_json(obj) -> str:
    """One line of JSON, non-finite floats as null; ``TypeError`` for anything else JSON lacks.

    The text is ``json.dumps(_plain(obj), allow_nan=False)``; ``_float_list_text`` writes its lists of finite floats.
    """
    lists = []
    text = json.dumps(_plain(obj, lists))
    if lists:
        texts = [_float_list_text(values) for values in lists]
        text = _STRING_OR_PLACEHOLDER.sub(lambda m: texts[int(m[1])] if m[1] else m[0], text)
    return text + "\n"


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
