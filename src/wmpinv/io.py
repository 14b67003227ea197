"""Problem bundles and matrix files.

A bundle is a JSON object whose top-level keys are role names mapping to
matrix objects ``{"rows": r, "cols": c, "re": [...], "im": [...]}`` with
flat row-major entry lists (``im`` optional), plus the reserved keys
``tolerances`` (numeric overrides), ``schedule`` (list of finite positive
floats), and ``seed``.  Bundles, reports and ``--out`` files are the text of
``json.dumps``: floats as the shortest round-trip repr, one line, so a
write/read cycle is bit identical, but for one case: no ``im`` is written
where every imaginary entry is +-0, so an imaginary ``-0.0`` reads back
``+0.0``.  The writer takes each entry list of finite floats as one
float64 array, a matrix's ``re`` and ``im`` straight from the matrix:
one ``orjson`` call writes the array, and its token stands wherever it is
the text of ``json.dumps`` (``_float_array_text``).

Bundles and JSON role files are read by ``orjson``, which parses them
several times faster than ``json`` to the same values.  ``json`` reads a
document again where ``orjson`` refuses it (``NaN`` and ``Infinity``
literals, numbers that overflow to infinity, lone surrogates, malformed
text, whose ``invalid JSON: ...`` message is ``json``'s), where an
integer field (``seed``, ``rows``, ``cols``) comes back a float, which is
how ``orjson`` reads integer literals outside the 64-bit range, and where
the document is too deeply nested for ``orjson`` to parse safely.  A
non-finite entry is a format error.  Only a document that ``json`` alone
parsed is scanned for one: ``orjson`` refuses every literal that is not a
finite double, and the library's own check of each matrix it is given is
then the one scan of the entries.
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
    "matrix_to_arrays",
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


def matrix_to_arrays(a) -> dict:
    """``matrix_to_obj`` with float64 arrays for entry lists, which ``dump_json`` writes as they are."""
    m = as_matrix(a)
    obj = {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "re": m.real.ravel()}
    if np.any(m.imag != 0.0):
        obj["im"] = m.imag.ravel()
    return obj


def matrix_to_obj(a) -> dict:
    """Matrix object with flat row-major entry lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in matrix_to_arrays(a).items()}


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


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, refused as a format error unless every entry is finite."""
    if not np.isfinite(values).all():
        raise BundleFormatError(f"{what} entries must be finite")
    return values


def matrix_from_obj(obj) -> np.ndarray:
    return _matrix_from_obj(obj, finite=False)


def _matrix_from_obj(obj, finite: bool) -> np.ndarray:
    """The matrix of ``obj``, its entries scanned for non-finite values unless ``finite``."""
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
    out = (re if finite else _finite(re, "re")).astype(np.complex128)
    if "im" in obj:
        im = _as_float_vector(obj["im"], "im")
        if im.shape != (rows * cols,):
            raise BundleFormatError("im must match re in length")
        out = out + 1j * (im if finite else _finite(im, "im"))
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
    """The value of a JSON document, as ``json.loads`` reads it."""
    return _read(text)[0]


def _read(text: str) -> tuple:
    """The value of a JSON document, as ``json.loads`` reads it, and whether ``orjson`` parsed it.

    ``orjson`` parses it, imported here so that importing the package does
    not load it.  ``json`` parses instead where ``orjson`` raises, where an
    integer field came back a float (see the module docstring), and where
    the text opens more than ``_ORJSON_MAX_BRACKETS`` arrays and objects.
    Every float of a document that ``orjson`` parsed is finite, whichever
    parser's value is returned.
    """
    import orjson

    opened = 0  # [ and { found one at a time, up to the first one past the limit
    for bracket in "[{":
        i = text.find(bracket)
        while i >= 0 and opened <= _ORJSON_MAX_BRACKETS:
            opened += 1
            i = text.find(bracket, i + 1)
    if opened > _ORJSON_MAX_BRACKETS:
        return json.loads(text), False
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text), False
    return (json.loads(text) if _float_in_integer_field(obj) else obj), True


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
        raw, finite = _read(text)
    except json.JSONDecodeError as e:
        raise BundleFormatError(f"invalid JSON: {e}") from e
    return _bundle_from_obj(raw, finite)


def _bundle_from_obj(raw, finite: bool = False) -> ProblemBundle:
    """The bundle of a parsed document; ``finite`` skips the scan of the matrix entries (see ``_read``)."""
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
            bundle.matrices[key] = _matrix_from_obj(value, finite)
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
    data = np.atleast_2d(_finite(data, f"{path}: Matrix Market"))
    return np.ascontiguousarray(data, dtype=np.complex128)


def load_matrix(path) -> np.ndarray:
    """Single matrix from a JSON matrix object or a Matrix Market file.

    A bundle file holding exactly one matrix also works, so the output of
    ``--out`` can be bound straight back to a role.
    """
    p = Path(path)
    if p.suffix.lower() in {".mtx", ".mm"}:
        return read_matrix_market(p)
    try:
        obj, finite = _read(p.read_text())
    except json.JSONDecodeError as e:
        raise BundleFormatError(f"{p}: invalid JSON: {e}") from e
    if isinstance(obj, dict) and not {"rows", "cols", "re"} <= set(obj):
        bundle = _bundle_from_obj(obj, finite)
        if len(bundle.matrices) == 1:
            return next(iter(bundle.matrices.values()))
        raise BundleFormatError(
            f"{p}: expected one matrix, found roles {sorted(bundle.matrices)}"
        )
    return _matrix_from_obj(obj, finite)


def _plain(obj, arrays=None):
    """``obj`` with NumPy values made Python ones, non-finite floats ``None`` and keys ``str``.

    Given ``arrays``, each entry list of finite floats goes there as a float64
    array, a list or tuple turned into one, and leaves ``[NaN, its index]``.
    """
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _plain(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # the type set and the sum run in C (a sum that overflows only sends the list down the walk)
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            if arrays is None:
                return obj
            arrays.append(np.array(obj, dtype=np.float64))
            return [math.nan, len(arrays) - 1]
        return [_plain(v, arrays) for v in obj]
    if isinstance(obj, np.ndarray):
        if arrays is not None and obj.dtype == np.float64 and obj.ndim == 1 and np.isfinite(obj).all():
            arrays.append(obj)
            return [math.nan, len(arrays) - 1]
        return _plain(obj.tolist(), arrays)
    return obj


def _float_array_text(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` for a float64 vector of finite entries, from one ``orjson`` call.

    Both write the shortest round-trip digits, and ``repr`` writes them
    positionally for zero and for ``1e-4 <= |x| < 1e16``.  There ``orjson``'s
    token stands where it is positional (digits, a ``-`` and one ``.``), and
    ``repr`` writes every other entry, or every entry where the tokens do not
    pair off with the entries.  An ``orjson`` that refuses the array raises
    ``TypeError``, as its ``JSONEncodeError`` is, and writes no token.
    """
    import orjson

    n = values.size
    values = np.ascontiguousarray(values)
    mag = np.abs(values)
    keep = (mag < 1e16) & ((mag >= 1e-4) | (mag == 0.0))
    body = b""
    if keep.any():
        try:
            body = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        except TypeError:
            pass  # no tokens: repr writes every entry
        # what a token holds besides digits and "-": a "." alone where it is positional
        marks = body.translate(None, b"-0123456789")
        if marks != b".," * (n - 1) + b".":
            keep &= _positional_tokens(marks, n)
    if keep.all():
        return "[" + body.decode().replace(",", ", ") + "]"
    # a kept token is one of n tokens
    tokens = body.decode().split(",") if keep.any() else [""] * n
    for i, x in zip(np.flatnonzero(~keep).tolist(), values[~keep].tolist()):
        tokens[i] = repr(x)
    return "[" + ", ".join(tokens) + "]"


def _positional_tokens(marks: bytes, n: int) -> np.ndarray:
    """Per token, whether its marks (see ``_float_array_text``) are one ``.``; none where the tokens are not ``n``."""
    marks = np.frombuffer(marks, np.uint8)
    comma = marks == ord(",")
    if np.count_nonzero(comma) != n - 1:
        return np.zeros(n, dtype=bool)
    token = np.cumsum(comma)  # the token of each mark, a comma counted to the token it opens
    dots = np.bincount(token[marks == ord(".")], minlength=n)
    others = np.bincount(token[~comma & (marks != ord("."))], minlength=n)
    return (dots == 1) & (others == 0)


# a string of json.dumps, or a placeholder of _plain: _plain leaves no other NaN
_STRING_OR_PLACEHOLDER = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|\[NaN, (\d+)\]')


def dump_json(obj) -> str:
    """One line of JSON, non-finite floats as null; ``TypeError`` for anything else JSON lacks.

    The text is ``json.dumps(_plain(obj), allow_nan=False)``; ``_float_array_text`` writes its lists of finite floats.
    """
    arrays = []
    text = json.dumps(_plain(obj, arrays))
    if arrays:
        texts = [_float_array_text(values) for values in arrays]
        text = _STRING_OR_PLACEHOLDER.sub(lambda m: texts[int(m[1])] if m[1] else m[0], text)
    return text + "\n"


def write_bundle(path, matrices: dict, scalars: dict | None = None) -> None:
    """Write named matrices (plus optional scalar entries) as a bundle."""
    out: dict = {name: matrix_to_arrays(mat) for name, mat in matrices.items()}
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
