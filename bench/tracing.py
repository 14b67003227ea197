"""Spans around wmpinv's public functions and the numpy.linalg entry points.

The wrappers live here, outside the library: ``install`` replaces each
traced function in every ``wmpinv`` module that looks it up by name
(``core`` imports ``condition_number`` into its own namespace, for
example), plus ``Weight.__init__`` and the ``numpy.linalg`` entry points
the library calls.  ``uninstall`` puts the originals back.  A span is
recorded only while a workload call is open, so set-up and the
reference checks leave no trace.

Spans stay in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np

# (module, attribute) pairs wrapped under the span name "<module>.<attribute>"
LIBRARY = (
    ("linalg", "svd_factor"),
    ("linalg", "condition_number"),
    ("linalg", "solve_linear"),
    ("linalg", "operator_norm"),
    ("linalg", "mp_inverse"),
    ("core", "wmp_inverse"),
    ("core", "wmp_exists"),
    ("core", "verify_weighted_penrose"),
    ("limits", "omega_weight"),
    ("limits", "limit_t_to_zero"),
    ("limits", "limit_lambda_to_inf"),
    ("io", "load_bundle"),
    ("io", "dump_json"),
    ("cli", "main"),
)
# numpy.linalg entry point -> decomposition counter it feeds
LAPACK = {
    "svd": "lapack.svd",
    "eigh": "lapack.eigh",
    "eigvalsh": "lapack.eigh",
    "lstsq": "lapack.lstsq",
    "inv": "lapack.inv",
    "norm": "lapack.norm2",
}
DECOMPOSITIONS = ("svd", "norm2", "eigh", "lstsq", "inv")
WEIGHT = "weights.Weight"
TIMED_LAPACK = ("svd", "lstsq", "eigh")
# direct children of a limit trace that compute its target, not its points
TARGET_STAGE = ("core.wmp_inverse", "linalg.svd_factor", "linalg.mp_inverse", "limits.omega_weight")
LIMIT_TRACES = ("limits.limit_t_to_zero", "limits.limit_lambda_to_inf")
# entry points called once per workload call: their count says nothing
SELF_TIME_ONLY = LIMIT_TRACES + ("cli.main", "core.wmp_inverse", "core.wmp_exists")


class Tracer:
    """Collects spans ``(name, start, end, parent, call)``; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.call = None
        self._patches = []

    def begin_call(self, call: int) -> None:
        self.call = call

    def end_call(self) -> None:
        self.call = None

    def wrap(self, name, fn, when=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.call is None or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.call)

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, api) -> None:
        owners = {mod: importlib.import_module(f"{api.__name__}.{mod}") for mod, _ in LIBRARY}
        modules = [m for k, m in sys.modules.items() if k == "wmpinv" or k.startswith("wmpinv.")]
        for mod, attr in LIBRARY:
            orig = getattr(owners[mod], attr)
            traced = self.wrap(f"{mod}.{attr}", orig)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, traced)
        self._patch(api.Weight, "__init__", self.wrap(WEIGHT, api.Weight.__init__))
        for attr, name in LAPACK.items():
            when = _is_ord2 if attr == "norm" else None
            self._patch(np.linalg, attr, self.wrap(name, getattr(np.linalg, attr), when))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        """Dump spans as ``{"names": [...], "spans": [[name, start_s, end_s, parent, call]]}``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(s - t0, 7), round(e - t0, 7), p, c] for n, s, e, p, c in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"names": names, "spans": rows}, f, separators=(",", ":"))


def _is_ord2(args, kwargs) -> bool:
    # operator_norm runs its SVD inside numpy.linalg.norm, out of the svd wrapper's sight
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return order == 2


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for name, s, e, parent, _ in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [(e - s) - _union_length(children[i]) for i, (_, s, e, _, _) in enumerate(spans)]


def layer_metrics(spans, calls: int, points: int, scale) -> dict:
    """Per-layer figures normalised per workload call, named as in BENCHMARK.json.

    ``points`` is the total number of limit-schedule points evaluated by
    the ``calls`` traced workload calls (0 when no limit was traced), and
    ``scale[c]`` converts the times of workload call ``c`` to reference
    speed.
    """
    selfs = self_times(spans)
    count: dict = {}
    self_s: dict = {}
    for (name, _, _, _, call), st in zip(spans, selfs):
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st * scale[call]

    out = {}

    def add(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    per_call = 1.0 / calls
    for name in [WEIGHT] + [f"{m}.{a}" for m, a in LIBRARY]:
        if name not in SELF_TIME_ONLY:
            add(f"{name}.calls", count.get(name, 0) * per_call, "count/call")
        add(f"{name}.self_ms", self_s.get(name, 0.0) * 1e3 * per_call, "ms/call")
    for kind in DECOMPOSITIONS:
        add(f"lapack.{kind}.calls", count.get(f"lapack.{kind}", 0) * per_call, "count/call")
    add(
        "lapack.decomp.calls",
        sum(count.get(f"lapack.{k}", 0) for k in DECOMPOSITIONS) * per_call,
        "count/call",
    )
    for kind in TIMED_LAPACK:
        add(f"lapack.{kind}.self_ms", self_s.get(f"lapack.{kind}", 0.0) * 1e3 * per_call, "ms/call")

    point_s = 0.0
    if points:
        children = [[] for _ in spans]
        for name, s, e, parent, _ in spans:
            if parent >= 0:
                children[parent].append((name, e - s))
        for i, (name, s, e, _, call) in enumerate(spans):
            if name in LIMIT_TRACES:
                target = sum(d for n, d in children[i] if n in TARGET_STAGE)
                point_s += ((e - s) - target) * scale[call]
    add("limits.per_point_ms", point_s * 1e3 / points if points else 0.0, "ms")
    return out
