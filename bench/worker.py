"""One workload in one process: set-up, timed or traced calls, checks.

Started by ``run.py``; prints one JSON object as its last stdout line.
OpenBLAS and OpenMP are pinned to one thread before NumPy loads, and the
loop is a single closed-loop client: the next call starts when the
previous one has returned.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import REFERENCE_PROBE_S, Speedometer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# a run makes at least this many timed calls, so that ten lie beyond p90
MIN_CALLS = 100
WARMUP_CALLS = 8


def import_library():
    """Import wmpinv from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "wmpinv" / "__init__.py").is_file():
        sys.exit(f"error: no wmpinv sources under {src}")
    sys.path.insert(0, str(src))
    import wmpinv
    import wmpinv.cli  # noqa: F401  (the cli-verdicts workload calls it)

    if Path(wmpinv.__file__).resolve().parent != (src / "wmpinv").resolve():
        sys.exit(f"error: imported wmpinv from {wmpinv.__file__}, not from {src}")
    return wmpinv


class Outcomes:
    """Distinct outputs per instance with how often each was seen."""

    def __init__(self, wl):
        self.wl = wl
        self.seen: dict = {}
        self.attempted = 0
        self.raised: list = []

    def record(self, i: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.raised.append(f"call {i}: {type(out).__name__}: {out}")
            return
        key, payload = self.wl.result(i, out)
        entry = self.seen.setdefault((i % self.wl.cycle, key), [payload, 0])
        entry[1] += 1

    def check(self) -> tuple[int, list]:
        failed = len(self.raised)
        reasons = list(self.raised)
        for (i, _), (payload, n) in self.seen.items():
            why = self.wl.check(i, payload)
            if why is not None:
                failed += n
                reasons.append(f"instance {i}: {why}")
        return failed, reasons


def one_call(wl, i: int, outcomes: Outcomes, speed: Speedometer) -> tuple[float, float, float]:
    """(start, call time, call time plus bookkeeping) of one call."""
    speed.tick()
    start = time.perf_counter()
    try:
        out = wl.call(i)
    except Exception as e:  # a raising call is a failed call, not a crashed run
        out = e
    elapsed = time.perf_counter() - start
    outcomes.record(i, out)
    return start, elapsed, time.perf_counter() - start


def timed_phase(wl, seconds: float, outcomes: Outcomes, speed: Speedometer) -> tuple[dict, dict]:
    """Gated end-to-end figures (at reference speed) and the same figures as measured."""
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        calls.append(one_call(wl, len(calls), outcomes, speed))
    speed.probe()
    speed.probe()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start, lat, busy = (np.array(c) for c in zip(*calls))
    factor = np.array([speed.factor(t) for t in start])
    metrics = {}
    raw = {}
    for out, scale in ((metrics, factor), (raw, 1.0)):
        p50, p90 = np.percentile(lat * scale * 1e3, [50, 90])
        out["latency_ms.p50"] = {"value": float(p50), "unit": "ms"}
        out["latency_ms.p90"] = {"value": float(p90), "unit": "ms"}
        out["throughput_per_s"] = {"value": len(calls) / float(np.sum(busy * scale)), "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    return metrics, raw


def whole_cycles(wl, seconds: float, outcomes: Outcomes, speed: Speedometer, tracer=None):
    """Full passes over the instances until ``seconds`` have passed.

    Returns each call's (start, call time).
    """
    calls = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        for _ in range(wl.cycle):
            if tracer is not None:
                tracer.begin_call(len(calls))
            start, elapsed, _ = one_call(wl, len(calls), outcomes, speed)
            if tracer is not None:
                tracer.end_call()
            calls.append((start, elapsed))
    return calls


def traced_phase(api, wl, seconds: float, outcomes: Outcomes, speed: Speedometer, out_path) -> dict:
    import tracing

    plain = whole_cycles(wl, seconds / 2, outcomes, speed)
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        traced = whole_cycles(wl, seconds / 2, outcomes, speed, tracer)
    finally:
        tracer.uninstall()
    speed.probe()
    speed.probe()

    def busy(calls):
        return sum(e * speed.factor(s) for s, e in calls) / len(calls)

    scale = [speed.factor(s) for s, _ in traced]
    points = sum(wl.points(i) for i in range(len(traced))) if hasattr(wl, "points") else 0
    metrics = tracing.layer_metrics(tracer.spans, len(traced), points, scale)
    metrics["trace.overhead_ratio"] = {"value": busy(traced) / busy(plain), "unit": "ratio"}
    tracer.write(out_path)
    return metrics


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    api = import_library()
    import workloads

    scratch = OUT / f"bundles-{os.getpid()}"
    speed = Speedometer()
    # the speed at the start of set-up; the warm-up calls and the probes
    # after set-up add the rest, and their median brings set-up time to
    # reference speed (probes after set-up alone spread it more)
    for _ in range(5):
        speed.probe()
    try:
        wl = workloads.build(args.workload, api, args.seed, scratch)
        warm = Outcomes(wl)
        for i in range(min(wl.cycle, WARMUP_CALLS)):
            one_call(wl, i, warm, speed)
        report = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
        for _ in range(5):
            speed.probe()
        report["setup_factor"] = REFERENCE_PROBE_S / statistics.median(speed.took)
        if not args.setup_only:
            outcomes = Outcomes(wl)
            if args.trace:
                OUT.mkdir(exist_ok=True)
                path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
                report["metrics"] = traced_phase(api, wl, args.seconds, outcomes, speed, path)
                report["raw"] = {}
            else:
                report["metrics"], report["raw"] = timed_phase(wl, args.seconds, outcomes, speed)
            failed, reasons = outcomes.check()
            warm_failed, warm_reasons = warm.check()
            report.update(
                attempted=outcomes.attempted,
                failed=failed,
                correct=failed == 0 and warm_failed == 0,
                reasons=(warm_reasons + reasons)[:20],
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
