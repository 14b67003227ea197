"""Benchmark entry point for wmpinv.

    python3 bench/run.py --workload pool --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Each workload runs in a fresh worker process (``worker.py``).  With
``--trace 0`` the worker is started ``SETUP_RUNS`` times in a row: the
first ones only set up, the last one also runs the timed closed loop.
``setup_s`` is the median, over those starts, of the time from spawning
the process to the first timed call, so it includes interpreter start,
``import wmpinv``, input generation, bundle writing and warm-up.  With
``--trace 1`` one worker runs half the time untraced and half traced and
reports the per-layer figures.

Every metric is printed as ``name value unit``; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload both ways and ends
with one JSON object whose metric names carry a ``<workload>:`` prefix.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pool", "dense", "limits", "cli-verdicts")
SETUP_RUNS = 5
# time allowed for one worker's set-up, and for its checks after the loop
SETUP_ALLOWANCE_S = 20.0
CHECK_ALLOWANCE_S = 30.0


def now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # worker's time stamp can be set against the spawn time taken here
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = now()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"error: worker exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_raw_s"] = report["setup_done"] - spawned
    report["setup_s"] = report["setup_raw_s"] * report["setup_factor"]
    return report


def run_one(args, deadline: float) -> dict:
    if args.trace:
        return start_worker(args, False, deadline)
    setups = [start_worker(args, True, deadline) for _ in range(SETUP_RUNS - 1)]
    report = start_worker(args, False, deadline)
    setups.append(report)
    for out, key in ((report["metrics"], "setup_s"), (report["raw"], "setup_raw_s")):
        out["setup_s"] = {"value": statistics.median(r[key] for r in setups), "unit": "s"}
    return report


def show(prefix: str, report: dict) -> None:
    for name, m in report["metrics"].items():
        line = f"{prefix}{name} {m['value']:.6g} {m['unit']}"
        if name in report["raw"]:
            line += f"  (as measured: {report['raw'][name]['value']:.6g} {m['unit']})"
        print(line)
    rate = report["failed"] / report["attempted"]
    print(f"{prefix}fail_rate {rate:.6g} ratio ({report['failed']}/{report['attempted']} calls)")
    for why in report["reasons"]:
        print(f"{prefix}check failed: {why}", file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    # compile once up front so that no worker's set-up pays for writing bytecode
    compileall.compile_dir(ROOT / "src" / "wmpinv", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    # the workers of one run_one call, all set-ups and one loop, must end by then
    budget = SETUP_RUNS * SETUP_ALLOWANCE_S + args.seconds + CHECK_ALLOWANCE_S

    if args.workload != "all":
        report = run_one(args, now() + budget)
        show("", report)
        final = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
                report = run_one(sub, now() + budget)
                show(f"{name}:", report)
                final["correct"] = final["correct"] and report["correct"]
                final["attempted"] += report["attempted"]
                final["failed"] += report["failed"]
                for metric, value in report["metrics"].items():
                    final["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
