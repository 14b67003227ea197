"""One-shot size sweep of ``wmp_inverse`` with a stage table; not a gated workload.

    python3 bench/sweep.py

Square n x n problems of rank 3n/4 with positive definite weights built
beforehand, n in {4, 64, 256}, each timed best of 5, once with OpenBLAS
on one thread (the benchmark's setting) and once on two.  At the largest
n the median of five traced calls splits the time into stages.  Writes
``sweep.json`` next to this file, with the machine it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SIZES = (4, 64, 256)
REPEATS = 5


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Threads OpenBLAS actually uses, asked of the library NumPy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(threads: int) -> dict:
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    import numpy as np

    import tracing
    import wmpinv
    from speed import Speedometer
    from workloads import spectral_weight, well_spread

    rng = np.random.default_rng(0)
    record = {"machine": machine(), "best_ms": {}, "weights_ms": {}}
    speed = Speedometer()
    for _ in range(9):
        speed.probe()
    record["reference_probe_ms"] = 1e3 * float(np.median(speed.took))
    for n in SIZES:
        a, _, _ = well_spread(rng, n, n, 3 * n // 4)
        m_raw = spectral_weight(rng, n, positive=True)
        n_raw = spectral_weight(rng, n, positive=True)
        start = time.perf_counter()
        m, w = wmpinv.Weight(m_raw), wmpinv.Weight(n_raw)
        record["weights_ms"][str(n)] = 1e3 * (time.perf_counter() - start)
        wmpinv.wmp_inverse(a, m, w)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            wmpinv.wmp_inverse(a, m, w)
            times.append(time.perf_counter() - start)
        record["best_ms"][str(n)] = 1e3 * min(times)

    tracer = tracing.Tracer()
    tracer.install(wmpinv)
    try:
        for call in range(REPEATS):
            tracer.begin_call(call)
            wmpinv.wmp_inverse(a, m, w)
            tracer.end_call()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    selfs = tracing.self_times(spans)

    def median_ms(name, own=False):
        per_call = [0.0] * REPEATS
        for (nm, s, e, _, call), st in zip(spans, selfs):
            if nm == name:
                per_call[call] += st if own else e - s
        return 1e3 * float(np.median(per_call))

    record["stages_ms_at_n"] = SIZES[-1]
    record["stages_ms"] = {
        "call": median_ms("core.wmp_inverse"),
        "svd_of_a": median_ms("linalg.svd_factor"),
        # wmp_inverse's own time outside the traced functions: the projector
        # and factor products
        "building_r_and_l": median_ms("core.wmp_inverse", own=True),
        "cond_r_and_l": median_ms("linalg.condition_number"),
        "factor_solves": median_ms("linalg.solve_linear"),
        "penrose_verification": median_ms("core.verify_weighted_penrose"),
        "two_weight_constructions": record["weights_ms"][str(SIZES[-1])],
    }
    return record


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--threads":
        print(json.dumps(measure(int(sys.argv[2]))))
        return
    records = []
    for threads in (1, 2):
        out = subprocess.run(
            [sys.executable, __file__, "--threads", str(threads)],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        records.append(json.loads(out.strip().splitlines()[-1]))
    (BENCH / "sweep.json").write_text(json.dumps(records, indent=2) + "\n")
    for r in records:
        best = ", ".join(f"n={n}: {t:.3g} ms" for n, t in r["best_ms"].items())
        print(f"{r['machine']['blas_threads']} BLAS thread(s): {best}")
        for stage, t in r["stages_ms"].items():
            print(f"    {stage:26s} {t:8.2f} ms")


if __name__ == "__main__":
    main()
