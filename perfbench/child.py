"""One workload pass in a fresh process: import the CLI, run each job in order.

Usage: python3 child.py SPEC.json RESULT.json

SPEC.json holds {"jobs": [[name, argv], ...], "spans": path or null,
"calibration": [loop name, ...]}. With a spans path the package's public functions are traced and the spans written
there. The result records the import time, each job's exit code and time,
the wall time of all jobs, the peak RSS of this process and the versions.

The process also times the workload's calibration loops right after the
import and after each job. They are the benchmark's own code, so their time
changes only with the speed the host gives this process at that moment;
run.py divides the program's times by it (see ``calibrate``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter


def blas_info() -> dict:
    """numpy's BLAS name and version and, for OpenBLAS, its thread count."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: the thread count stays unknown
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    info["blas_threads"] = None
    return info


def interpreter_loop() -> None:
    """2x2 complex products and integer sums: tiny numpy calls and interpreter steps."""
    import numpy as np

    product = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(20_000):
        product = product @ flip
    total = 0
    for i in range(400_000):
        total += i * i


def blas_loop() -> None:
    """Products of 512 x 512 matrices, which BLAS runs on all its threads."""
    import numpy as np

    matrix = np.linspace(0.0, 1.0, 512 * 512).reshape(512, 512)
    for _ in range(20):
        matrix @ matrix


# Each loop, and its time on the 2-vCPU Xeon VM the benchmark was written on,
# where a vCPU's fast and slow states give about 0.07 s and 0.11 s for the
# interpreter loop and 0.065 s and 0.1 s for the BLAS loop.
CALIBRATION_LOOPS = {"interpreter": (interpreter_loop, 0.1), "blas": (blas_loop, 0.08)}


def calibrate(loops: list) -> float:
    """Seconds to run the named calibration loops once each."""
    start = perf_counter()
    for name in loops:
        CALIBRATION_LOOPS[name][0]()
    return perf_counter() - start


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = perf_counter()
    import hamsearch.cli as cli

    setup_s = perf_counter() - start
    calibration_s = [calibrate(spec["calibration"])]
    tracer = None
    if spec["spans"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    jobs = []
    for name, argv in spec["jobs"]:
        job_start = perf_counter()
        try:
            code, error = cli.main(list(argv)), None
        except Exception:  # a crashing job counts as failed; the pass goes on
            code, error = None, traceback.format_exc()
        jobs.append({"name": name, "exit_code": code, "seconds": perf_counter() - job_start,
                     "error": error})
        calibration_s.append(calibrate(spec["calibration"]))
    if tracer is not None:
        tracer.save(spec["spans"])

    result = {
        "package": os.path.dirname(cli.__file__),
        "setup_s": setup_s,
        "wall_s": sum(job["seconds"] for job in jobs),
        "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),  # what the nproc command reports
        **blas_info(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
