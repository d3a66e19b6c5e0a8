"""Run the corebench CLI once in a fresh process and record what it cost.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``root`` (the checkout), ``argv`` (CLI arguments, or null to
import the package and exit, which warms the file cache and byte-code),
``m_max``, ``trace`` and ``out`` (where this process writes its record).
Times are CLOCK_MONOTONIC readings, which the parent process shares, so
the parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import spans


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (TypeError, KeyError):
        info = {"blas": None, "blas_version": None}
    info["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def metadata() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "COREBENCH_THREADS": os.environ.get("COREBENCH_THREADS"),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = (Path(spec["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import corebench
    if Path(corebench.__file__).resolve().parent.parent != src:
        print(f"corebench imported from {corebench.__file__}, not {src}", file=sys.stderr)
        return 3
    from corebench import bench, cli

    if spec["argv"] is None:
        record = {"meta": metadata()}
    else:
        recorder = spans.Recorder() if spec["trace"] else None
        first = spans.FirstCall()
        run = recorder.wrap("bench.main", cli.main) if recorder else cli.main
        t_main = time.monotonic()
        code = run(spec["argv"])
        t_end = time.monotonic()
        cpu_end = time.process_time()
        if code != 0:
            return code
        if first.wall is None:
            print("no construction call was seen", file=sys.stderr)
            return 3
        log_grid = getattr(bench, "log_grid", None)
        record = dict(
            t_first=first.wall,
            t_main=t_main,
            t_end=t_end,
            cpu_s=cpu_end - first.cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            grid=None if log_grid is None else [int(m) for m in log_grid(spec["m_max"])],
            absent=first.absent,
            trace=recorder.summary() if recorder else None,
        )
    with open(spec["out"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
