"""What the workload process ran on: cores, thread settings, BLAS and versions."""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NBIBD_THREADS")


def _openblas_runtime() -> dict[str, dict[str, str | int]]:
    """Config string and thread count of every OpenBLAS this process has loaded.

    numpy and scipy wheels each carry their own copy, with symbol names
    that differ in prefix and in the 64-bit-integer suffix.
    """
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line and line.rstrip().endswith(".so")})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        entry: dict[str, str | int] = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is None or threads is None or entry:
                    continue
                config.restype = ctypes.c_char_p
                config.argtypes = []
                threads.restype = ctypes.c_int
                threads.argtypes = []
                entry = {"config": config().decode(), "threads": int(threads())}
        found[os.path.basename(path)] = entry
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_config(module) -> str:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy_blas": blas_config(numpy),
        "scipy_blas": blas_config(scipy),
        "openblas_runtime": _openblas_runtime(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
