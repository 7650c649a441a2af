"""The environment a result was measured in.

Results are not bitwise-identical across BLAS builds, so a loss or
label fingerprint only compares between runs with the same `blas` and
`blas_version`.
"""

import ctypes
import os
import platform

import numpy as np

CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes():
    """{'L2': '2048K', 'L3': ...} for the unified and data caches of cpu0."""
    out = {}
    try:
        entries = sorted(os.listdir(CACHE_DIR))
    except OSError:
        return out
    for entry in entries:
        base = os.path.join(CACHE_DIR, entry)
        level, kind = _read(os.path.join(base, "level")), _read(os.path.join(base, "type"))
        if level and kind in ("Data", "Unified"):
            out[f"L{level}"] = _read(os.path.join(base, "size"))
    return out


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "cache": cache_sizes(),
    }
