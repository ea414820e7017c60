"""Machine block reported beside every benchmark result.

The calibration kernel is fixed numpy work with no pncomp code; its time
at the start and end of a run is evidence of host drift, reported beside
the metrics.  It is neither a metric nor used to normalise one.  The host
probe is a shorter kernel of pncomp's per-symbol shape, timed between
every two tasks; the end-to-end timings are scaled by it (see worker.py).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build info and its live thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        version = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; the benchmark
    checkout is usually not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def machine_block(root: Path) -> dict:
    blas_version, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(root),
    }


# typical host_probe_s() on the reference host (2-CPU Intel Xeon, 2.1 GHz);
# host-adjusted timings are wall times scaled to a host this fast
PROBE_REF_S = 0.05


def host_probe_s(reps: int = 1) -> float:
    """Mean time of `reps` repetitions of a short fixed numpy kernel shaped
    like pncomp's per-symbol work: length-64 FFT pairs and a 64x9
    pseudo-inverse applied to them.  It runs no pncomp code, so a change
    to pncomp leaves it unchanged, while a host that slows down slows it
    too."""
    rng = np.random.default_rng(20172)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a = rng.standard_normal((64, 9)) + 1j * rng.standard_normal((64, 9))
    t0 = time.perf_counter()
    for _ in range(400 * reps):
        z = np.linalg.pinv(a) @ np.fft.ifft(np.fft.fft(x))
    dt = time.perf_counter() - t0
    if not np.isfinite(z).all():
        raise FloatingPointError("host probe produced non-finite output")
    return dt / reps


def calibration_s(reps: int = 5) -> float:
    """Median time of a fixed numpy kernel: batched FFTs, a complex matmul
    and a small SVD, sized like pncomp's per-symbol work."""
    rng = np.random.default_rng(20171)
    x = rng.standard_normal((512, 64)) + 1j * rng.standard_normal((512, 64))
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    w = rng.standard_normal((32, 9)) + 1j * rng.standard_normal((32, 9))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(100):
            y = np.fft.ifft(np.fft.fft(x, axis=-1), axis=-1)
            b = a @ a.conj().T
            s = np.linalg.svd(w, compute_uv=False)
        times.append(time.perf_counter() - t0)
    if not (np.isfinite(y).all() and np.isfinite(b).all() and s[0] > 0):
        raise FloatingPointError("calibration kernel produced non-finite output")
    return statistics.median(times)
