"""Shared pieces of the end-to-end benchmark: paths, statistics, provenance.

Importing this module pins the BLAS/OpenMP thread pools (before numpy is
imported anywhere) and puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always measures the package built from the
checkout it runs in.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from pathlib import Path

#: The thread-count knobs ``benchmarks/conftest.py`` pins, pinned the same
#: way: unset knobs default to 1 so runs on one box are comparable.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _variable in THREAD_ENV_VARS:
    os.environ.setdefault(_variable, "1")

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
#: Scratch space for checkpoints, server logs and span dumps (git-ignored).
OUT_DIR = CHECKOUT / ".e2ebench_out"


class BenchmarkSetupError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def use_checkout_package() -> None:
    """Import ``repro`` from ``<checkout>/src`` or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkSetupError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkSetupError(
            f"repro imported from {repro.__file__}, not from {SRC}"
        )


def source_env() -> dict[str, str]:
    """Environment for a subprocess that must import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def weighted_percentile(
    values: list[float], weights: list[int], pct: float
) -> float:
    """Nearest-rank percentile of ``values`` each repeated ``weights`` times."""
    pairs = sorted(zip(values, weights))
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        return float("nan")
    target = max(math.ceil(pct / 100.0 * total), 1)
    running = 0
    for value, weight in pairs:
        running += weight
        if running >= target:
            return value
    return pairs[-1][0]


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped child processes, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def provenance(workload: str, seed: int, trace: bool, backend: str) -> dict:
    """What a result must carry to be compared with another box's result."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
