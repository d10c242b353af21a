"""Seconds-long smoke test of every workload, untraced and traced.

Usage (from the root of a checkout; no network needed)::

    python3 e2ebench/smoke.py

Runs each workload at ``--tiny`` size for one second with ``--trace 0``
and ``--trace 1`` and checks the result line against ``BENCHMARK.json``:
exactly the four keys, ``correct`` true, nothing failed, and exactly the
end-to-end (untraced) or per-layer (traced) metric names with their units.
Then copies ``BENCHMARK.json`` and this directory into an empty directory
and checks that the benchmark refuses to run there.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from common import BENCH_DIR, CHECKOUT, OUT_DIR

TIMEOUT_S = 180


def _run(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    started = time.perf_counter()
    completed = _run(CHECKOUT, workload, trace)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{workload} trace={trace}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: {result}\n{completed.stderr}")
    expected = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if trace else "end_to_end"]
    }
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(expected))}")
    if not trace and any(value["value"] == 0 for value in result["metrics"].values()):
        raise SystemExit(f"{workload}: an end-to-end metric is zero: {result['metrics']}")
    print(f"ok  {workload:12s} trace={trace}  {time.perf_counter() - started:5.1f} s")


def check_bare_directory() -> None:
    """Without the package sources the benchmark must fail, printing no result."""
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH_DIR, bare / BENCH_DIR.name,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        completed = _run(bare, "replay_rows", 0)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode == 0 or any('"correct"' in line for line in lines):
            raise SystemExit("the benchmark ran without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory refused")


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, entry["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
