"""Benchmark for cluster-sieve.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Times a cold set-up, then runs one workload for S seconds in this
single-threaded process, checks every result with benchmark/checks.py,
prints every p-value computed, and ends with one JSON line: correct,
attempted, failed, and the end-to-end metrics (--trace 0) or the
per-module metrics (--trace 1). See benchmark/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("calib_small", "large_known", "unknown_selected")
# A second BLAS or worker thread on a small machine measures the
# scheduler; set before numpy loads here and in the set-up child.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CLUSTER_SIEVE_THREADS")


def cold_setup_seconds() -> float:
    """Wall time of a fresh interpreter importing cluster_sieve.cli: what
    every `cluster-sieve` command pays before any work starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cluster_sieve.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cluster-sieve benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for var in PINNED:
        os.environ[var] = "1"
    if not (SRC / "cluster_sieve" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    # Bytecode is written once here, so no run's set-up time includes it.
    compileall.compile_dir(str(SRC), quiet=1)
    first_setup_s = cold_setup_seconds()

    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.run(args, cold_setup_seconds, first_setup_s)


if __name__ == "__main__":
    sys.exit(main())
