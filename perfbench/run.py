"""Serving benchmark: open-loop position-fix latency on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload city-rescan --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload

One process drives one workload.  It times the set-up in fresh
processes (``setup_s``, the median over several of them of the time
from process start to the first answer, see ``cold.py``), builds the
serving stack it measures, then submits requests open-loop, each at
its due time, from this thread:

* ``--trace 0``: a warm-up; five windows at the workload's nominal
  rate (``fix_p50_ms`` and ``fix_p99_ms``, the medians of the windows'
  p50 and p99, and ``error_m_p50``); one closed-loop
  pass over a fresh request stream in 256-row calls (``batch_qps``);
  and a binary search of the fixed rate ladder for the highest rate
  whose p99 meets the 50 ms limit without a growing backlog
  (``max_qps_slo``).
* ``--trace 1``: untraced and traced windows at the nominal rate,
  interleaved, then a traced replay.  Every layer boundary records a
  span; the run prints the layer table, writes the spans to
  ``.perfbench_out/``, and reports per-layer metrics and the tracing
  overhead.  It checks that the wrapped layers cover at least 95% of
  the summed time of the serve calls (``service.serve``,
  ``shard.locate``).

Every end-to-end metric is printed with its unit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the gated end-to-end metrics (see
``bench.GATED``) with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A failed correctness check prints it with
``correct: false`` and exits with code 1.  The benchmark never sets
BLAS thread counts; it records what it found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("mall-bigmap", "city-rescan", "kaide-drift", "city-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_info():
    """The loaded OpenBLAS and its thread count, read not set."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower()}
            )
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return os.path.basename(path), int(fn())
    return "unknown", 0


def environment(args):
    import numpy as np

    lib, threads = blas_info()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": lib,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs so far (Linux)."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from bench import Bench

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(env))
        bench = Bench(args.workload, args.seed, args.seconds, workdir,
                      trace=bool(args.trace))
        steal0, total0 = cpu_ticks()
        result = bench.run(OUT)
        steal1, total1 = cpu_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.lines:
        print(line)
    # Time the hypervisor gave other guests: a run with much of it
    # measured a slower machine.
    print(f"cpu steal during the run: "
          f"{(steal1 - steal0) / max(total1 - total0, 1):.2%} of CPU time")
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 1 if result.errors else 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: exit {code} after {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    sys.exit(code)
