"""Run one workload of the rrlab benchmark and print its metrics.

    python3 perfbench/run.py --workload converge --seed 0 --seconds 50 --trace 0

Run from the root of a checkout that holds ``src/rrlab``.  Workloads:
converge, check (see harness.py).  With ``--trace 0`` the run
reports the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` it times each traced rrlab function and reports the
per-layer metrics.  A summary table and one JSON line of details
(workload-specific metrics, quartiles, per-case values, failures and
metadata) come first; the last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread: measured on 2 cores, it cut the spread of the
# spectrum scenario's wall time (dense solves and eigensolves) from
# 2.3-4.2 s to 2.4-2.7 s without slowing it.  Set before numpy is imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]


def pin_blas_threads() -> int:
    n = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("converge", "check"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_summary(result: dict, detail: dict) -> None:
    meta = detail["meta"]
    print(f"# rrlab benchmark: workload={detail['workload']} seed={meta['seed']} "
          f"trace={int(detail['tracing'])} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    rows = list(result["metrics"].items()) + list(detail["workload_metrics"].items())
    for name, m in rows:
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, (int, float)) else json.dumps(value)
        print(f"#   {name:<40} {text:>14} {m['unit']}")
    for problem in detail["problems"]:
        print(f"# problem: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    threads = pin_blas_threads()
    if not (ROOT / "src" / "rrlab" / "__init__.py").is_file():
        print(f"error: no rrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    result, detail = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        blas_threads=threads)
    _print_summary(result, detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
