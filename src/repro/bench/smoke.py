"""Fast benchmark smoke runs for CI, and the ``python -m repro.bench``
command line.

:func:`run_smoke` is a tiny airbnb + store_sales workload executed on
every backend; it emits ``BENCH_smoke.json`` with real and simulated
times so CI archives a machine-readable health snapshot per commit.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Sequence

from ..core.algorithms import Algorithm
from ..datasets import airbnb_workload, store_sales_workload
from ..engine.backends import BACKEND_NAMES
from .harness import backends_sweep

SMOKE_BACKENDS = BACKEND_NAMES


def _result_record(result) -> dict:
    return {
        "algorithm": result.algorithm.value,
        "backend": result.backend,
        "num_dimensions": result.num_dimensions,
        "num_tuples": result.num_tuples,
        "num_executors": result.num_executors,
        "result_rows": result.result_rows,
        "dominance_comparisons": result.dominance_comparisons,
        "simulated_time_s": result.simulated_time_s,
        "real_time_s": result.real_time_s,
        "wall_time_s": result.wall_time_s,
        "time_to_first_batch_s": result.time_to_first_batch_s,
        "timed_out": result.timed_out,
    }


def run_smoke(num_rows: int = 400, num_executors: int = 4,
              num_dimensions: int = 3,
              backends: Sequence[str] = SMOKE_BACKENDS,
              num_workers: int | None = None) -> dict:
    """Tiny airbnb + store_sales workload on every backend.

    Returns a JSON-serialisable report; every backend must produce the
    same skyline size (a cheap cross-backend consistency check that runs
    on every CI commit, complementing the full property-test suite).
    """
    workloads = [airbnb_workload(num_rows), store_sales_workload(num_rows)]
    report: dict = {
        "kind": "smoke",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "num_executors": num_executors,
        "num_dimensions": num_dimensions,
        "runs": [],
    }
    for workload in workloads:
        results = backends_sweep(
            workload, Algorithm.DISTRIBUTED_COMPLETE, num_dimensions,
            num_executors, backends=backends, num_workers=num_workers)
        sizes = {r.result_rows for r in results.values()}
        if len(sizes) != 1:
            raise AssertionError(
                f"backends disagree on {workload.table_name}: "
                f"{ {b: r.result_rows for b, r in results.items()} }")
        report["runs"].extend(_result_record(r) for r in results.values())
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``python -m repro.bench --smoke`` / ``--serving`` /
    ``--chaos``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark smoke runs (full figure suite: pytest "
                    "benchmarks/)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny airbnb+store_sales workload on "
                             "every backend and emit BENCH_smoke.json")
    parser.add_argument("--serving", action="store_true",
                        help="benchmark the multi-tenant serving layer "
                             "(qps at 1/4/16 clients, result-cache "
                             "latency) and emit BENCH_serving.json")
    parser.add_argument("--min-cache-speedup", type=float, default=None,
                        help="fail unless the result-cache hit speedup "
                             "reaches this factor")
    parser.add_argument("--chaos", action="store_true",
                        help="run the query mix clean and under a seeded "
                             "fault plan (crashes/errors/delays), assert "
                             "bit-identical answers, and emit "
                             "BENCH_chaos.json")
    parser.add_argument("--chaos-crash-p", type=float, default=0.10,
                        help="injected per-task crash probability for "
                             "--chaos")
    parser.add_argument("--max-chaos-overhead", type=float, default=None,
                        help="fail if the chaos wall-clock overhead "
                             "exceeds this factor")
    parser.add_argument("--rows", type=int, default=None,
                        help="workload size override")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the process backend")
    parser.add_argument("--out", default="BENCH_smoke.json",
                        help="output path for the smoke report")
    args = parser.parse_args(argv)
    if not (args.smoke or args.serving or args.chaos):
        parser.error("nothing to do: pass --smoke, --serving and/or "
                     "--chaos")

    status = 0
    if args.smoke:
        report = run_smoke(num_rows=args.rows or 400,
                           num_workers=args.workers)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"smoke report written to {args.out}")
        for run in report["runs"]:
            print(f"  {run['algorithm']} on {run['backend']:>7}: "
                  f"real {run['real_time_s']:.4f}s  "
                  f"simulated {run['simulated_time_s']:.4f}s  "
                  f"first batch {run['time_to_first_batch_s']:.4f}s  "
                  f"rows {run['result_rows']}")
    if args.serving:
        from .serving import render_serving_report, run_serving_bench
        report = run_serving_bench(num_rows=args.rows or 6000)
        with open("BENCH_serving.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(render_serving_report(report))
        if args.min_cache_speedup is not None and \
                report["cache_speedup"] < args.min_cache_speedup:
            print(f"FAIL: cache-hit speedup below required "
                  f"{args.min_cache_speedup:.2f}x", file=sys.stderr)
            status = 1
    if args.chaos:
        from .chaos import render_chaos_report, run_chaos_bench
        report = run_chaos_bench(num_rows=args.rows or 12_000,
                                 crash_p=args.chaos_crash_p)
        with open("BENCH_chaos.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(render_chaos_report(report))
        if not report["bit_identical"]:
            print("FAIL: chaos run produced different answers than the "
                  "clean run", file=sys.stderr)
            status = 1
        if not report["faults_injected"]:
            print("FAIL: the fault plan injected nothing (gate would be "
                  "vacuous)", file=sys.stderr)
            status = 1
        if args.max_chaos_overhead is not None and \
                report["overhead"] > args.max_chaos_overhead:
            print(f"FAIL: chaos overhead above allowed "
                  f"{args.max_chaos_overhead:.2f}x", file=sys.stderr)
            status = 1
    return status
