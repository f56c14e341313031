"""Scalar-vs-vectorized kernel ablation.

Measures, on the figure workloads (airbnb, store_sales), the wall-clock
cost of the *local skyline phase* -- the parallelizable bulk of the
distributed algorithms and the hottest loop in the engine -- under the
scalar reference kernels and the columnar NumPy kernels of
:mod:`repro.core.vectorized`, plus end-to-end query times through the
full session pipeline.  Results are asserted identical row-for-row, so
the ablation doubles as a coarse differential check at benchmark scale.

Reachable via ``python -m repro.bench --vectorized``; the rendered
table is committed under ``benchmarks/results/ablation_vectorized.txt``.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Sequence

from ..api.session import connect
from ..core.algorithms import make_dimensions
from ..core.vectorized import numpy_available, skyline_task
from ..engine.rdd import RDD

#: (label, :func:`skyline_task` mode) local kernels measured, each
#: scalar and vectorized.
KERNEL_MODES = (("bnl", "complete"), ("sfs", "sfs"))


def _workloads(num_rows: int):
    from ..datasets import airbnb_workload, store_sales_workload
    return [airbnb_workload(num_rows), store_sales_workload(num_rows)]


def _bound_dimensions(workload, num_dimensions: int):
    col_index = {c[0]: i for i, c in enumerate(workload.columns)}
    return make_dimensions([
        (col_index[name], kind)
        for name, kind in workload.dimensions(num_dimensions)])


def _time_local_phase(mode: str, vectorized: bool, partitions, dims
                      ) -> tuple[float, list]:
    start = time.perf_counter()
    results = [skyline_task(partition, dims, mode, False, vectorized)[0]
               for partition in partitions]
    return time.perf_counter() - start, results


def measure_vectorized_speedup(num_rows: int = 40_000,
                               num_dimensions: int = 6,
                               num_partitions: int = 4) -> dict:
    """Local-phase and full-query speedup of the vectorized kernels.

    The local phase runs the exact per-partition task function the
    physical operators ship to the execution backends, on the same even
    split the engine's scan would produce.  Requires NumPy.
    """
    if not numpy_available():
        raise RuntimeError("the vectorized ablation requires NumPy "
                           "(unset REPRO_DISABLE_NUMPY / install numpy)")
    report: dict = {
        "kind": "vectorized",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "num_dimensions": num_dimensions,
        "num_partitions": num_partitions,
        "workloads": [],
    }
    for workload in _workloads(num_rows):
        dims = _bound_dimensions(workload, num_dimensions)
        partitions = RDD.from_rows(workload.rows, num_partitions).partitions
        entry: dict = {"workload": workload.table_name, "kernels": {}}
        for label, mode in KERNEL_MODES:
            scalar_s, scalar_rows = _time_local_phase(
                mode, False, partitions, dims)
            vec_s, vec_rows = _time_local_phase(
                mode, True, partitions, dims)
            if scalar_rows != vec_rows:
                raise AssertionError(
                    f"{label} kernels disagree on {workload.table_name}")
            entry["kernels"][label] = {
                "scalar_s": scalar_s,
                "vectorized_s": vec_s,
                "speedup": scalar_s / vec_s if vec_s > 0 else float("inf"),
                "local_skyline_rows": sum(len(r) for r in scalar_rows),
            }
        entry["query"] = _measure_query(workload, num_dimensions)
        report["workloads"].append(entry)
    report["best_local_speedup"] = max(
        kernel["speedup"]
        for entry in report["workloads"]
        for kernel in entry["kernels"].values())
    return report


def _measure_query(workload, num_dimensions: int) -> dict:
    """End-to-end SKYLINE OF query, scalar vs vectorized session."""
    sql = workload.skyline_sql(num_dimensions)
    times: dict[str, float] = {}
    skylines: dict[str, list[tuple]] = {}
    for label, vectorized in (("scalar", False), ("vectorized", True)):
        session = connect(num_executors=4, vectorized=vectorized)
        workload.register(session)
        start = time.perf_counter()
        result = session.sql(sql).run()
        times[label] = time.perf_counter() - start
        skylines[label] = sorted(result.as_tuples(), key=repr)
    if skylines["scalar"] != skylines["vectorized"]:
        raise AssertionError(
            f"scalar and vectorized sessions disagree on "
            f"{workload.table_name}")
    return {
        "scalar_s": times["scalar"],
        "vectorized_s": times["vectorized"],
        "speedup": times["scalar"] / times["vectorized"]
        if times["vectorized"] > 0 else float("inf"),
        "skyline_rows": len(skylines["scalar"]),
    }


def render_vectorized_report(report: dict) -> str:
    """The ablation as a fixed-width table (committed under results/)."""
    lines = [
        f"vectorized kernel ablation -- {report['num_rows']} rows, "
        f"{report['num_dimensions']} dimensions, "
        f"{report['num_partitions']} partitions "
        f"(python {report['python']})",
        "",
        f"{'workload':<14}{'phase':<14}{'scalar':>10}{'vectorized':>12}"
        f"{'speedup':>10}",
    ]
    lines.append("-" * len(lines[-1]))
    for entry in report["workloads"]:
        for label, kernel in entry["kernels"].items():
            lines.append(
                f"{entry['workload']:<14}{'local ' + label:<14}"
                f"{kernel['scalar_s']:>9.3f}s"
                f"{kernel['vectorized_s']:>11.3f}s"
                f"{kernel['speedup']:>9.2f}x")
        query = entry["query"]
        lines.append(
            f"{entry['workload']:<14}{'full query':<14}"
            f"{query['scalar_s']:>9.3f}s"
            f"{query['vectorized_s']:>11.3f}s"
            f"{query['speedup']:>9.2f}x")
    lines.append("")
    lines.append(f"best local-phase speedup: "
                 f"{report['best_local_speedup']:.2f}x")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Standalone entry point mirroring ``repro.bench --vectorized``."""
    from .smoke import main as smoke_main
    return smoke_main(["--vectorized", *(argv or [])])
