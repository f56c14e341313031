"""Shared-memory vs pickled transport ablation (process backend).

The PR-4 columnar plane made batches the unit of exchange; on the
process backend every batch still crossed the worker pipe as pickled
bytes on every stage of every execution.  The PR-9 shared-memory data
plane ships a ~100-byte handle instead and keeps a prepared query's
input partitions resident in ``/dev/shm`` across executions, so the
per-execution cost drops to mapping segments that are already there.

The ablation mirrors that serving-style shape: a prepared ``SELECT *``
skyline query over a store_sales table widened with a block of derived
metric columns (the regime where transport, not the kernels, dominates
-- exactly when a real deployment would reach for zero-copy).  With
stage fusion the only batches that travel are the scan slices the
local tasks read (a projection runs in the worker, and a chain that
projects ships only the columns it reads), so the width has to be
physical: ``SELECT *`` reads every column.  Both legs run the identical
prepared plan on the identical process pool configuration, differing
only in ``shared_memory=``; results are asserted bit-identical and the
shm leg must leave ``/dev/shm`` clean, so the ablation doubles as a
leak check at benchmark scale.

Reachable via ``python -m repro.bench --shm``; the rendered table is
committed under ``benchmarks/results/ablation_shm.txt``.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Sequence

from ..api.config import SessionConfig
from ..api.session import SkylineSession
from ..engine.types import DOUBLE

#: Derived metric columns (scaled list prices) stored beside the eight
#: store_sales columns.  Eight columns pickle in ~the time they map; a
#: serving table of margins, ratios and scaled prices pushes the
#: by-value transport into copy-bound territory while the handle stays
#: a handle.
WIDE_COLUMNS = 24


def _ablation_sql(num_dimensions: int) -> str:
    dims = ", ".join(("ss_quantity MAX", "ss_wholesale_cost MIN",
                      "ss_list_price MIN")[:num_dimensions])
    return (f"SELECT * FROM store_sales WHERE ss_quantity > 5 "
            f"SKYLINE OF {dims}")


def measure_shm_speedup(num_rows: int = 60_000,
                        num_dimensions: int = 2,
                        num_executors: int = 8,
                        num_workers: int = 2,
                        repeats: int = 5,
                        wide_columns: int = WIDE_COLUMNS) -> dict:
    """Prepared store_sales query, pickled vs zero-copy transport.

    Each leg prepares once, runs one warm-up execution (the shm leg
    registers and pins its input segments there), then takes the best
    of ``repeats`` timed executions -- the steady state a serving
    deployment sees.  Raises if the platform cannot serve shared
    memory: the ablation would silently compare pickle to pickle.
    """
    from ..datasets import store_sales_workload
    from ..engine.shm import leaked_segments, shared_memory_available

    if not shared_memory_available():
        raise RuntimeError(
            "shared memory unavailable on this platform; the shm "
            "ablation cannot run")

    sql = _ablation_sql(num_dimensions)
    workload = store_sales_workload(num_rows)
    list_price = [name for name, _, _ in workload.columns].index(
        "ss_list_price")
    columns = workload.columns + [(f"x{k}", DOUBLE, False)
                                  for k in range(wide_columns)]
    rows = [row + tuple(row[list_price] * (k + 1)
                        for k in range(wide_columns))
            for row in workload.rows]
    report: dict = {
        "kind": "shm",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "num_dimensions": num_dimensions,
        "num_executors": num_executors,
        "num_workers": num_workers,
        "shipped_columns": len(columns),
        "repeats": repeats,
        "sql": sql,
    }
    times: dict[str, float] = {}
    skylines: dict[str, list[tuple]] = {}
    baseline_segments = set(leaked_segments())
    for label, shared in (("pickle", False), ("shm", True)):
        session = SkylineSession(config=SessionConfig(
            num_executors=num_executors, backend="process",
            num_workers=num_workers, columnar=True,
            shared_memory=shared))
        try:
            session.create_table(workload.table_name, columns, rows)
            prepared = session.prepare(session.sql(sql).plan)
            result = session.execute_prepared(prepared)  # warm-up
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                result = session.execute_prepared(prepared)
                best = min(best, time.perf_counter() - start)
            times[label] = best
            skylines[label] = sorted(result.as_tuples(), key=repr)
            if label == "shm":
                report["shm_stats"] = result.context.shm_stats
        finally:
            session.close()
    report["leaked_segments"] = sorted(
        set(leaked_segments()) - baseline_segments)
    report["bit_identical"] = skylines["pickle"] == skylines["shm"]
    report["pickle_s"] = times["pickle"]
    report["shm_s"] = times["shm"]
    report["speedup"] = (times["pickle"] / times["shm"]
                         if times["shm"] > 0 else float("inf"))
    report["skyline_rows"] = len(skylines["shm"])
    return report


def render_shm_report(report: dict) -> str:
    """The ablation as a fixed-width table (committed under results/)."""
    stats = report.get("shm_stats") or {}
    lines = [
        f"shared-memory transport ablation -- store_sales, "
        f"{report['num_rows']} rows x "
        f"{report['shipped_columns']} shipped columns, "
        f"{report['num_dimensions']} dimensions, process backend "
        f"({report['num_workers']} workers, prepared query, best of "
        f"{report['repeats']}; python {report['python']})",
        "",
        f"{'transport':<12}{'per run':>12}{'speedup':>10}"
        f"{'skyline rows':>14}",
    ]
    lines.append("-" * len(lines[-1]))
    lines.append(f"{'pickle':<12}{report['pickle_s']:>11.3f}s"
                 f"{1.0:>9.2f}x{report['skyline_rows']:>14}")
    lines.append(f"{'shm':<12}{report['shm_s']:>11.3f}s"
                 f"{report['speedup']:>9.2f}x{report['skyline_rows']:>14}")
    lines.append("")
    lines.append(
        f"bit-identical: {report['bit_identical']}; "
        f"leaked segments after close: "
        f"{len(report['leaked_segments'])}")
    if stats:
        lines.append(
            f"segments created {stats['segments_created']}, handles "
            f"served {stats['handles_served']}, pickle fallbacks "
            f"{stats['pickle_fallbacks']}, "
            f"{stats['bytes_shared'] / 1e6:.1f} MB shared")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Standalone entry point mirroring ``repro.bench --shm``."""
    from .smoke import main as smoke_main
    return smoke_main(["--shm", *(argv or [])])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
