"""Row-plane vs batch-plane end-to-end ablation.

The PR-3 kernels vectorized the skyline operator itself; this ablation
measures what the **columnar data plane** adds on top: full queries
whose pipeline includes a filter, a projection with arithmetic, and a
skyline -- the non-skyline operators dominate the row-plane runtime
once the kernels are fast.  Each figure workload (airbnb, store_sales)
runs the same query on two sessions differing only in ``columnar=``;
results are asserted identical row-for-row, so the ablation doubles as
a coarse differential check at benchmark scale.

Reachable via ``python -m repro.bench --columnar``; the rendered table
is committed under ``benchmarks/results/ablation_columnar.txt``.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Sequence

from ..api.session import connect

#: (WHERE predicate, projection extras) per figure workload: a
#: selective numeric filter plus computed columns, the pipeline shape
#: of the paper's Listing 2 queries with realistic analytics on top.
QUERY_SHAPES = {
    "airbnb": (
        "price < 300.0 AND accommodates > 1 AND beds > 0",
        "price / accommodates AS price_per_person, "
        "number_of_reviews * review_scores_rating AS review_weight",
    ),
    "store_sales": (
        "ss_quantity > 20 AND ss_list_price < 150.0 "
        "AND ss_sales_price > 10.0",
        "ss_list_price - ss_wholesale_cost AS margin, "
        "ss_ext_sales_price / ss_quantity AS unit_price",
    ),
}


def _workloads(num_rows: int):
    from ..datasets import airbnb_workload, store_sales_workload
    return [airbnb_workload(num_rows), store_sales_workload(num_rows)]


def _ablation_sql(workload, num_dimensions: int) -> str:
    predicate, extra = QUERY_SHAPES[workload.table_name]
    columns = ", ".join(c[0] for c in workload.columns)
    dims = ", ".join(f"{name} {kind.upper()}"
                     for name, kind in workload.dimensions(num_dimensions))
    return (f"SELECT {columns}, {extra} FROM {workload.table_name} "
            f"WHERE {predicate} SKYLINE OF {dims}")


def measure_columnar_speedup(num_rows: int = 60_000,
                             num_dimensions: int = 3,
                             num_executors: int = 4,
                             repeats: int = 3) -> dict:
    """End-to-end figure-workload queries, row plane vs batch plane.

    Both sessions run the vectorized skyline kernels (the PR-3
    default); only the data plane differs, so the speedup isolates the
    scan/filter/projection pipeline plus the batch-vs-row kernel
    hand-off.  The best of ``repeats`` runs per side smooths scheduler
    noise.
    """
    report: dict = {
        "kind": "columnar",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "num_dimensions": num_dimensions,
        "num_executors": num_executors,
        "workloads": [],
    }
    for workload in _workloads(num_rows):
        sql = _ablation_sql(workload, num_dimensions)
        times: dict[str, float] = {}
        skylines: dict[str, list[tuple]] = {}
        for label, columnar in (("row", False), ("columnar", True)):
            session = connect(num_executors=num_executors,
                              columnar=columnar)
            workload.register(session)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                result = session.sql(sql).run()
                best = min(best, time.perf_counter() - start)
            times[label] = best
            skylines[label] = sorted(result.as_tuples(), key=repr)
        if skylines["row"] != skylines["columnar"]:
            raise AssertionError(
                f"row and columnar planes disagree on "
                f"{workload.table_name}")
        report["workloads"].append({
            "workload": workload.table_name,
            "sql": sql,
            "row_s": times["row"],
            "columnar_s": times["columnar"],
            "speedup": times["row"] / times["columnar"]
            if times["columnar"] > 0 else float("inf"),
            "skyline_rows": len(skylines["row"]),
        })
    report["best_speedup"] = max(w["speedup"]
                                 for w in report["workloads"])
    return report


def render_columnar_report(report: dict) -> str:
    """The ablation as a fixed-width table (committed under results/)."""
    lines = [
        f"columnar data-plane ablation -- {report['num_rows']} rows, "
        f"{report['num_dimensions']} dimensions, filter + projection + "
        f"skyline (python {report['python']})",
        "",
        f"{'workload':<14}{'row plane':>12}{'batch plane':>13}"
        f"{'speedup':>10}{'skyline rows':>14}",
    ]
    lines.append("-" * len(lines[-1]))
    for entry in report["workloads"]:
        lines.append(
            f"{entry['workload']:<14}{entry['row_s']:>11.3f}s"
            f"{entry['columnar_s']:>12.3f}s{entry['speedup']:>9.2f}x"
            f"{entry['skyline_rows']:>14}")
    lines.append("")
    lines.append(f"best end-to-end speedup: "
                 f"{report['best_speedup']:.2f}x")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Standalone entry point mirroring ``repro.bench --columnar``."""
    from .smoke import main as smoke_main
    return smoke_main(["--columnar", *(argv or [])])
