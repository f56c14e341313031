"""Mixed-workload benchmark for the statistics-driven adaptive planner.

Three workload classes with opposing needs:

* ``interactive`` -- a burst of small queries over a tiny table.  Any
  distributed strategy pays local-stage overhead on every query; the
  adaptive planner picks the non-distributed algorithm.
* ``bulk-sparse`` -- one large independent-dimension table with a tiny
  skyline; adaptive picks distributed BNL.
* ``dense`` -- anti-correlated data with a huge skyline; adaptive picks
  the non-distributed algorithm on the vectorized kernels (a local
  stage would keep most rows) and SFS on the scalar ones.

Every fixed algorithm is run over the same mix, all keeping the scan's
partitioning.  The claim the benchmark asserts is bounded regret: on
every class, adaptive is within :data:`MAX_REGRET` of the best fixed
algorithm for that class.
"""

from __future__ import annotations

from typing import Sequence

from ..api.session import SkylineSession, connect
from ..datasets import (anticorrelated_rows, correlated_rows,
                        independent_rows)
from ..engine.cluster import ClusterConfig
from ..engine.types import DOUBLE, INTEGER

#: Steady-state latency: sessions are long-lived, so the fixed
#: application/executor start-up costs are excluded -- they would add
#: the same constant to every strategy and drown the per-query signal.
_STEADY_STATE = ClusterConfig(app_startup_s=0.0, executor_startup_s=0.0)

#: Fixed algorithms evaluated against the adaptive planner.
FIXED_ALGORITHMS = ("distributed-complete", "non-distributed-complete",
                    "sfs")

#: Bound on adaptive's time over the best fixed algorithm, per class.
MAX_REGRET = 1.25

_SQL = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN"


class WorkloadClass:
    """One class of the mix: a table plus a query repetition count."""

    def __init__(self, name: str, rows: list[tuple],
                 repetitions: int = 1) -> None:
        self.name = name
        self.rows = [(i,) + tuple(r) for i, r in enumerate(rows)]
        self.repetitions = repetitions

    def session(self, **kwargs) -> SkylineSession:
        session = connect(num_executors=4, cluster_config=_STEADY_STATE,
                          **kwargs)
        columns = [("id", INTEGER, False)] + [
            (f"d{i}", DOUBLE, False) for i in range(3)]
        session.create_table("pts", columns, self.rows)
        return session


def default_classes(scale: float = 1.0) -> list[WorkloadClass]:
    """The three default classes, sized by ``scale``."""
    def sized(n: int) -> int:
        return max(50, int(n * scale))

    return [
        WorkloadClass("interactive",
                      correlated_rows(sized(300), 3, seed=1),
                      repetitions=max(1, int(20 * scale))),
        WorkloadClass("bulk-sparse",
                      independent_rows(sized(8000), 3, seed=2)),
        WorkloadClass("dense",
                      anticorrelated_rows(sized(1600), 3, seed=3,
                                          spread=0.02)),
    ]


#: Runs per query, of which the best counts, and interleaved rounds
#: per class, of which each configuration's best counts.  Simulated
#: time is derived from measured task durations: a class with one
#: repetition would otherwise turn a single host/GC pause into its
#: whole score, and on a shared host the *same* plan reads in two
#: modes ~20 % apart that last seconds -- longer than one
#: configuration's turn -- so every configuration takes its turn in
#: every round instead of all its runs back to back.
_BEST_OF = 3


def _run_class(workload: WorkloadClass, **session_kwargs
               ) -> tuple[float, int]:
    """Total simulated time and result size of one configuration."""
    session = workload.session(**session_kwargs)
    total = 0.0
    result_rows = -1
    for _ in range(workload.repetitions):
        runs = [session.sql(_SQL).run() for _ in range(_BEST_OF)]
        total += min(run.simulated_time_s for run in runs)
        result_rows = len(runs[0].rows)
    return total, result_rows


def run_adaptive_bench(scale: float = 1.0,
                       classes: Sequence[WorkloadClass] | None = None
                       ) -> dict:
    """Run the mix under adaptive and every fixed algorithm.

    Returns a report with per-class simulated times, totals, the
    identity of the best/worst fixed strategies, and adaptive's regret
    per class (its time over the best fixed time).  All configurations
    are cross-checked to return identical skyline sizes per class.
    """
    classes = list(classes) if classes is not None \
        else default_classes(scale)
    configurations = {algorithm: dict(skyline_algorithm=algorithm)
                      for algorithm in FIXED_ALGORITHMS}
    configurations["adaptive"] = dict(adaptive=True)
    cells: dict[str, dict[str, float]] = {
        label: {} for label in configurations}
    for workload in classes:
        sizes = set()
        for _ in range(_BEST_OF):
            for label, session_kwargs in configurations.items():
                total, rows = _run_class(workload, **session_kwargs)
                cells[label][workload.name] = min(
                    total, cells[label].get(workload.name, total))
                sizes.add(rows)
        if len(sizes) != 1:
            raise AssertionError(
                f"configurations disagree on class {workload.name!r}: "
                f"{sizes}")
    adaptive = cells.pop("adaptive")
    fixed = cells

    fixed_totals = {label: sum(times.values())
                    for label, times in fixed.items()}
    best_label = min(fixed_totals, key=fixed_totals.get)
    worst_label = max(fixed_totals, key=fixed_totals.get)
    regret = {name: adaptive[name] / min(times[name]
                                          for times in fixed.values())
              for name in adaptive}
    return {
        "kind": "adaptive",
        "classes": [c.name for c in classes],
        "fixed": fixed,
        "adaptive": adaptive,
        "adaptive_total": sum(adaptive.values()),
        "fixed_totals": fixed_totals,
        "best_fixed": best_label,
        "worst_fixed": worst_label,
        "regret": regret,
    }


def render_report(report: dict) -> str:
    """The report as a paper-style fixed-width table."""
    classes = report["classes"]
    width = max(len(label) for label in report["fixed"])
    header = f"{'strategy':<{width}}" + "".join(
        f"  {name:>14}" for name in classes) + f"  {'total':>10}"
    lines = [header, "-" * len(header)]
    rows = sorted(report["fixed"].items(),
                  key=lambda item: sum(item[1].values()))
    for label, times in rows:
        line = f"{label:<{width}}" + "".join(
            f"  {times[name]:>13.3f}s" for name in classes)
        lines.append(line + f"  {sum(times.values()):>9.3f}s")
    adaptive = report["adaptive"]
    line = f"{'adaptive':<{width}}" + "".join(
        f"  {adaptive[name]:>13.3f}s" for name in classes)
    lines.append(line + f"  {report['adaptive_total']:>9.3f}s")
    regret = report["regret"]
    lines.append(f"{'regret':<{width}}" + "".join(
        f"  {regret[name]:>13.2f}x" for name in classes))
    return "\n".join(lines)
