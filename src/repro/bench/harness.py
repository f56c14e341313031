"""Benchmark harness (Section 6 of the paper).

Runs the four evaluated algorithms over (dataset x dimensions x tuples x
executors) grids and captures, per run:

* **execution time** -- the *simulated distributed* wall time (makespan
  over the configured executors, see :mod:`repro.engine.cluster`);
* **peak memory** -- the cluster memory model of Appendix C;
* result size and dominance-comparison counts.

Timeouts mirror the paper's 3600-second budget: each run gets a
wall-clock budget (scaled to this reproduction) and runs exceeding it
are recorded as ``t.o.`` exactly like Appendix D.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..api.session import SkylineSession, connect
from ..core.algorithms import Algorithm
from ..engine.cluster import ClusterConfig
from ..errors import BenchmarkTimeout

#: Benchmarks run data scaled down roughly this much from the paper's
#: sizes; the memory model scales residency back up so memory numbers
#: are comparable in magnitude to Appendix C.
MEMORY_SCALE = 500.0

#: Algorithms compared on complete datasets (Section 6.3).
ALGORITHMS_COMPLETE = (
    Algorithm.DISTRIBUTED_COMPLETE,
    Algorithm.NON_DISTRIBUTED_COMPLETE,
    Algorithm.DISTRIBUTED_INCOMPLETE,
    Algorithm.REFERENCE,
)

#: Algorithms applicable to incomplete datasets.
ALGORITHMS_INCOMPLETE = (
    Algorithm.DISTRIBUTED_INCOMPLETE,
    Algorithm.REFERENCE,
)

#: Default per-run wall-clock budget in seconds (the paper used 3600 s on
#: a cluster; this reproduction runs scaled data in-process).
DEFAULT_BUDGET_S = 30.0


@dataclass
class RunResult:
    """One cell of a benchmark grid."""

    algorithm: Algorithm
    dataset: str
    num_dimensions: int
    num_tuples: int
    num_executors: int
    simulated_time_s: float
    peak_memory_mb: float
    result_rows: int
    dominance_comparisons: int
    wall_time_s: float
    timed_out: bool = False


def run_query(workload, algorithm: Algorithm, num_dimensions: int,
              num_executors: int,
              budget_s: float | None = DEFAULT_BUDGET_S,
              simulated_timeout_s: float | None = None,
              session: SkylineSession | None = None) -> RunResult:
    """Execute one benchmark cell.

    ``workload`` is a :class:`~repro.datasets.Workload` (or the
    MusicBrainz adapter); ``algorithm`` selects the integrated strategy
    or the plain-SQL reference query.  Pass a prepared ``session`` to
    reuse catalog registration across cells.

    Two timeout mechanisms mirror the paper's 3600-second budget:
    ``budget_s`` bounds real wall-clock time (a safety net), while
    ``simulated_timeout_s`` bounds the *simulated distributed* time --
    like in the paper, a run that times out on 3 executors may finish
    within budget on 10.
    """
    own_session = session is None
    if own_session:
        session = _prepared_session(workload, num_executors)
    if algorithm is Algorithm.REFERENCE:
        sql = workload.reference_sql(num_dimensions)
    else:
        sql = workload.skyline_sql(num_dimensions)
    session = session.with_options(
        num_executors=num_executors,
        skyline_algorithm=algorithm.strategy or "auto",
        time_budget_s=budget_s)
    start = time.perf_counter()
    try:
        try:
            result = session.sql(sql).run()
        except BenchmarkTimeout:
            elapsed = time.perf_counter() - start
            return RunResult(
                algorithm=algorithm, dataset=workload.table_name,
                num_dimensions=num_dimensions, num_tuples=workload.num_rows,
                num_executors=num_executors,
                simulated_time_s=float("inf"), peak_memory_mb=float("nan"),
                result_rows=-1, dominance_comparisons=-1,
                wall_time_s=elapsed, timed_out=True)
        elapsed = time.perf_counter() - start
        simulated = result.simulated_time_s
        timed_out = (simulated_timeout_s is not None
                     and simulated > simulated_timeout_s)
        return RunResult(
            algorithm=algorithm, dataset=workload.table_name,
            num_dimensions=num_dimensions, num_tuples=workload.num_rows,
            num_executors=num_executors,
            simulated_time_s=float("inf") if timed_out else simulated,
            peak_memory_mb=result.peak_memory_mb,
            result_rows=len(result.rows),
            dominance_comparisons=result.context.dominance_comparisons,
            wall_time_s=elapsed, timed_out=timed_out)
    finally:
        if own_session:
            session.close()


def _prepared_session(workload, num_executors: int) -> SkylineSession:
    # The figure suite reproduces the paper's engine, whose per-tuple
    # comparison costs the scaled-down workloads are calibrated
    # against -- so the scalar reference kernels are pinned here.  The
    # columnar kernels collapse the local phase far below the simulated
    # cluster's startup overheads at these sizes.  The batch data plane
    # is pinned off alongside the kernels: its near-free
    # filters/projections would likewise distort the per-stage time
    # distribution the figures are calibrated against.  The production
    # plane is measured end to end by ``perf/``.
    session = connect(
        num_executors=num_executors,
        cluster_config=ClusterConfig(memory_scale=MEMORY_SCALE),
        vectorized=False, columnar=False)
    workload.register(session)
    return session


def dimensions_sweep(workload, algorithms: Sequence[Algorithm],
                     num_executors: int,
                     dimension_values: Iterable[int] = range(1, 7),
                     budget_s: float | None = DEFAULT_BUDGET_S,
                     simulated_timeout_s: float | None = None
                     ) -> dict[Algorithm, list[RunResult]]:
    """Number-of-dimensions vs execution time (Figures 3, 4, 11, 12, 16)."""
    session = _prepared_session(workload, num_executors)
    results: dict[Algorithm, list[RunResult]] = {a: [] for a in algorithms}
    for dims in dimension_values:
        for algorithm in algorithms:
            results[algorithm].append(run_query(
                workload, algorithm, dims, num_executors,
                budget_s=budget_s,
                simulated_timeout_s=simulated_timeout_s,
                session=session))
    return results


def executors_sweep(workload, algorithms: Sequence[Algorithm],
                    num_dimensions: int,
                    executor_values: Iterable[int] = (1, 2, 3, 5, 10),
                    budget_s: float | None = DEFAULT_BUDGET_S,
                    simulated_timeout_s: float | None = None
                    ) -> dict[Algorithm, list[RunResult]]:
    """Number-of-executors vs time/memory (Figures 6-9, 14, 15, 18, 19)."""
    executor_values = list(executor_values)
    session = _prepared_session(workload, executor_values[0])
    results: dict[Algorithm, list[RunResult]] = {a: [] for a in algorithms}
    for executors in executor_values:
        for algorithm in algorithms:
            results[algorithm].append(run_query(
                workload, algorithm, num_dimensions, executors,
                budget_s=budget_s,
                simulated_timeout_s=simulated_timeout_s,
                session=session))
    return results


def tuples_sweep(workload_factory: Callable[[int], object],
                 sizes: Sequence[int],
                 algorithms: Sequence[Algorithm],
                 num_dimensions: int, num_executors: int,
                 budget_s: float | None = DEFAULT_BUDGET_S,
                 simulated_timeout_s: float | None = None
                 ) -> dict[Algorithm, list[RunResult]]:
    """Number-of-tuples vs time/memory (Figures 5, 10, 13).

    ``workload_factory(n)`` builds the workload at each size; the paper
    takes prefixes of one generated table, which a seeded generator
    reproduces.
    """
    results: dict[Algorithm, list[RunResult]] = {a: [] for a in algorithms}
    for size in sizes:
        workload = workload_factory(size)
        session = _prepared_session(workload, num_executors)
        for algorithm in algorithms:
            results[algorithm].append(run_query(
                workload, algorithm, num_dimensions, num_executors,
                budget_s=budget_s,
                simulated_timeout_s=simulated_timeout_s,
                session=session))
    return results
