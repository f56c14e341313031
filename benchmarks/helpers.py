"""Shared helpers for the per-figure benchmark modules.

Each ``benchmarks/test_fig*.py`` regenerates one table/figure of the
paper: it runs the harness grid, renders the paper-style tables (to
stdout and :data:`RESULTS_DIR`), asserts the *shape* of the result (who
wins, where timeouts fall), and registers one representative cell with
pytest-benchmark.
"""

from __future__ import annotations

import math
import os
import pathlib
from typing import Mapping, Sequence

from repro.bench.harness import RunResult, run_query
from repro.core.algorithms import Algorithm

#: Where :func:`record` writes.  ``conftest.py`` redirects it to the
#: pytest temp dir unless ``--update-results`` is passed: the committed
#: ``benchmarks/results/*.txt`` hold machine-local timings, and a test
#: run must leave ``git status`` clean.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Global size multiplier; raise (e.g. REPRO_BENCH_SCALE=4) for slower,
#: higher-fidelity runs, lower for smoke tests.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    """Scale a default workload size by REPRO_BENCH_SCALE."""
    return max(50, int(n * SCALE))


def record(name: str, text: str) -> None:
    """Persist a rendered table and echo it for interactive runs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def finished(cells: Sequence[RunResult]) -> list[RunResult]:
    return [c for c in cells if not c.timed_out]


def total_time(cells: Sequence[RunResult]) -> float:
    return sum(c.simulated_time_s for c in finished(cells))


def comparable_totals(results: Mapping[Algorithm, list[RunResult]]
                      ) -> dict[Algorithm, float]:
    """Total time per algorithm over the cells every algorithm finished."""
    algorithms = list(results)
    length = len(results[algorithms[0]])
    totals = {a: 0.0 for a in algorithms}
    for i in range(length):
        if any(results[a][i].timed_out for a in algorithms):
            continue
        for a in algorithms:
            totals[a] += results[a][i].simulated_time_s
    return totals


def assert_reference_is_slowest_overall(
        results: Mapping[Algorithm, list[RunResult]],
        tolerance: float = 1.0) -> None:
    """The paper's headline: specialized algorithms beat the reference.

    Checked on totals over commonly-finished cells; ``tolerance`` > 1
    loosens the bound for noisy small-scale runs.
    """
    totals = comparable_totals(results)
    reference = totals.pop(Algorithm.REFERENCE)
    assert reference > 0, "reference timed out everywhere"
    for algorithm, total in totals.items():
        assert total <= reference * tolerance, (
            f"{algorithm.value} ({total:.3f}s) is not faster than the "
            f"reference ({reference:.3f}s)")


def assert_distributed_complete_wins(
        results: Mapping[Algorithm, list[RunResult]],
        tolerance: float = 1.15) -> None:
    """For complete data the distributed complete algorithm performs best
    (Section 6.6), within a noise tolerance."""
    totals = comparable_totals(results)
    best = totals[Algorithm.DISTRIBUTED_COMPLETE]
    for algorithm, total in totals.items():
        assert best <= total * tolerance, (
            f"distributed complete ({best:.3f}s) lost to "
            f"{algorithm.value} ({total:.3f}s)")


def assert_executors_help(workload, algorithm: Algorithm,
                          num_dimensions: int, few: int, many: int,
                          runs: int = 3) -> None:
    """``many`` executors beat ``few`` on simulated time, best of
    ``runs`` each.  Simulated time is a makespan over *measured* task
    durations, so one host hiccup can flip a single-timing ``<`` whose
    margin is 10-30 % (the Figure 15 flake); the minimum of a few runs
    is the noise-free estimate of each cell."""
    best = {n: min(run_query(workload, algorithm, num_dimensions, n,
                             budget_s=None).simulated_time_s
                   for _ in range(runs))
            for n in (few, many)}
    assert best[many] < best[few], (
        f"{algorithm.value}: {many} executors ({best[many]:.3f}s) did "
        f"not beat {few} ({best[few]:.3f}s), best of {runs}")


def assert_no_specialized_timeouts(
        results: Mapping[Algorithm, list[RunResult]]) -> None:
    """The paper 'never [has] the opposite situation that a specialized
    algorithm times out but not the reference' (Appendix D)."""
    reference = results.get(Algorithm.REFERENCE)
    for algorithm, cells in results.items():
        if algorithm is Algorithm.REFERENCE:
            continue
        for i, cell in enumerate(cells):
            if cell.timed_out and reference is not None:
                assert reference[i].timed_out, (
                    f"{algorithm.value} timed out where the reference "
                    f"did not (cell {i})")


def assert_memory_comparable(
        results: Mapping[Algorithm, list[RunResult]],
        factor: float = 3.0) -> None:
    """Appendix C: no algorithm pays significantly more memory.

    Compared per grid cell (same x value) across algorithms -- memory
    legitimately grows along the x axis (executors/tuples).
    """
    algorithms = list(results)
    length = len(results[algorithms[0]])
    checked = 0
    for i in range(length):
        values = [results[a][i].peak_memory_mb for a in algorithms
                  if not results[a][i].timed_out
                  and not math.isnan(results[a][i].peak_memory_mb)]
        if len(values) < 2:
            continue
        checked += 1
        assert max(values) <= min(values) * factor, (
            f"memory diverges at cell {i}: {values}")
    assert checked > 0


def bench_representative(benchmark, workload, algorithm: Algorithm,
                         num_dimensions: int, num_executors: int) -> None:
    """Register one representative cell with pytest-benchmark."""

    def run() -> RunResult:
        return run_query(workload, algorithm, num_dimensions,
                         num_executors, budget_s=None)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.timed_out
