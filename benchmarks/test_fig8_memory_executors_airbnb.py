"""Figure 8: number of executors vs peak memory consumption on the
Inside Airbnb dataset (6 dimensions).

Paper shape: memory grows with the executor count (every executor loads
the full runtime environment) and is comparable across all four
algorithms.
"""

from functools import partial

import pytest

from helpers import (assert_memory_comparable, bench_representative,
                     record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         executors_sweep, format_memory_table)
from repro.core.algorithms import Algorithm
from repro.datasets import airbnb_workload

EXECUTOR_VALUES = [1, 2, 3, 5, 10]
DIMENSIONS = 6
RAW_ROWS = scaled(2500)


@pytest.fixture(scope="module")
def complete_results(shared_sweep):
    workload = airbnb_workload(RAW_ROWS)
    results = shared_sweep(executors_sweep, partial(airbnb_workload, RAW_ROWS),
                           ALGORITHMS_COMPLETE, DIMENSIONS,
                           executor_values=EXECUTOR_VALUES)
    record("fig8_memory_airbnb_complete", format_memory_table(
        f"Fig 8 left: airbnb complete, executors vs memory "
        f"({workload.num_rows} tuples)", "executors", EXECUTOR_VALUES,
        results))
    return results


@pytest.fixture(scope="module")
def incomplete_results(shared_sweep):
    workload = airbnb_workload(RAW_ROWS, incomplete=True)
    results = shared_sweep(executors_sweep,
                           partial(airbnb_workload, RAW_ROWS, incomplete=True),
                           ALGORITHMS_INCOMPLETE, DIMENSIONS,
                           executor_values=EXECUTOR_VALUES)
    record("fig8_memory_airbnb_incomplete", format_memory_table(
        f"Fig 8 right: airbnb incomplete, executors vs memory "
        f"({workload.num_rows} tuples)", "executors", EXECUTOR_VALUES,
        results))
    return results


def test_memory_grows_with_executors(complete_results):
    for cells in complete_results.values():
        memory = [c.peak_memory_mb for c in cells]
        assert memory[-1] > memory[0]


def test_memory_comparable_across_algorithms(complete_results):
    assert_memory_comparable(complete_results)


def test_incomplete_memory_grows(incomplete_results):
    cells = incomplete_results[Algorithm.DISTRIBUTED_INCOMPLETE]
    assert cells[-1].peak_memory_mb > cells[0].peak_memory_mb


def test_benchmark_memory_run(benchmark, complete_results, incomplete_results):
    bench_representative(benchmark, airbnb_workload(RAW_ROWS),
                         Algorithm.DISTRIBUTED_COMPLETE, DIMENSIONS, 5)
