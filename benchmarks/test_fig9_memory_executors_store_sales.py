"""Figure 9: number of executors vs peak memory consumption on
store_sales (6 dimensions, 5M tuples in the paper, scaled here).

Paper shape: memory rises with the executor count for all algorithms;
the distributed complete algorithm's window makes it the (slightly)
heaviest consumer.
"""

from functools import partial

import pytest

from helpers import (assert_memory_comparable, bench_representative,
                     record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         executors_sweep, format_memory_table)
from repro.core.algorithms import Algorithm
from repro.datasets import store_sales_workload

EXECUTOR_VALUES = [1, 2, 3, 5, 10]
DIMENSIONS = 6
ROWS = scaled(4000)


@pytest.fixture(scope="module")
def complete_results(shared_sweep):
    results = shared_sweep(executors_sweep,
                           partial(store_sales_workload, ROWS),
                           ALGORITHMS_COMPLETE, DIMENSIONS,
                           executor_values=EXECUTOR_VALUES)
    record("fig9_memory_store_sales_complete", format_memory_table(
        f"Fig 9 left: store_sales complete, executors vs memory "
        f"({ROWS} tuples)", "executors", EXECUTOR_VALUES, results))
    return results


@pytest.fixture(scope="module")
def incomplete_results():
    workload = store_sales_workload(ROWS, incomplete=True)
    results = executors_sweep(workload, ALGORITHMS_INCOMPLETE,
                              DIMENSIONS,
                              executor_values=EXECUTOR_VALUES)
    record("fig9_memory_store_sales_incomplete", format_memory_table(
        f"Fig 9 right: store_sales incomplete, executors vs memory "
        f"({ROWS} tuples)", "executors", EXECUTOR_VALUES, results))
    return results


def test_memory_monotone_in_executors(complete_results):
    for cells in complete_results.values():
        memory = [c.peak_memory_mb for c in cells]
        assert all(b >= a for a, b in zip(memory, memory[1:]))


def test_memory_comparable(complete_results):
    assert_memory_comparable(complete_results)


def test_incomplete_variant_recorded(incomplete_results):
    assert all(len(v) == len(EXECUTOR_VALUES)
               for v in incomplete_results.values())


def test_benchmark_memory_run(benchmark, complete_results, incomplete_results):
    bench_representative(benchmark, store_sales_workload(ROWS),
                         Algorithm.DISTRIBUTED_INCOMPLETE, DIMENSIONS, 5)
