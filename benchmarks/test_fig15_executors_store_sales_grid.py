"""Figure 15: number of executors vs execution time on store_sales
(5M tuples in the paper, scaled here), one grid per dimension count.

Paper shape: on this larger dataset additional executors still help the
distributed complete algorithm (in contrast to the small Airbnb data of
Figure 14); the reference runs into timeouts on the incomplete variant
and is otherwise the slowest.
"""

from functools import partial

import pytest

from helpers import (assert_executors_help, assert_no_specialized_timeouts,
                     assert_reference_is_slowest_overall,
                     bench_representative, record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         executors_sweep, render_sweep)
from repro.core.algorithms import Algorithm
from repro.datasets import store_sales_workload

EXECUTOR_VALUES = [1, 2, 3, 5, 10]
DIMENSION_GRIDS = (4, 6)
ROWS = scaled(4000)
SIMULATED_TIMEOUT_S = 1.5


@pytest.fixture(scope="module", params=DIMENSION_GRIDS)
def complete_grid(request, shared_sweep):
    dims = request.param
    results = shared_sweep(executors_sweep,
                           partial(store_sales_workload, ROWS),
                           ALGORITHMS_COMPLETE, dims,
                           executor_values=EXECUTOR_VALUES)
    record(f"fig15_store_sales_complete_{dims}dims", render_sweep(
        f"Fig 15: store_sales complete, executors vs time "
        f"({ROWS} tuples, {dims} dims)",
        "executors", EXECUTOR_VALUES, results))
    return dims, results


@pytest.fixture(scope="module")
def incomplete_grid():
    workload = store_sales_workload(ROWS, incomplete=True)
    results = executors_sweep(workload, ALGORITHMS_INCOMPLETE, 6,
                              executor_values=EXECUTOR_VALUES,
                              simulated_timeout_s=SIMULATED_TIMEOUT_S)
    record("fig15_store_sales_incomplete_6dims", render_sweep(
        f"Fig 15: store_sales incomplete, executors vs time "
        f"({ROWS} tuples, 6 dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


def test_specialized_beat_reference(complete_grid):
    _, results = complete_grid
    assert_reference_is_slowest_overall(results, tolerance=1.05)


def test_executors_help_distributed_complete(complete_grid):
    dims, _ = complete_grid
    if dims >= 6:
        assert_executors_help(store_sales_workload(ROWS),
                              Algorithm.DISTRIBUTED_COMPLETE, dims,
                              EXECUTOR_VALUES[0], EXECUTOR_VALUES[-1])


def test_incomplete_no_specialized_timeouts(incomplete_grid):
    assert_no_specialized_timeouts(incomplete_grid)


def test_benchmark_representative(benchmark, complete_grid, incomplete_grid):
    bench_representative(benchmark, store_sales_workload(ROWS),
                         Algorithm.DISTRIBUTED_COMPLETE, 6, 10)
