"""Figure 7 / Tables 11-12: number of executors vs execution time on
store_sales (6 dimensions; complete at the largest size, incomplete at
half of it).

Paper shape: on this large dataset the distributed complete algorithm
clearly profits from executors while the non-distributed one cannot;
the reference times out at low executor counts (Table 11: t.o. for 1-5
executors) and stays slowest where it finishes.
"""

import pytest

from helpers import (assert_executors_help, assert_no_specialized_timeouts,
                     assert_reference_is_slowest_overall,
                     bench_representative, record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         executors_sweep, render_sweep)
from repro.core.algorithms import Algorithm
from repro.datasets import store_sales_workload

EXECUTOR_VALUES = [1, 2, 3, 5, 10]
DIMENSIONS = 6
COMPLETE_ROWS = scaled(8000)
INCOMPLETE_ROWS = scaled(4000)
#: Simulated budget chosen so the reference times out on few executors
#: but finishes on many (the Table 11 pattern).
SIMULATED_TIMEOUT_S = 1.0


@pytest.fixture(scope="module")
def complete_results():
    workload = store_sales_workload(COMPLETE_ROWS)
    results = executors_sweep(workload, ALGORITHMS_COMPLETE, DIMENSIONS,
                              executor_values=EXECUTOR_VALUES,
                              simulated_timeout_s=SIMULATED_TIMEOUT_S)
    record("fig7_tables11_store_sales_complete", render_sweep(
        f"Fig 7 left / Table 11: store_sales complete "
        f"({COMPLETE_ROWS} tuples, {DIMENSIONS} dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


@pytest.fixture(scope="module")
def incomplete_results():
    # No simulated timeout here: Table 12's reference column finishes at
    # almost all executor counts (a single t.o. at 5 executors).
    workload = store_sales_workload(INCOMPLETE_ROWS, incomplete=True)
    results = executors_sweep(workload, ALGORITHMS_INCOMPLETE,
                              DIMENSIONS,
                              executor_values=EXECUTOR_VALUES)
    record("fig7_tables12_store_sales_incomplete", render_sweep(
        f"Fig 7 right / Table 12: store_sales incomplete "
        f"({INCOMPLETE_ROWS} tuples, {DIMENSIONS} dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


def test_no_specialized_timeouts(complete_results):
    assert_no_specialized_timeouts(complete_results)


def test_reference_times_out_on_one_executor(complete_results):
    assert complete_results[Algorithm.REFERENCE][0].timed_out


def test_reference_finishes_with_many_executors(complete_results):
    # The reference "is also able to make (limited) use of parallelism".
    assert not complete_results[Algorithm.REFERENCE][-1].timed_out


def test_distributed_complete_profits_from_executors():
    assert_executors_help(store_sales_workload(COMPLETE_ROWS),
                          Algorithm.DISTRIBUTED_COMPLETE, DIMENSIONS,
                          EXECUTOR_VALUES[0], EXECUTOR_VALUES[-1])


def test_specialized_beat_reference(complete_results):
    assert_reference_is_slowest_overall(complete_results)


def test_incomplete_beats_reference(incomplete_results):
    assert_reference_is_slowest_overall(incomplete_results,
                                        tolerance=1.1)


def test_benchmark_distributed_complete(benchmark, complete_results, incomplete_results):
    bench_representative(benchmark, store_sales_workload(COMPLETE_ROWS),
                         Algorithm.DISTRIBUTED_COMPLETE, DIMENSIONS, 10)
