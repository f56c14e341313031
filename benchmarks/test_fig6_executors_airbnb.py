"""Figure 6 / Tables 9-10: number of executors vs execution time on the
Inside Airbnb dataset (6 dimensions).

Paper shape: the dataset is small, so extra executors barely help the
specialized algorithms (Section 6.4's "sweet spot" discussion); the
reference stays the slowest at every executor count (Table 9: the
specialized algorithms run at 29-54% of the reference).
"""

from functools import partial

import pytest

from helpers import (assert_reference_is_slowest_overall,
                     bench_representative, record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         executors_sweep, render_sweep)
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
    record("fig6_tables9_airbnb_complete", render_sweep(
        f"Fig 6 left / Table 9: airbnb complete "
        f"({workload.num_rows} tuples, {DIMENSIONS} dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


@pytest.fixture(scope="module")
def incomplete_results(shared_sweep):
    workload = airbnb_workload(RAW_ROWS, incomplete=True)
    results = shared_sweep(executors_sweep,
                           partial(airbnb_workload, RAW_ROWS, incomplete=True),
                           ALGORITHMS_INCOMPLETE, DIMENSIONS,
                           executor_values=EXECUTOR_VALUES)
    record("fig6_tables10_airbnb_incomplete", render_sweep(
        f"Fig 6 right / Table 10: airbnb incomplete "
        f"({workload.num_rows} tuples, {DIMENSIONS} dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


def test_reference_never_wins(complete_results):
    for i in range(len(EXECUTOR_VALUES)):
        reference = complete_results[Algorithm.REFERENCE][i]
        best = min(cells[i].simulated_time_s
                   for a, cells in complete_results.items()
                   if a is not Algorithm.REFERENCE)
        assert best < reference.simulated_time_s


def test_specialized_beat_reference_overall(complete_results):
    assert_reference_is_slowest_overall(complete_results)


def test_small_dataset_barely_profits_from_executors(complete_results):
    """Section 6.4: for this small dataset the distributed complete
    algorithm hardly profits from more executors."""
    cells = complete_results[Algorithm.DISTRIBUTED_COMPLETE]
    times = [c.simulated_time_s for c in cells]
    assert min(times) > 0.3 * max(times)


def test_incomplete_beats_reference(incomplete_results):
    assert_reference_is_slowest_overall(incomplete_results)


def test_benchmark_ten_executors(benchmark, complete_results, incomplete_results):
    bench_representative(benchmark, airbnb_workload(RAW_ROWS),
                         Algorithm.DISTRIBUTED_COMPLETE, DIMENSIONS, 10)
