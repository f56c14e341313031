"""Figure 18: number of executors vs execution time for the complex
MusicBrainz queries, one grid per dimension count.

Paper shape: there is an executor sweet spot (around 3 in the paper)
beyond which extra distribution/synchronisation stops paying off; the
reference stays above the specialized algorithms except in the very
easiest cells.
"""

from functools import partial

import pytest

from helpers import (assert_reference_is_slowest_overall,
                     bench_representative, record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         executors_sweep, render_sweep)
from repro.core.algorithms import Algorithm
from repro.datasets import musicbrainz_workload

EXECUTOR_VALUES = [1, 2, 3, 5, 10]
DIMENSION_GRIDS = (3, 6)
RECORDINGS = scaled(700)


@pytest.fixture(scope="module", params=DIMENSION_GRIDS)
def complete_grid(request, shared_sweep):
    dims = request.param
    results = shared_sweep(executors_sweep,
                           partial(musicbrainz_workload, RECORDINGS),
                           ALGORITHMS_COMPLETE, dims,
                           executor_values=EXECUTOR_VALUES)
    record(f"fig18_musicbrainz_complete_{dims}dims", render_sweep(
        f"Fig 18: musicbrainz, executors vs time ({dims} dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


@pytest.fixture(scope="module")
def incomplete_grid():
    workload = musicbrainz_workload(RECORDINGS, incomplete=True)
    results = executors_sweep(workload, ALGORITHMS_INCOMPLETE, 6,
                              executor_values=EXECUTOR_VALUES)
    record("fig18_musicbrainz_incomplete_6dims", render_sweep(
        "Fig 18: musicbrainz incomplete, executors vs time (6 dims)",
        "executors", EXECUTOR_VALUES, results))
    return results


def test_reference_slowest_overall(complete_grid):
    assert_reference_is_slowest_overall(complete_grid, tolerance=1.15)


def test_no_timeouts_for_specialized(complete_grid):
    for algorithm, cells in complete_grid.items():
        if algorithm is Algorithm.REFERENCE:
            continue
        assert all(not c.timed_out for c in cells)


def test_incomplete_runs(incomplete_grid):
    assert_reference_is_slowest_overall(incomplete_grid, tolerance=1.15)


def test_benchmark_representative(benchmark, complete_grid, incomplete_grid):
    bench_representative(benchmark, musicbrainz_workload(RECORDINGS),
                         Algorithm.DISTRIBUTED_COMPLETE, 6, 3)
