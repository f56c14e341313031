"""Figure 16 / Appendix E: number of dimensions vs execution time for
the complex MusicBrainz queries (joins + aggregates below the skyline).

Paper shape: results mirror the simple queries -- the reference (the
unwieldy Listing 13 rewrite, which executes the join/aggregate pipeline
twice and anti-joins the results) is almost always slowest; only the
very easiest cases are close.
"""

from functools import partial

import pytest

from helpers import (assert_reference_is_slowest_overall,
                     bench_representative, record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE,
                         dimensions_sweep, render_sweep)
from repro.core.algorithms import Algorithm
from repro.datasets import musicbrainz_workload

DIMS = list(range(1, 7))
EXECUTOR_GRIDS = (1, 3, 10)
RECORDINGS = scaled(700)


@pytest.fixture(scope="module", params=EXECUTOR_GRIDS)
def complete_grid(request, shared_sweep):
    executors = request.param
    results = shared_sweep(dimensions_sweep,
                           partial(musicbrainz_workload, RECORDINGS),
                           ALGORITHMS_COMPLETE, executors,
                           dimension_values=DIMS)
    record(f"fig16_musicbrainz_complete_{executors}executors",
           render_sweep(
               f"Fig 16: musicbrainz complex queries, dims vs time "
               f"({RECORDINGS} recordings, {executors} executors)",
               "dimensions", DIMS, results))
    return results


@pytest.fixture(scope="module")
def incomplete_grid():
    workload = musicbrainz_workload(RECORDINGS, incomplete=True)
    results = dimensions_sweep(workload, ALGORITHMS_INCOMPLETE, 3,
                               dimension_values=DIMS)
    record("fig16_musicbrainz_incomplete_3executors", render_sweep(
        f"Fig 16: musicbrainz incomplete complex queries, dims vs time "
        f"({RECORDINGS} recordings, 3 executors)",
        "dimensions", DIMS, results))
    return results


def test_reference_slowest_overall(complete_grid):
    assert_reference_is_slowest_overall(complete_grid, tolerance=1.1)


def test_all_algorithms_agree_on_result_size(complete_grid):
    for i in range(len(DIMS)):
        sizes = {cells[i].result_rows
                 for cells in complete_grid.values()
                 if not cells[i].timed_out}
        assert len(sizes) == 1


def test_incomplete_complex_queries_run(incomplete_grid):
    for cells in incomplete_grid.values():
        assert all(not c.timed_out for c in cells)


def test_benchmark_complex_skyline(benchmark, complete_grid, incomplete_grid):
    bench_representative(benchmark, musicbrainz_workload(RECORDINGS),
                         Algorithm.DISTRIBUTED_COMPLETE, 6, 3)
