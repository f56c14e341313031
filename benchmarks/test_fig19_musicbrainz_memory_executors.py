"""Figure 19: number of executors vs memory consumption for the complex
MusicBrainz queries.

Paper shape: memory grows with the executor count and stays comparable
across the algorithms.
"""

from functools import partial

import pytest

from helpers import (assert_memory_comparable, bench_representative,
                     record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, executors_sweep,
                         format_memory_table)
from repro.core.algorithms import Algorithm
from repro.datasets import musicbrainz_workload

EXECUTOR_VALUES = [1, 2, 3, 5, 10]
DIMENSIONS = 6
RECORDINGS = scaled(700)


@pytest.fixture(scope="module")
def results(shared_sweep):
    sweep = shared_sweep(executors_sweep,
                         partial(musicbrainz_workload, RECORDINGS),
                         ALGORITHMS_COMPLETE, DIMENSIONS,
                         executor_values=EXECUTOR_VALUES)
    record("fig19_musicbrainz_memory_executors", format_memory_table(
        f"Fig 19: musicbrainz, executors vs memory "
        f"({RECORDINGS} recordings, {DIMENSIONS} dims)",
        "executors", EXECUTOR_VALUES, sweep))
    return sweep


def test_memory_grows_with_executors(results):
    for cells in results.values():
        memory = [c.peak_memory_mb for c in cells if not c.timed_out]
        assert memory[-1] > memory[0]


def test_memory_comparable(results):
    assert_memory_comparable(results)


def test_benchmark_memory_run(benchmark, results):
    bench_representative(benchmark, musicbrainz_workload(RECORDINGS),
                         Algorithm.DISTRIBUTED_COMPLETE, DIMENSIONS, 10)
