"""Figure 17: number of dimensions vs memory consumption for the
complex MusicBrainz queries.

Paper shape: memory is essentially flat in the dimension count and
comparable across algorithms (with occasional reference peaks).
"""

from functools import partial

import pytest

from helpers import (assert_memory_comparable, bench_representative,
                     record, scaled)
from repro.bench import (ALGORITHMS_COMPLETE, dimensions_sweep,
                         format_memory_table)
from repro.core.algorithms import Algorithm
from repro.datasets import musicbrainz_workload

DIMS = list(range(1, 7))
EXECUTORS = 3
RECORDINGS = scaled(700)


@pytest.fixture(scope="module")
def results(shared_sweep):
    sweep = shared_sweep(dimensions_sweep,
                         partial(musicbrainz_workload, RECORDINGS),
                         ALGORITHMS_COMPLETE, EXECUTORS,
                         dimension_values=DIMS)
    record("fig17_musicbrainz_memory_dims", format_memory_table(
        f"Fig 17: musicbrainz, dims vs memory "
        f"({RECORDINGS} recordings, {EXECUTORS} executors)",
        "dimensions", DIMS, sweep))
    return sweep


def test_memory_flat_in_dimensions(results):
    for cells in results.values():
        memory = [c.peak_memory_mb for c in cells if not c.timed_out]
        assert max(memory) < 1.5 * min(memory)


def test_memory_comparable_across_algorithms(results):
    assert_memory_comparable(results)


def test_benchmark_memory_run(benchmark, results):
    bench_representative(benchmark, musicbrainz_workload(RECORDINGS),
                         Algorithm.NON_DISTRIBUTED_COMPLETE, 6, EXECUTORS)
