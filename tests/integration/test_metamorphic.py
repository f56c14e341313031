"""Metamorphic property tests for the skyline kernels.

Each property relates the skyline of a transformed input to the skyline
of the original *without* re-deriving it from an oracle:

* row shuffling never changes the skyline (as a multiset);
* injecting duplicates of skyline rows adds exactly those copies
  (and changes nothing under DISTINCT);
* monotone rescaling of MIN/MAX dimensions preserves skyline
  *membership* (tracked through an id column);
* inserting rows dominated by an existing row never changes the result.

Every property runs against the scalar and the vectorized kernels, at
both the library level and through the engine pipeline.
"""

from __future__ import annotations

import random

import pytest

from repro import connect
from repro.core import bnl_skyline, make_dimensions
from repro.core.vectorized import skyline_task
from repro.engine.types import DOUBLE, INTEGER

SEED = 99
DIMS = make_dimensions([(1, "min"), (2, "max"), (3, "min")])


def vectorized_bnl(rows, dims, distinct=False):
    return skyline_task(rows, dims, "complete", distinct)[0]


KERNELS = [pytest.param(bnl_skyline, id="scalar"),
           pytest.param(vectorized_bnl, id="vectorized")]


def make_rows(n: int = 120, seed: int = SEED) -> list[tuple]:
    rng = random.Random(seed)
    return [(i, rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]),
             rng.uniform(0, 2), rng.randrange(5))
            for i in range(n)]


def srt(rows):
    return sorted(rows, key=repr)


@pytest.mark.parametrize("kernel", KERNELS)
class TestShuffleInvariance:
    def test_skyline_is_order_independent(self, kernel):
        rows = make_rows()
        baseline = srt(kernel(rows, DIMS))
        for seed in range(3):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            assert srt(kernel(shuffled, DIMS)) == baseline


@pytest.mark.parametrize("kernel", KERNELS)
class TestDuplicateInjection:
    def test_duplicates_of_skyline_rows_are_kept(self, kernel):
        rows = make_rows()
        baseline = kernel(rows, DIMS)
        dup = baseline[0]
        augmented = rows + [dup]
        assert srt(kernel(augmented, DIMS)) == srt(baseline + [dup])

    def test_distinct_collapses_duplicates(self, kernel):
        rows = make_rows()
        baseline = kernel(rows, DIMS, distinct=True)
        # Duplicate every skyline row: DISTINCT output is unchanged on
        # the skyline dimensions (one representative per value set).
        augmented = rows + [row for row in baseline]
        result = kernel(augmented, DIMS, distinct=True)
        assert {r[1:] for r in result} == {r[1:] for r in baseline}
        assert len(result) == len(baseline)


@pytest.mark.parametrize("kernel", KERNELS)
class TestMonotoneRescaling:
    def test_rescaling_preserves_membership(self, kernel):
        rows = make_rows()
        baseline_ids = {r[0] for r in kernel(rows, DIMS)}
        # Strictly increasing maps per kind: MIN x -> 3x + 1,
        # MAX x -> 2x - 5 -- dominance comparisons are unchanged.
        rescaled = [(i, 3 * a + 1, 2 * b - 5, 3 * c + 1)
                    for i, a, b, c in rows]
        assert {r[0] for r in kernel(rescaled, DIMS)} == baseline_ids


@pytest.mark.parametrize("kernel", KERNELS)
class TestDominatedInsertion:
    def test_dominated_rows_never_change_the_result(self, kernel):
        rows = make_rows()
        baseline = srt(kernel(rows, DIMS))
        anchor = rows[0]
        # Strictly worse in every value dimension (MIN up, MAX down).
        dominated = [(1000 + j, anchor[1] + 1 + j, anchor[2] - 1 - j,
                      anchor[3] + 1 + j) for j in range(5)]
        assert srt(kernel(rows + dominated, DIMS)) == baseline
        assert srt(kernel(dominated + rows, DIMS)) == baseline


@pytest.mark.parametrize("vectorized", [False, True])
class TestEnginePipelineMetamorphic:
    """The same properties through SQL, exercising scan partitioning."""

    SQL = "SELECT * FROM t SKYLINE OF a MIN, b MAX, c MIN"

    def _run(self, rows, vectorized):
        session = connect(num_executors=3, vectorized=vectorized)
        session.create_table(
            "t",
            [("id", INTEGER, False), ("a", DOUBLE, False),
             ("b", DOUBLE, False), ("c", DOUBLE, False)],
            rows)
        return srt(session.sql(self.SQL).to_tuples())

    def test_shuffle_and_dominated_insertion(self, vectorized):
        rows = make_rows(90)
        baseline = self._run(rows, vectorized)
        shuffled = list(rows)
        random.Random(5).shuffle(shuffled)
        assert self._run(shuffled, vectorized) == baseline
        worst = [(2000, 99.0, -99.0, 99.0)]
        assert self._run(rows + worst, vectorized) == baseline
