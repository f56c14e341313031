"""Incomplete-data skyline computation (Section 5.7, Appendix A)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BoundDimension, DimensionKind,
                        dominates_incomplete, flagged_global_skyline,
                        gulzar_global_skyline, partition_by_null_bitmap)
from repro.core.vectorized import skyline_task, split_by_null_bitmap
from tests.conftest import skyline_oracle

DIMS3 = [BoundDimension(i, DimensionKind.MIN) for i in range(3)]
DIMS2 = [BoundDimension(i, DimensionKind.MIN) for i in range(2)]

maybe_int = st.one_of(st.none(), st.integers(0, 6))
rows_with_nulls = st.lists(st.tuples(maybe_int, maybe_int, maybe_int),
                           max_size=40)


def bitmap_local_phase(rows, dims):
    """The ``bitmap-local`` phase: BNL under the restricted test inside
    each null-bitmap piece, as ``SkylineLocalExec`` runs it."""
    return [row for piece in split_by_null_bitmap(rows, dims).values()
            for row in skyline_task(piece, dims, "bitmap-local",
                                    vectorized=False)[0]]


# The cyclic counterexample of Section 3 / Appendix A.
CYCLE_A = (1, None, 10)
CYCLE_B = (3, 2, None)
CYCLE_C = (None, 5, 3)


class TestBitmapPartitioning:
    def test_rows_grouped_by_null_pattern(self):
        rows = [(1, 2, 3), (4, 5, 6), (None, 1, 1), (None, 2, 2),
                (1, None, None)]
        partitions = partition_by_null_bitmap(rows, DIMS3)
        assert sorted(partitions.keys()) == [0b000, 0b001, 0b110]
        assert partitions[0b000] == [(1, 2, 3), (4, 5, 6)]
        assert partitions[0b001] == [(None, 1, 1), (None, 2, 2)]
        assert partitions[0b110] == [(1, None, None)]

    def test_counterexample_tuples_land_in_distinct_partitions(self):
        partitions = partition_by_null_bitmap([CYCLE_A, CYCLE_B, CYCLE_C],
                                              DIMS3)
        assert len(partitions) == 3
        assert all(len(p) == 1 for p in partitions.values())

    @given(rows_with_nulls)
    @settings(max_examples=50, deadline=None)
    def test_partitioning_is_lossless(self, rows):
        partitions = partition_by_null_bitmap(rows, DIMS3)
        recovered = [row for p in partitions.values() for row in p]
        assert sorted(recovered, key=repr) == sorted(rows, key=repr)


class TestLocalSkylines:
    def test_dominance_detected_within_partition(self):
        rows = [(None, 1, 1), (None, 2, 2)]
        assert bitmap_local_phase(rows, DIMS3) == [(None, 1, 1)]

    def test_no_elimination_across_partitions(self):
        # a dominates b but they live in different bitmap partitions, so
        # the local stage must keep both.
        result = bitmap_local_phase([CYCLE_A, CYCLE_B], DIMS3)
        assert sorted(result, key=repr) == sorted([CYCLE_A, CYCLE_B],
                                                  key=repr)

    def test_each_null_bitmap_is_its_own_piece(self):
        pieces = split_by_null_bitmap([CYCLE_A, CYCLE_B, CYCLE_C], DIMS3)
        assert sorted(map(len, pieces.values())) == [1, 1, 1]


class TestFlaggedGlobalSkyline:
    def test_cycle_yields_empty_skyline(self):
        # Every tuple is dominated by another: the correct result is {}.
        result = flagged_global_skyline([CYCLE_A, CYCLE_B, CYCLE_C], DIMS3)
        assert result == []

    def test_complete_rows_behave_classically(self):
        rows = [(1, 1, 1), (2, 2, 2), (0, 3, 3)]
        result = flagged_global_skyline(rows, DIMS3)
        assert sorted(result) == [(0, 3, 3), (1, 1, 1)]

    def test_dominated_witness_still_eliminates(self):
        # q is dominated by r, but q is the only witness against p:
        # deleting q before it eliminates p would be wrong.
        r = (1, None)     # r ≺ q on dim 0
        q = (2, 1)        # q ≺ p on both dims
        p = (3, 2)
        result = flagged_global_skyline([p, q, r], DIMS2)
        assert sorted(result, key=repr) == sorted([r], key=repr)

    def test_distinct_deduplicates_on_dimensions(self):
        rows = [(1, 1, "x"), (1, 1, "y")]
        dims = DIMS2
        result = flagged_global_skyline(rows, dims, distinct=True)
        assert len(result) == 1

    @given(rows_with_nulls)
    @settings(max_examples=100, deadline=None)
    def test_matches_definition_oracle(self, rows):
        result = flagged_global_skyline(rows, DIMS3)
        expected = skyline_oracle(rows, DIMS3, complete=False)
        assert sorted(result, key=repr) == sorted(expected, key=repr)


class TestLemma51:
    """Lemma 5.1: local bitmap skylines preserve the global skyline."""

    @given(rows_with_nulls)
    @settings(max_examples=100, deadline=None)
    def test_pipeline_equals_direct_global(self, rows):
        local = bitmap_local_phase(rows, DIMS3)
        via_pipeline = flagged_global_skyline(local, DIMS3)
        direct = skyline_oracle(rows, DIMS3, complete=False)
        assert sorted(via_pipeline, key=repr) == sorted(direct, key=repr)

    @given(rows_with_nulls)
    @settings(max_examples=60, deadline=None)
    def test_every_eliminated_tuple_has_surviving_dominator(self, rows):
        local = bitmap_local_phase(rows, DIMS3)
        local_set = {id(r) for r in local}
        for p in rows:
            in_global = not any(
                dominates_incomplete(q, p, DIMS3) for q in rows)
            if in_global:
                continue
            # Lemma 5.1: p is either gone locally or dominated by a
            # member of the local union.
            if id(p) in local_set or p in local:
                assert any(dominates_incomplete(q, p, DIMS3)
                           for q in local)


class TestGulzarCounterexample:
    """Appendix A: the algorithm of [20] is incorrect under cycles."""

    def test_returns_wrong_nonempty_skyline_on_cycle(self):
        clusters = [[CYCLE_A], [CYCLE_B], [CYCLE_C]]
        result = gulzar_global_skyline(clusters, DIMS3)
        # The buggy algorithm keeps c although c is dominated by b.
        assert result == [CYCLE_C]
        # Whereas the correct algorithm returns the empty skyline.
        assert flagged_global_skyline(
            [CYCLE_A, CYCLE_B, CYCLE_C], DIMS3) == []

    def test_agrees_with_correct_algorithm_without_cycles(self):
        clusters = [[(1, 1, 1)], [(2, 2, 2), (0, 3, 3)]]
        rows = [row for cluster in clusters for row in cluster]
        assert sorted(gulzar_global_skyline(clusters, DIMS3)) == \
            sorted(flagged_global_skyline(rows, DIMS3))
