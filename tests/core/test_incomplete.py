"""Incomplete-data skyline computation (Section 5.7, Appendix A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DOUBLE, STRING, connect
from repro.core import (BoundDimension, DimensionKind,
                        dominates_incomplete, flagged_global_skyline,
                        gulzar_global_skyline, make_dimensions, null_bitmap,
                        reference)
from repro.core.vectorized import pack_by_null_bitmap, skyline_task
from repro.engine.batch import ColumnBatch
from repro.plan import physical as P
from tests.conftest import skyline_oracle

DIMS3 = [BoundDimension(i, DimensionKind.MIN) for i in range(3)]
DIMS2 = [BoundDimension(i, DimensionKind.MIN) for i in range(2)]

maybe_int = st.one_of(st.none(), st.integers(0, 6))
rows_with_nulls = st.lists(st.tuples(maybe_int, maybe_int, maybe_int),
                           max_size=40)


def bitmap_local_phase(rows, dims, bins=2):
    """The ``bitmap-local`` phase as ``SkylineLocalExec`` runs it: whole
    null-bitmap groups packed into ``bins`` tasks, BNL under the
    restricted test per group inside each."""
    return [row for piece in pack_by_null_bitmap([rows], dims, bins)
            for row in skyline_task(piece, dims, "bitmap-local",
                                    vectorized=False)[0]]


# The cyclic counterexample of Section 3 / Appendix A.
CYCLE_A = (1, None, 10)
CYCLE_B = (3, 2, None)
CYCLE_C = (None, 5, 3)


class TestBitmapPartitioning:
    def test_rows_grouped_by_null_pattern(self):
        rows = [(1, 2, 3), (None, 1, 1), (4, 5, 6), (None, 2, 2),
                (1, None, None)]
        assert pack_by_null_bitmap([rows], DIMS3, 8) == [
            [(1, 2, 3), (4, 5, 6)], [(None, 1, 1), (None, 2, 2)],
            [(1, None, None)]]
        # One bin: the groups stay contiguous, in first-seen order.
        assert pack_by_null_bitmap([rows], DIMS3, 1) == [
            [(1, 2, 3), (4, 5, 6), (None, 1, 1), (None, 2, 2),
             (1, None, None)]]

    def test_counterexample_tuples_land_in_distinct_partitions(self):
        partitions = pack_by_null_bitmap([[CYCLE_A, CYCLE_B, CYCLE_C]],
                                         DIMS3, 3)
        assert partitions == [[CYCLE_A], [CYCLE_B], [CYCLE_C]]

    @given(rows_with_nulls, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_partitioning_is_lossless(self, rows, bins):
        partitions = pack_by_null_bitmap([rows], DIMS3, bins)
        recovered = [row for p in partitions for row in p]
        assert sorted(recovered, key=repr) == sorted(rows, key=repr)


class TestLocalSkylines:
    def test_dominance_detected_within_partition(self):
        rows = [(None, 1, 1), (None, 2, 2)]
        assert bitmap_local_phase(rows, DIMS3) == [(None, 1, 1)]

    def test_no_elimination_across_partitions(self):
        # a dominates b but they live in different bitmap groups, so
        # the local stage must keep both.
        result = bitmap_local_phase([CYCLE_A, CYCLE_B], DIMS3)
        assert sorted(result, key=repr) == sorted([CYCLE_A, CYCLE_B],
                                                  key=repr)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_one_task_keeps_each_bitmap_apart(self, vectorized):
        # Three groups in one task: no window spans two of them, so the
        # cycle survives the local phase whole (one window over all
        # three would keep only c, and the global phase would agree).
        rows = [CYCLE_A, CYCLE_B, CYCLE_C]
        assert skyline_task(rows, DIMS3, "bitmap-local",
                            vectorized=vectorized)[0] == rows


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

    @given(rows_with_nulls, st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_pipeline_equals_direct_global(self, rows, bins):
        local = bitmap_local_phase(rows, DIMS3, bins)
        via_pipeline = flagged_global_skyline(local, DIMS3)
        direct = skyline_oracle(rows, DIMS3, complete=False)
        assert sorted(via_pipeline, key=repr) == sorted(direct, key=repr)

    @given(rows_with_nulls, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_every_eliminated_tuple_has_surviving_dominator(self, rows,
                                                            bins):
        local = bitmap_local_phase(rows, DIMS3, bins)
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


# -- the engine: whole groups per task, the all-pairs answer -------------

NAN = float("nan")
#: NULL and NaN each about one value in seven.
cell = st.sampled_from([None, 0.0, 1.0, 1.5, 2.0, 3.0, NAN])
engine_rows = st.lists(
    st.tuples(cell, cell, cell, st.sampled_from(["x", "y", None])),
    max_size=40)


class TestEngineLocalTasks:
    """The engine's ``distributed-incomplete`` plan against the all-pairs
    reference, over random null bitmaps, executor counts, DIFF
    dimensions, NaN data, DISTINCT and both data planes -- with every
    null-bitmap group whole in one local task."""

    @given(rows=engine_rows, executors=st.integers(1, 8),
           diff=st.booleans(), distinct=st.booleans(),
           columnar=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_with_whole_groups(self, rows, executors,
                                                 diff, distinct, columnar):
        width = 4 if diff else 3
        dims = make_dimensions([(0, "min"), (1, "max"), (2, "min")]
                               + [(3, "diff")] * diff)
        session = connect(num_executors=executors, columnar=columnar,
                          vectorized=columnar)
        session.create_table("t", [("a", DOUBLE, True), ("b", DOUBLE, True),
                                   ("c", DOUBLE, True), ("g", STRING, True)],
                             rows)
        sql = (f"SELECT {'a, b, c, g' if diff else 'a, b, c'} FROM t "
               f"SKYLINE OF {'DISTINCT ' * distinct}a MIN, b MAX, c MIN"
               + ", g DIFF" * diff)
        tasks = []
        local_task = P._local_skyline_task

        def spy(partition, *args, **kwargs):
            tasks.append(partition.to_rows()
                         if isinstance(partition, ColumnBatch)
                         else list(partition))
            return local_task(partition, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(P, "_local_skyline_task", spy)
            got = session.sql(sql).run().as_tuples()
        projected = [row[:width] for row in rows]
        expected = reference([projected], dims, distinct, complete=False)
        assert sorted(map(repr, got)) == sorted(map(repr, expected))
        assert 1 <= len(tasks) <= executors
        seen = [{null_bitmap(row, dims) for row in task} for task in tasks]
        for i, bitmaps in enumerate(seen):
            for other in seen[i + 1:]:
                assert not bitmaps & other, "a bitmap group spans two tasks"
