"""Pairwise-merge kernels and the hierarchical merge driver.

The load-bearing invariant: merging local skylines pairwise (in any
tree shape, at any fan-in) must reproduce the flat
``bnl_skyline(concat(partials))`` output **bit-identically, order
included** -- the property the distributed tournament-tree global
phase rests on.  Property tests drive adversarial value ranges
(+/-inf, huge ties, duplicates); the NaN/None cases pin the
non-transitivity fallback.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BoundDimension, DimensionKind, bnl_skyline,
                        build_summaries, columnize, hierarchical_merge,
                        merge_round_sizes, merge_skylines,
                        merge_unsafe_reason, tree_shape,
                        vec_merge_skylines)
from repro.core.merge import (make_merge_counters, merge_task,
                              reduce_group, summary_disjoint,
                              summary_dominates)
from repro.core.vectorized import numpy_available

MIN2 = [BoundDimension(0, DimensionKind.MIN),
        BoundDimension(1, DimensionKind.MIN)]
MINMAX = [BoundDimension(0, DimensionKind.MIN),
          BoundDimension(1, DimensionKind.MAX)]
MMD = [BoundDimension(0, DimensionKind.MIN),
       BoundDimension(1, DimensionKind.MAX),
       BoundDimension(2, DimensionKind.DIFF)]

#: Adversarial coordinates: ties, +/-inf, and values whose difference
#: underflows float precision.
coord = st.one_of(
    st.integers(0, 3),
    st.sampled_from([0.0, -0.0, 1e16, 1e16 + 1, float("inf"),
                     float("-inf")]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
rows_2d = st.lists(st.tuples(coord, coord), max_size=40)
partials_2d = st.lists(rows_2d, min_size=1, max_size=6)


def split(rows, pieces):
    """Deterministic consecutive split into ``pieces`` chunks."""
    size = max(1, -(-len(rows) // pieces)) if rows else 1
    return [rows[i:i + size] for i in range(0, len(rows), size)] or [[]]


def merged_via(partials, dims, distinct=False, **kwargs):
    locals_ = [bnl_skyline(p, dims, distinct=distinct) for p in partials]
    return hierarchical_merge(locals_, dims, distinct=distinct, **kwargs)


class TestMergeSkylines:
    def test_empty_sides(self):
        assert merge_skylines([], [], MIN2) == []
        assert merge_skylines([(1, 1)], [], MIN2) == [(1, 1)]
        assert merge_skylines([], [(1, 1)], MIN2) == [(1, 1)]

    def test_mutual_filter(self):
        # (0, 3) kills (1, 4); (2, 0) kills (3, 1); incomparables stay.
        out = merge_skylines([(0, 3), (3, 1)], [(1, 4), (2, 0)], MIN2)
        assert out == [(0, 3), (2, 0)]

    def test_order_is_left_survivors_then_right_survivors(self):
        out = merge_skylines([(1, 3), (3, 1)], [(2, 2)], MIN2)
        assert out == [(1, 3), (3, 1), (2, 2)]

    def test_duplicates_kept_without_distinct(self):
        assert merge_skylines([(1, 1)], [(1, 1)], MIN2) == \
            [(1, 1), (1, 1)]

    def test_distinct_drops_right_twin(self):
        # The incumbent (left) representative survives, matching BNL.
        out = merge_skylines([(1, 1, "L")], [(1, 1, "R")], MIN2,
                             distinct=True)
        assert out == [(1, 1, "L")]

    def test_diff_dimension_partitions_comparisons(self):
        left = [(1.0, 5.0, "a"), (9.0, 9.0, "b")]
        right = [(0.0, 9.0, "a"), (1.0, 1.0, "b")]
        out = merge_skylines(left, right, MMD)
        flat = bnl_skyline(left + right, MMD)
        assert sorted(out) == sorted(flat)

    @given(rows_2d, rows_2d)
    @settings(max_examples=120, deadline=None)
    def test_matches_flat_bnl_bit_identically(self, a, b):
        left = bnl_skyline(a, MIN2)
        right = bnl_skyline(b, MIN2)
        assert merge_skylines(left, right, MIN2) == \
            bnl_skyline(left + right, MIN2)

    @given(rows_2d, rows_2d)
    @settings(max_examples=120, deadline=None)
    def test_matches_flat_bnl_distinct(self, a, b):
        left = bnl_skyline(a, MIN2, distinct=True)
        right = bnl_skyline(b, MIN2, distinct=True)
        assert merge_skylines(left, right, MIN2, distinct=True) == \
            bnl_skyline(left + right, MIN2, distinct=True)

    @pytest.mark.skipif(not numpy_available(), reason="requires NumPy")
    @given(rows_2d, rows_2d, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_vectorized_matches_scalar(self, a, b, distinct):
        left = bnl_skyline(a, MINMAX, distinct=distinct)
        right = bnl_skyline(b, MINMAX, distinct=distinct)
        assert vec_merge_skylines(left, right, MINMAX,
                                  distinct=distinct) == \
            merge_skylines(left, right, MINMAX, distinct=distinct)


class TestHierarchicalMergeProperties:
    @given(partials_2d, st.integers(2, 4), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_flat_bnl_over_concatenation(self, partials, fan_in,
                                                distinct):
        """Order-invariance anchor: the tree output must equal the flat
        skyline of the partials concatenated *as given*."""
        out = merged_via(partials, MIN2, distinct=distinct,
                         fan_in=fan_in)
        flat = bnl_skyline([r for p in partials for r in p], MIN2,
                           distinct=distinct)
        assert out == flat

    @given(partials_2d, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_associativity_fan_in_independent(self, partials, distinct):
        results = {
            tuple(merged_via(partials, MIN2, distinct=distinct,
                             fan_in=fan_in))
            for fan_in in (2, 3, 4)}
        assert len(results) == 1

    @given(rows_2d, st.integers(2, 5))
    @settings(max_examples=80, deadline=None)
    def test_partitioning_invariance(self, rows, pieces):
        """Same rows, any consecutive split -> same skyline set."""
        out = merged_via(split(rows, pieces), MIN2)
        assert sorted(out) == sorted(bnl_skyline(rows, MIN2))

    @given(rows_2d)
    @settings(max_examples=60, deadline=None)
    def test_idempotence_under_distinct(self, rows):
        once = bnl_skyline(rows, MIN2, distinct=True)
        assert hierarchical_merge([once, list(once)], MIN2,
                                  distinct=True) == once

    @given(rows_2d)
    @settings(max_examples=60, deadline=None)
    def test_self_merge_keeps_duplicates_without_distinct(self, rows):
        # Without DISTINCT, duplicates are skyline members: merging a
        # skyline with a copy of itself must keep both copies, exactly
        # as the flat BNL over the doubled input does.
        once = bnl_skyline(rows, MIN2)
        assert hierarchical_merge([once, list(once)], MIN2) == \
            bnl_skyline(once + once, MIN2)

    @given(partials_2d)
    @settings(max_examples=60, deadline=None)
    def test_summaries_do_not_change_answers(self, partials):
        with_s = merged_via(partials, MIN2, use_summaries=True)
        without = merged_via(partials, MIN2, use_summaries=False)
        assert with_s == without

    @pytest.mark.skipif(not numpy_available(), reason="requires NumPy")
    @given(partials_2d, st.integers(2, 4), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_vectorized_driver_matches_flat(self, partials, fan_in,
                                            distinct):
        out = merged_via(partials, MINMAX, distinct=distinct,
                         fan_in=fan_in, vectorized=True)
        flat = bnl_skyline([r for p in partials for r in p], MINMAX,
                           distinct=distinct)
        assert out == flat

    def test_counters_record_tree(self):
        partials = [[(i, 10 - i)] for i in range(5)]
        counters = make_merge_counters()
        hierarchical_merge(partials, MIN2, fan_in=2, counters=counters)
        assert counters["rounds"] == len(merge_round_sizes(5, 2)) - 1
        assert counters["fallback"] is None


class TestNonTransitiveFallback:
    # dims = 2x MIN; t = (0, nan) dominates s = (1, 4); s dominates
    # a = (nan, 5); t does NOT dominate a.  Flat BNL over [t, a, s]
    # keeps [t, a] (s dies against t before it ever meets a); the
    # naive pairwise merge of A = [t, a] with B = [s] would drop a.
    NAN_A = [(0.0, float("nan")), (float("nan"), 5.0)]
    NAN_B = [(1.0, 4.0)]

    def test_counterexample_shows_naive_merge_is_wrong(self):
        flat = bnl_skyline(self.NAN_A + self.NAN_B, MIN2)
        assert flat == self.NAN_A
        assert merge_skylines(self.NAN_A, self.NAN_B, MIN2) != flat

    def test_nan_detected_and_fallback_taken(self):
        reason = merge_unsafe_reason([self.NAN_A, self.NAN_B], MIN2)
        assert reason is not None and "NaN" in reason
        counters = make_merge_counters()
        out = hierarchical_merge([self.NAN_A, self.NAN_B], MIN2,
                                 counters=counters)
        assert out == bnl_skyline(self.NAN_A + self.NAN_B, MIN2)
        assert counters["fallback"] == reason
        assert counters["rounds"] == 0

    def test_null_detected(self):
        partials = [[(1, None)], [(0, 2)]]
        reason = merge_unsafe_reason(partials, MIN2)
        assert reason is not None and "null" in reason

    def test_null_fallback_mirrors_flat_behaviour(self):
        # Complete-data dominance cannot compare None; the fallback
        # must surface the same error the flat path would, not a
        # silently wrong pairwise merge.
        partials = [[(1, None)], [(0, 2)]]
        with pytest.raises(TypeError):
            bnl_skyline([r for p in partials for r in p], MIN2)
        counters = make_merge_counters()
        with pytest.raises(TypeError):
            hierarchical_merge(partials, MIN2, counters=counters)
        assert counters["fallback"] == merge_unsafe_reason(partials, MIN2)

    def test_nan_in_diff_dimension_is_safe(self):
        partials = [[(1.0, 2.0, float("nan"))], [(0.0, 3.0, 1.0)]]
        assert merge_unsafe_reason(partials, MMD) is None


@pytest.mark.skipif(not numpy_available(), reason="requires NumPy")
class TestSummaries:
    def blocks(self, *partials):
        return [columnize(list(p), MIN2) for p in partials]

    def test_disjoint_boxes_detected(self):
        a, b = self.blocks([(0.0, 0.0), (1.0, 1.0)],
                           [(5.0, 5.0), (6.0, 6.0)])
        sa, sb = build_summaries([a, b])
        # b's rows are strictly worse on every dimension: not disjoint
        # (a CAN dominate b) but a dominates b outright.
        assert not summary_disjoint(sa, sb)
        assert summary_dominates(sa, sb)
        assert not summary_dominates(sb, sa)

    def test_incomparable_bands_are_disjoint(self):
        a, b = self.blocks([(0.0, 10.0), (1.0, 11.0)],
                           [(10.0, 0.0), (11.0, 1.0)])
        sa, sb = build_summaries([a, b])
        assert summary_disjoint(sa, sb)

    def test_nan_rows_disable_summaries(self):
        a, b = self.blocks([(0.0, float("nan"))], [(1.0, 1.0)])
        assert build_summaries([a, b]) is None

    def test_reduce_group_drops_dominated_partial(self):
        rows_a = [(0.0, 0.0), (1.0, 1.0)]
        rows_b = [(5.0, 5.0), (6.0, 6.0)]
        sa, sb = build_summaries(self.blocks(rows_a, rows_b))
        counters = make_merge_counters()
        segments = reduce_group([rows_a, rows_b], [sa, sb], counters)
        assert segments == [rows_a]
        assert counters["short_circuits"] == 1

    def test_reduce_group_concatenates_disjoint_partials(self):
        rows_a = [(0.0, 10.0)]
        rows_b = [(10.0, 0.0)]
        sa, sb = build_summaries(self.blocks(rows_a, rows_b))
        counters = make_merge_counters()
        segments = reduce_group([rows_a, rows_b], [sa, sb], counters)
        assert segments == [rows_a + rows_b]
        assert counters["concat_merges"] == 1

    @given(partials_2d)
    @settings(max_examples=60, deadline=None)
    def test_shortcuts_never_change_the_answer(self, partials):
        locals_ = [bnl_skyline(p, MIN2) for p in partials]
        blocks = [columnize(p, MIN2) for p in locals_]
        summaries = build_summaries(blocks)
        if summaries is None:
            return
        segments = reduce_group(locals_, summaries)
        out, _, _ = merge_task(segments, MIN2, vectorized=False)
        flat = bnl_skyline([r for p in locals_ for r in p], MIN2)
        assert sorted(out) == sorted(flat)


class TestTreeShapes:
    def test_round_sizes(self):
        assert merge_round_sizes(10, 2) == [10, 5, 3, 2, 1]
        assert merge_round_sizes(40, 4) == [40, 10, 3, 1]
        assert merge_round_sizes(1, 2) == [1]

    def test_tree_shape_rendering(self):
        assert tree_shape(10, 2) == "10 -> 5 -> 3 -> 2 -> 1"

    def test_merge_task_reports_totals(self):
        out, total_in, comparisons = merge_task(
            [[(1, 3)], [(2, 2)], [(3, 1)]], MIN2, vectorized=False)
        assert sorted(out) == [(1, 3), (2, 2), (3, 1)]
        assert total_in == 3
        assert comparisons > 0


class TestMergeDeadline:
    def test_check_deadline_is_called(self):
        calls = []

        def check():
            calls.append(True)

        left = [(i, 1000 - i) for i in range(300)]
        right = [(i + 0.5, 1000 - i) for i in range(300)]
        merge_skylines(left, right, MIN2, check_deadline=check)
        assert calls

    def test_deadline_exception_propagates(self):
        def boom():
            raise TimeoutError("budget exceeded")

        left = [(i, 1000 - i) for i in range(300)]
        right = [(i + 0.5, 1000 - i) for i in range(300)]
        with pytest.raises(TimeoutError):
            merge_skylines(left, right, MIN2, check_deadline=boom)
