"""Dominance semantics (Definition 3.1 and the incomplete variant)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (BoundDimension, DimensionKind, DominanceStats,
                        dominates, dominates_incomplete,
                        equal_on_dimensions, null_bitmap)

MIN2 = [BoundDimension(0, DimensionKind.MIN),
        BoundDimension(1, DimensionKind.MIN)]
MINMAX = [BoundDimension(0, DimensionKind.MIN),
          BoundDimension(1, DimensionKind.MAX)]


class TestDimensionKind:
    def test_of_accepts_strings_case_insensitively(self):
        assert DimensionKind.of("min") is DimensionKind.MIN
        assert DimensionKind.of("MAX") is DimensionKind.MAX
        assert DimensionKind.of("Diff") is DimensionKind.DIFF

    def test_of_passes_through_members(self):
        assert DimensionKind.of(DimensionKind.MIN) is DimensionKind.MIN

    def test_of_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown skyline dimension"):
            DimensionKind.of("median")


class TestCompleteDominance:
    def test_strictly_better_everywhere(self):
        assert dominates((1, 1), (2, 2), MIN2)

    def test_equal_in_one_better_in_other(self):
        assert dominates((1, 1), (1, 2), MIN2)

    def test_equal_tuples_do_not_dominate(self):
        assert not dominates((1, 2), (1, 2), MIN2)

    def test_incomparable_tuples(self):
        assert not dominates((1, 3), (2, 1), MIN2)
        assert not dominates((2, 1), (1, 3), MIN2)

    def test_max_direction(self):
        # Second dimension is MAX: higher is better.
        assert dominates((1, 5), (1, 4), MINMAX)
        assert not dominates((1, 4), (1, 5), MINMAX)

    def test_hotel_example(self):
        # price MIN, rating MAX (Figure 1 of the paper).
        cheap_good = (90.0, 4.5)
        pricey_bad = (120.0, 4.0)
        assert dominates(cheap_good, pricey_bad, MINMAX)
        assert not dominates(pricey_bad, cheap_good, MINMAX)

    def test_diff_dimension_blocks_dominance_when_unequal(self):
        dims = [BoundDimension(0, DimensionKind.MIN),
                BoundDimension(1, DimensionKind.DIFF)]
        assert not dominates((1, "red"), (2, "blue"), dims)
        assert dominates((1, "red"), (2, "red"), dims)

    def test_all_diff_dimensions_never_dominate(self):
        # With only DIFF dimensions there is no "strictly better".
        dims = [BoundDimension(0, DimensionKind.DIFF)]
        assert not dominates((1,), (1,), dims)
        assert not dominates((1,), (2,), dims)

    def test_short_circuits_on_worse_dimension(self):
        # No exception even though index 1 would be compared if reached:
        # (3,?) loses in dim 0 first.
        assert not dominates((3, 0), (1, 1), MIN2)

    def test_dimension_subset_only(self):
        # Dimensions outside the bound set are ignored (extra dims).
        dims = [BoundDimension(1, DimensionKind.MIN)]
        assert dominates(("zzz", 1), ("aaa", 2), dims)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=2, max_size=2))
    def test_antisymmetry(self, rows):
        r, s = rows
        assert not (dominates(r, s, MIN2) and dominates(s, r, MIN2))

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_transitivity_on_complete_data(self, a, b, c):
        if dominates(a, b, MIN2) and dominates(b, c, MIN2):
            assert dominates(a, c, MIN2)

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_irreflexive(self, a):
        assert not dominates(a, a, MIN2)


class TestIncompleteDominance:
    DIMS3 = [BoundDimension(i, DimensionKind.MIN) for i in range(3)]

    def test_comparison_restricted_to_common_non_null(self):
        # Section 3: compare only where both are non-null.
        assert dominates_incomplete((1, None), (2, 5), MIN2)
        assert not dominates_incomplete((2, None), (1, 5), MIN2)

    def test_no_common_dimensions_means_incomparable(self):
        assert not dominates_incomplete((1, None), (None, 5), MIN2)
        assert not dominates_incomplete((None, 5), (1, None), MIN2)

    def test_paper_cycle_example(self):
        # a ≺ b ≺ c ≺ a with all MIN (Section 3 / Appendix A).
        a = (1, None, 10)
        b = (3, 2, None)
        c = (None, 5, 3)
        assert dominates_incomplete(a, b, self.DIMS3)
        assert dominates_incomplete(b, c, self.DIMS3)
        assert dominates_incomplete(c, a, self.DIMS3)
        # And transitivity fails: a does not dominate c.
        assert not dominates_incomplete(a, c, self.DIMS3)

    def test_matches_complete_semantics_without_nulls(self):
        assert dominates_incomplete((1, 2), (2, 2), MIN2) == \
            dominates((1, 2), (2, 2), MIN2)
        assert dominates_incomplete((2, 1), (1, 2), MIN2) == \
            dominates((2, 1), (1, 2), MIN2)

    def test_diff_with_nulls_ignored(self):
        dims = [BoundDimension(0, DimensionKind.MIN),
                BoundDimension(1, DimensionKind.DIFF)]
        # DIFF dimension null on one side: restriction skips it.
        assert dominates_incomplete((1, None), (2, "x"), dims)
        assert not dominates_incomplete((1, "y"), (2, "x"), dims)

    @given(st.tuples(*[st.one_of(st.none(), st.integers(0, 4))] * 2),
           st.tuples(*[st.one_of(st.none(), st.integers(0, 4))] * 2))
    def test_antisymmetry_still_holds(self, r, s):
        assert not (dominates_incomplete(r, s, MIN2)
                    and dominates_incomplete(s, r, MIN2))


class TestNullBitmap:
    def test_bit_positions_follow_dimension_order(self):
        dims = [BoundDimension(2, DimensionKind.MIN),
                BoundDimension(0, DimensionKind.MAX)]
        # Bit 0 corresponds to dims[0] (row index 2).
        assert null_bitmap((1, 2, None), dims) == 0b01
        assert null_bitmap((None, 2, 3), dims) == 0b10
        assert null_bitmap((None, 2, None), dims) == 0b11
        assert null_bitmap((1, 2, 3), dims) == 0


class TestEqualOnDimensions:
    def test_equality_is_dimension_restricted(self):
        assert equal_on_dimensions((1, 2, "x"), (1, 2, "y"), MIN2)
        assert not equal_on_dimensions((1, 2), (1, 3), MIN2)


class TestDominanceStats:
    def test_note_window_keeps_maximum(self):
        stats = DominanceStats()
        stats.note_window(3)
        stats.note_window(1)
        assert stats.window_peak == 3

    def test_merge_accumulates(self):
        a = DominanceStats(comparisons=5, window_peak=2)
        b = DominanceStats(comparisons=7, window_peak=4)
        a.merge(b)
        assert a.comparisons == 12
        assert a.window_peak == 4
