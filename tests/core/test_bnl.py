"""Block-Nested-Loop skyline (Section 5.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BoundDimension, DimensionKind, DominanceStats,
                        bnl_skyline, dominates)
from repro.streaming import SkylineStream
from tests.conftest import skyline_oracle

MIN2 = [BoundDimension(0, DimensionKind.MIN),
        BoundDimension(1, DimensionKind.MIN)]
MINMAX = [BoundDimension(0, DimensionKind.MIN),
          BoundDimension(1, DimensionKind.MAX)]

rows_2d = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                   max_size=60)


class TestBnlBasics:
    def test_empty_input(self):
        assert bnl_skyline([], MIN2) == []

    def test_single_tuple(self):
        assert bnl_skyline([(1, 2)], MIN2) == [(1, 2)]

    def test_dominated_tuple_removed(self):
        assert bnl_skyline([(1, 1), (2, 2)], MIN2) == [(1, 1)]

    def test_dominator_arriving_late_evicts_window(self):
        assert bnl_skyline([(2, 2), (1, 1)], MIN2) == [(1, 1)]

    def test_incomparable_tuples_all_kept(self):
        rows = [(1, 3), (2, 2), (3, 1)]
        assert sorted(bnl_skyline(rows, MIN2)) == rows

    def test_duplicates_kept_without_distinct(self):
        rows = [(1, 1), (1, 1)]
        assert bnl_skyline(rows, MIN2) == rows

    def test_distinct_keeps_single_representative(self):
        rows = [(1, 1, "first"), (1, 1, "second")]
        result = bnl_skyline(rows, MIN2, distinct=True)
        assert result == [(1, 1, "first")]

    def test_distinct_still_removes_dominated(self):
        rows = [(2, 2), (1, 1), (1, 1)]
        assert bnl_skyline(rows, MIN2, distinct=True) == [(1, 1)]

    def test_minmax_directions(self):
        rows = [(90.0, 4.0), (120.0, 4.5), (150.0, 3.0), (80.0, 3.5)]
        result = set(bnl_skyline(rows, MINMAX))
        assert result == {(90.0, 4.0), (120.0, 4.5), (80.0, 3.5)}

    def test_stats_recorded(self):
        stats = DominanceStats()
        bnl_skyline([(1, 3), (2, 2), (3, 1), (4, 4)], MIN2, stats=stats)
        assert stats.comparisons > 0
        assert stats.window_peak == 3


class TestBnlAgainstOracle:
    @given(rows_2d)
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, rows):
        result = bnl_skyline(rows, MIN2)
        expected = skyline_oracle(rows, MIN2)
        assert sorted(result) == sorted(expected)

    @given(rows_2d)
    @settings(max_examples=60, deadline=None)
    def test_minmax_matches_brute_force(self, rows):
        result = bnl_skyline(rows, MINMAX)
        expected = skyline_oracle(rows, MINMAX)
        assert sorted(result) == sorted(expected)

    @given(rows_2d)
    @settings(max_examples=60, deadline=None)
    def test_result_is_subset_with_no_internal_dominance(self, rows):
        result = bnl_skyline(rows, MIN2)
        assert all(r in rows for r in result)
        for r in result:
            assert not any(dominates(s, r, MIN2) for s in result)

    @given(rows_2d)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows):
        once = bnl_skyline(rows, MIN2)
        twice = bnl_skyline(once, MIN2)
        assert sorted(once) == sorted(twice)

    @given(rows_2d, st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_input_order_invariant(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert sorted(bnl_skyline(rows, MIN2)) == \
            sorted(bnl_skyline(shuffled, MIN2))


class TestIncrementalBnl:
    def test_streaming_matches_batch(self):
        rows = [(3, 3), (1, 4), (4, 1), (2, 2), (5, 5)]
        stream = SkylineStream(MIN2)
        for row in rows:
            stream.add(row)
        assert sorted(stream.current()) == sorted(bnl_skyline(rows, MIN2))

    def test_intermediate_window_is_prefix_skyline(self):
        rows = [(3, 3), (2, 2), (1, 1)]
        stream = SkylineStream(MIN2)
        stream.add(rows[0])
        assert stream.current() == [(3, 3)]
        stream.add(rows[1])
        assert stream.current() == [(2, 2)]
        stream.add(rows[2])
        assert stream.current() == [(1, 1)]

    def test_current_returns_copy(self):
        stream = SkylineStream(MIN2)
        stream.add((1, 1))
        snapshot = stream.current()
        snapshot.append((0, 0))
        assert stream.current() == [(1, 1)]


class TestDeadlineCallback:
    def test_deadline_called_and_can_abort(self):
        calls = {"n": 0}

        def deadline():
            calls["n"] += 1
            if calls["n"] > 2:
                raise TimeoutError

        rows = [(i, 1000 - i) for i in range(2000)]
        with pytest.raises(TimeoutError):
            bnl_skyline(rows, MIN2, check_deadline=deadline)
        assert calls["n"] > 2
