"""Block-Nested-Loop skyline (Section 5.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import INTEGER, SessionConfig, SkylineSession
from repro.core import (BoundDimension, DimensionKind, DominanceStats,
                        bnl_skyline, dominates, dominates_incomplete)
from repro.core.algorithms import reference
from repro.core.bnl import bnl_step
from repro.datasets.generators import (anticorrelated_rows, correlated_rows,
                                       independent_rows)
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
    """``bnl_step`` folds one row into a window: the result cache's
    maintenance of an append."""

    def test_folded_steps_match_batch(self):
        rows = [(3, 3), (1, 4), (4, 1), (2, 2), (5, 5)]
        window = []
        for row in rows:
            window, _, _ = bnl_step(window, row, MIN2)
        assert sorted(window) == sorted(bnl_skyline(rows, MIN2))

    def test_intermediate_window_is_prefix_skyline(self):
        window, dominated, _ = bnl_step([], (3, 3), MIN2)
        assert (window, dominated) == ([(3, 3)], False)
        window, dominated, _ = bnl_step(window, (2, 2), MIN2)
        assert (window, dominated) == ([(2, 2)], False)
        window, dominated, _ = bnl_step(window, (4, 4), MIN2)
        assert (window, dominated) == ([(2, 2)], True)

    def test_step_leaves_the_window_untouched(self):
        window = [(1, 1)]
        grown, _, _ = bnl_step(window, (0, 2), MIN2)
        assert grown == [(1, 1), (0, 2)]
        assert window == [(1, 1)]

    def test_step_into_an_empty_window(self):
        assert bnl_step([], (5, 5), MIN2) == ([(5, 5)], False, 0)

    def test_step_reports_survival_and_evictions(self):
        window, dominated, tests = bnl_step([(2, 2), (1, 4)], (3, 3), MIN2)
        assert (window, dominated, tests) == ([(2, 2), (1, 4)], True, 1)
        window, dominated, _ = bnl_step(window, (2, 1), MIN2)
        assert (window, dominated) == ([(1, 4), (2, 1)], False)

    def test_distinct_keeps_the_incumbent(self):
        window, dominated, _ = bnl_step([(1, 1, "first")], (1, 1, "second"),
                                        MIN2, distinct=True)
        assert (window, dominated) == ([(1, 1, "first")], True)
        window, dominated, _ = bnl_step([(1, 1, "first")], (1, 1, "second"),
                                        MIN2)
        assert (window, dominated) == \
            ([(1, 1, "first"), (1, 1, "second")], False)

    def test_null_restricted_steps_fold_one_null_bitmap(self):
        # Among rows null in the same dimensions the restricted test is
        # transitive, so rows of one bitmap fold through the window.
        window, total = [], 0
        for row in [(None, 2), (None, 1), (None, 3)]:
            window, _, tests = bnl_step(window, row, MIN2,
                                        dominance=dominates_incomplete)
            total += tests
        assert window == [(None, 1)]
        assert total > 0

    @given(rows_2d, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_folded_steps_count_like_bnl(self, rows, distinct):
        # The same window, in the same order, and the same number of
        # directed dominance tests as one DominanceStats-counted run.
        window, total = [], 0
        for row in rows:
            window, _, tests = bnl_step(window, row, MIN2, distinct)
            total += tests
        stats = DominanceStats()
        assert window == bnl_skyline(rows, MIN2, distinct=distinct,
                                     stats=stats)
        assert total == stats.comparisons

    def test_a_row_dominated_late_still_evicts(self):
        # NaN breaks transitivity: (nan, 1) dominates (0, 2) and is
        # dominated by (1, 0), which does not dominate (0, 2).  The
        # eviction made before the dominator was met stands.
        window, dominated, tests = bnl_step(
            [(0.0, 2.0), (1.0, 0.0)], (float("nan"), 1.0), MIN2)
        assert (window, dominated, tests) == ([(1.0, 0.0)], True, 3)

    @given(st.lists(st.tuples(st.none(), st.integers(0, 6),
                              st.integers(0, 6)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_one_bitmap_folds_to_the_incomplete_oracle(self, rows):
        dims = [BoundDimension(i, DimensionKind.MIN) for i in range(3)]
        window = []
        for row in rows:
            window, _, _ = bnl_step(window, row, dims,
                                    dominance=dominates_incomplete)
        assert sorted(window) == \
            sorted(skyline_oracle(rows, dims, complete=False))

    @pytest.mark.parametrize("dimensions", (2, 4, 6))
    @pytest.mark.parametrize("generate", (independent_rows, correlated_rows,
                                          anticorrelated_rows),
                             ids=("independent", "correlated",
                                  "anticorrelated"))
    def test_folded_steps_match_the_reference(self, generate, dimensions):
        rows = generate(300, dimensions, seed=dimensions)
        dims = [BoundDimension(i, DimensionKind.MIN)
                for i in range(dimensions)]
        window = []
        for row in rows:
            window, _, _ = bnl_step(window, row, dims)
        assert sorted(window) == sorted(reference([rows], dims))

    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("columnar", "row-plane"))
    @given(rows=rows_2d)
    @settings(max_examples=25, deadline=None)
    def test_folded_steps_match_the_engine(self, columnar, rows):
        # The step the result cache maintains an append with answers
        # what the engine answers for the same rows.
        session = SkylineSession(config=SessionConfig(
            num_executors=2, columnar=columnar))
        session.create_table("s", [("a", INTEGER, False),
                                   ("b", INTEGER, False)], rows)
        window = []
        for row in rows:
            window, _, _ = bnl_step(window, row, MIN2)
        assert sorted(window) == sorted(session.sql(
            "SELECT * FROM s SKYLINE OF a MIN, b MIN").to_tuples())


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
