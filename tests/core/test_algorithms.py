"""The four evaluated algorithm strategies (Section 6.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import INTEGER, connect
from repro.core import (Algorithm, BoundDimension, DimensionKind,
                        make_dimensions, reference, skyline)
from repro.core.algorithms import STRATEGY_MODES
from repro.core.vectorized import skyline_task
from repro.engine.rdd import partition_bounds
from repro.errors import ExecutionError
from tests.conftest import skyline_oracle

MIN2 = make_dimensions([(0, "min"), (1, "min")])
MINMAX = make_dimensions([(0, "min"), (1, "max")])

rows_2d = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                   max_size=60)
maybe_int = st.one_of(st.none(), st.integers(0, 6))
rows_with_nulls = st.lists(st.tuples(maybe_int, maybe_int), max_size=40)


def _sfs(rows, dims, k):
    """The ``sfs`` strategy's two phases over ``k`` scan slices."""
    local = [row for start, stop in partition_bounds(len(rows), k)
             for row in skyline_task(rows[start:stop], dims, "sfs",
                                     vectorized=False)[0]]
    return skyline_task(local, dims, "sfs", vectorized=False)[0]


class TestMakeDimensions:
    def test_builds_bound_dimensions(self):
        dims = make_dimensions([(3, "min"), (1, DimensionKind.MAX)])
        assert dims[0] == BoundDimension(3, DimensionKind.MIN)
        assert dims[1] == BoundDimension(1, DimensionKind.MAX)


class TestAlgorithmEnum:
    def test_of_by_value_and_name(self):
        assert Algorithm.of("reference") is Algorithm.REFERENCE
        assert Algorithm.of("DISTRIBUTED_COMPLETE") is \
            Algorithm.DISTRIBUTED_COMPLETE
        assert Algorithm.of(Algorithm.REFERENCE) is Algorithm.REFERENCE

    def test_of_rejects_unknown(self):
        with pytest.raises(ValueError):
            Algorithm.of("quantum")

    def test_strategy_names_key_the_strategy_table(self):
        assert Algorithm.DISTRIBUTED_COMPLETE.strategy == \
            "distributed-complete"
        assert Algorithm.NON_DISTRIBUTED_COMPLETE.strategy == \
            "non-distributed-complete"
        assert Algorithm.DISTRIBUTED_INCOMPLETE.strategy == \
            "distributed-incomplete"
        assert Algorithm.REFERENCE.strategy is None
        assert {a.strategy for a in Algorithm} - {None} < set(STRATEGY_MODES)


class TestCompleteAlgorithmsAgree:
    @given(rows_2d, st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_all_complete_strategies_match_oracle(self, rows, k):
        expected = sorted(skyline_oracle(rows, MIN2))
        for algorithm in (Algorithm.DISTRIBUTED_COMPLETE,
                          Algorithm.NON_DISTRIBUTED_COMPLETE,
                          Algorithm.REFERENCE):
            assert sorted(skyline(rows, MIN2, algorithm=algorithm,
                                  num_partitions=k)) == expected
        assert sorted(_sfs(rows, MIN2, k)) == expected

    @given(rows_2d, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_incomplete_algorithm_correct_on_complete_data(self, rows, k):
        # Section 5.7: the incomplete algorithm is also correct (if slow)
        # on complete data.
        assert sorted(skyline(rows, MIN2,
                              algorithm=Algorithm.DISTRIBUTED_INCOMPLETE,
                              num_partitions=k)) == \
            sorted(skyline_oracle(rows, MIN2))

    @given(rows_2d)
    @settings(max_examples=50, deadline=None)
    def test_partitioning_does_not_change_result(self, rows):
        one = skyline(rows, MIN2, num_partitions=1)
        many = skyline(rows, MIN2, num_partitions=7)
        assert sorted(one) == sorted(many)

    @pytest.mark.parametrize("algorithm", [
        Algorithm.DISTRIBUTED_COMPLETE, Algorithm.NON_DISTRIBUTED_COMPLETE])
    def test_null_under_a_complete_strategy_names_the_dimension(
            self, algorithm):
        # Regression: the library's own copy of the strategy compared
        # None with an int and died with a TypeError.
        with pytest.raises(ExecutionError, match=r"#2 \(MIN\) holds NULL"):
            skyline([(1, None), (2, 3)], MIN2, algorithm=algorithm)


class TestIncompleteAlgorithm:
    @given(rows_with_nulls, st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_matches_incomplete_oracle(self, rows, k):
        result = skyline(rows, MIN2,
                         algorithm=Algorithm.DISTRIBUTED_INCOMPLETE,
                         num_partitions=k)
        expected = skyline_oracle(rows, MIN2, complete=False)
        assert sorted(result, key=repr) == sorted(expected, key=repr)

    def test_complete_data_degenerates_to_single_partition(self):
        # With no nulls there is exactly one bitmap partition, so the
        # local stage cannot parallelize (Section 5.7's warning).
        from repro.core.vectorized import pack_by_null_bitmap
        rows = [(1, 2), (3, 4), (5, 6)]
        assert pack_by_null_bitmap([rows[:2], rows[2:]], MIN2, 4) == [rows]


class TestReference:
    def test_incomplete_mode_uses_null_aware_dominance(self):
        rows = [(1, None), (2, 5)]
        result = reference([rows], MIN2, complete=False)
        assert result == [(1, None)]

    def test_distinct_deduplicates(self):
        rows = [(1, 1, "a"), (1, 1, "b")]
        assert len(reference([rows], MIN2, distinct=True)) == 1


class TestSkylineFrontDoor:
    def test_accepts_algorithm_names(self):
        rows = [(2, 2), (1, 1), (1, 3)]
        for name in ("distributed complete", "non-distributed complete",
                     "distributed incomplete", "reference"):
            assert sorted(skyline(rows, MIN2, algorithm=name)) == [(1, 1)]

    def test_num_partitions_validation(self):
        with pytest.raises(ValueError):
            skyline([(1, 1)], MIN2, num_partitions=0)

    def test_minmax_example(self):
        hotels = [(120.0, 4.5), (90.0, 4.0), (150.0, 3.0), (80.0, 3.5)]
        result = skyline(hotels, MINMAX, num_partitions=2)
        assert sorted(result) == [(80.0, 3.5), (90.0, 4.0), (120.0, 4.5)]

    @given(rows_2d, st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_for_all_strategies(self, rows, k):
        expected = sorted(skyline_oracle(rows, MIN2))
        for algorithm in Algorithm:
            result = skyline(rows, MIN2, algorithm=algorithm,
                             num_partitions=k)
            assert sorted(result) == expected


class TestSkylineMatchesEngine:
    """``skyline()`` runs the engine's strategy table and kernels, so its
    list is the scalar row-plane session's answer, order included."""

    @pytest.mark.parametrize("algorithm", [
        a for a in Algorithm if a is not Algorithm.REFERENCE])
    @given(data=st.data(), distinct=st.booleans(), k=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_same_list_as_a_session(self, algorithm, data, distinct, k):
        nullable = algorithm is Algorithm.DISTRIBUTED_INCOMPLETE
        value = st.integers(0, 4)
        if nullable:
            value = st.one_of(st.none(), value)
        rows = data.draw(st.lists(st.tuples(value, value, value),
                                  max_size=30))
        dims = make_dimensions([(0, "min"), (1, "max"), (2, "diff")])
        session = connect(vectorized=False, columnar=False,
                          num_executors=k,
                          skyline_algorithm=algorithm.strategy)
        session.create_table("t", [(c, INTEGER, nullable) for c in "abc"],
                             rows)
        sql = ("SELECT * FROM t SKYLINE OF "
               + ("DISTINCT " if distinct else "") + "a MIN, b MAX, c DIFF")
        assert skyline(rows, dims, distinct=distinct, algorithm=algorithm,
                       num_partitions=k) == session.sql(sql).to_tuples()
