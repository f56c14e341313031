"""Property-based tests of the full SQL pipeline (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.core import make_dimensions
from tests.conftest import skyline_oracle

from repro.engine.types import INTEGER

values = st.integers(0, 6)
maybe_values = st.one_of(st.none(), values)
complete_rows = st.lists(st.tuples(values, values, values), min_size=0,
                         max_size=35)
nullable_rows = st.lists(
    st.tuples(maybe_values, maybe_values, maybe_values), max_size=30)

KINDS = ["min", "max", "min"]
DIMS = make_dimensions([(0, "min"), (1, "max"), (2, "min")])


def run_skyline(rows, nullable, strategy="auto", num_executors=3,
                complete_keyword=False):
    session = connect(num_executors=num_executors,
                      skyline_algorithm=strategy)
    session.create_table(
        "pts", [("a", INTEGER, nullable), ("b", INTEGER, nullable),
                ("c", INTEGER, nullable)], rows)
    keyword = "COMPLETE " if complete_keyword else ""
    sql = (f"SELECT a, b, c FROM pts SKYLINE OF {keyword}"
           f"a MIN, b MAX, c MIN")
    return session.sql(sql).to_tuples()


class TestSqlSkylineProperties:
    @given(complete_rows)
    @settings(max_examples=40, deadline=None)
    def test_complete_pipeline_matches_oracle(self, rows):
        result = run_skyline(rows, nullable=False)
        expected = skyline_oracle(rows, DIMS)
        assert sorted(result) == sorted(expected)

    @given(nullable_rows)
    @settings(max_examples=40, deadline=None)
    def test_incomplete_pipeline_matches_null_aware_oracle(self, rows):
        result = run_skyline(rows, nullable=True)
        expected = skyline_oracle(rows, DIMS, complete=False)
        assert sorted(result, key=repr) == sorted(expected, key=repr)

    @given(complete_rows, st.sampled_from(
        ["distributed-complete", "non-distributed-complete",
         "distributed-incomplete", "sfs"]))
    @settings(max_examples=40, deadline=None)
    def test_every_strategy_matches_oracle_on_complete_data(
            self, rows, strategy):
        result = run_skyline(rows, nullable=False, strategy=strategy)
        expected = skyline_oracle(rows, DIMS)
        assert sorted(result) == sorted(expected)

    @given(complete_rows, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_executor_count_invariance(self, rows, executors):
        result = run_skyline(rows, nullable=False,
                             num_executors=executors)
        expected = skyline_oracle(rows, DIMS)
        assert sorted(result) == sorted(expected)

    @given(complete_rows)
    @settings(max_examples=25, deadline=None)
    def test_complete_keyword_on_truly_complete_data_is_safe(self, rows):
        with_keyword = run_skyline(rows, nullable=True,
                                   complete_keyword=True)
        expected = skyline_oracle(rows, DIMS)
        assert sorted(with_keyword) == sorted(expected)

    @given(complete_rows)
    @settings(max_examples=25, deadline=None)
    def test_skyline_is_subset_and_undominated(self, rows):
        from repro.core import dominates
        result = run_skyline(rows, nullable=False)
        for r in result:
            assert r in rows
            assert not any(dominates(s, r, DIMS) for s in rows)

    @given(complete_rows)
    @settings(max_examples=25, deadline=None)
    def test_every_excluded_tuple_is_dominated(self, rows):
        from repro.core import dominates
        result = run_skyline(rows, nullable=False)
        excluded = [r for r in rows if r not in result]
        for r in excluded:
            assert any(dominates(s, r, DIMS) for s in rows)
