"""Edge cases and failure behaviour across the pipeline."""

import pytest

from repro import (AnalysisError, DOUBLE, ExecutionError, INTEGER,
                   ParseError, STRING, TaskError, connect)

COMPLETE_SQL = "SELECT id FROM t SKYLINE OF COMPLETE a MIN, b MIN"
NULLABLE_SQL = "SELECT id FROM t SKYLINE OF a MIN, b MIN"


@pytest.fixture
def session():
    return connect(num_executors=2)


class TestEmptyInputs:
    def test_skyline_of_empty_table(self, session):
        session.create_table(
            "void", [("a", INTEGER, False), ("b", INTEGER, False)], [])
        rows = session.sql(
            "SELECT a, b FROM void SKYLINE OF a MIN, b MAX").collect()
        assert rows == []

    def test_single_row_is_its_own_skyline(self, session):
        session.create_table("one", [("a", INTEGER, False)], [(42,)])
        rows = session.sql(
            "SELECT a FROM one SKYLINE OF a MIN").to_tuples()
        assert rows == [(42,)]

    def test_aggregate_of_empty_table(self, session):
        session.create_table("void", [("a", INTEGER, True)], [])
        rows = session.sql(
            "SELECT count(*) AS n, min(a) AS m FROM void").to_tuples()
        assert rows == [(0, None)]

    def test_join_against_empty_table(self, session):
        session.create_table("l", [("id", INTEGER, False)], [(1,)])
        session.create_table("r", [("id", INTEGER, False)], [])
        inner = session.sql(
            "SELECT l.id FROM l JOIN r ON l.id = r.id").to_tuples()
        assert inner == []
        left = session.sql(
            "SELECT l.id FROM l LEFT JOIN r ON l.id = r.id").to_tuples()
        assert left == [(1,)]


class TestDegenerateSkylines:
    def test_all_rows_identical(self, session):
        session.create_table(
            "same", [("a", INTEGER, False)], [(1,)] * 5)
        rows = session.sql(
            "SELECT a FROM same SKYLINE OF a MIN").to_tuples()
        assert rows == [(1,)] * 5  # ties all survive without DISTINCT

    def test_all_rows_identical_distinct(self, session):
        session.create_table(
            "same", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(1, 2)] * 5)
        rows = session.sql(
            "SELECT a, b FROM same "
            "SKYLINE OF DISTINCT a MIN, b MIN").to_tuples()
        assert rows == [(1, 2)]

    def test_totally_ordered_chain(self, session):
        session.create_table(
            "chain", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(i, i) for i in range(20)])
        rows = session.sql(
            "SELECT a FROM chain SKYLINE OF a MIN, b MIN").to_tuples()
        assert rows == [(0,)]

    def test_antichain_everything_survives(self, session):
        session.create_table(
            "anti", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(i, 20 - i) for i in range(20)])
        rows = session.sql(
            "SELECT a FROM anti SKYLINE OF a MIN, b MIN").to_tuples()
        assert len(rows) == 20

    def test_all_null_dimension_column(self, session):
        session.create_table(
            "nulls", [("a", INTEGER, True), ("b", INTEGER, False)],
            [(None, 1), (None, 2)])
        rows = session.sql(
            "SELECT b FROM nulls SKYLINE OF a MIN, b MIN").to_tuples()
        # a is never comparable; b decides: (None,1) dominates (None,2)
        # since both nulls share the bitmap partition.
        assert rows == [(1,)]

    def test_string_skyline_dimensions(self, session):
        session.create_table(
            "words", [("w", STRING, False), ("n", INTEGER, False)],
            [("apple", 1), ("banana", 2), ("apple", 3)])
        rows = session.sql(
            "SELECT w, n FROM words SKYLINE OF w MIN, n MAX").to_tuples()
        # ("apple", 3) dominates both: lexicographically smallest word
        # AND the highest n.
        assert rows == [("apple", 3)]


class TestErrorReporting:
    def test_parse_error_mentions_location(self, session):
        with pytest.raises(ParseError, match="line"):
            session.sql("SELECT a\nFROM t WHERE ???").collect()

    def test_unknown_column_names_the_node(self, session):
        session.create_table("t", [("a", INTEGER, False)], [(1,)])
        with pytest.raises(AnalysisError):
            session.sql("SELECT nope FROM t").collect()

    def test_skyline_on_string_with_min_is_fine_but_arith_is_not(
            self, session):
        session.create_table("t", [("s", STRING, False)], [("x",)])
        # Strings are orderable -> MIN/MAX allowed.
        assert session.sql(
            "SELECT s FROM t SKYLINE OF s MIN").to_tuples() == [("x",)]
        with pytest.raises(AnalysisError):
            session.sql("SELECT s + 1 AS bad FROM t").collect()

    def test_scalar_subquery_with_many_rows_fails(self, session):
        session.create_table("t", [("a", INTEGER, False)], [(1,), (2,)])
        with pytest.raises(ExecutionError, match="scalar subquery"):
            session.sql(
                "SELECT a FROM t WHERE a = (SELECT a FROM t)").collect()

    @pytest.mark.parametrize("sql,options", [
        (COMPLETE_SQL, {}),
        (COMPLETE_SQL, {"vectorized": False}),
        (COMPLETE_SQL, {"vectorized": False, "columnar": False}),
        (COMPLETE_SQL, {"backend": "process", "num_workers": 2}),
        (NULLABLE_SQL, {"skyline_algorithm": "distributed-complete"}),
        (NULLABLE_SQL, {"skyline_algorithm": "non-distributed-complete"}),
        (NULLABLE_SQL, {"skyline_algorithm": "sfs"}),
        (NULLABLE_SQL, {"skyline_algorithm": "sfs", "columnar": False,
                        "vectorized": False}),
    ], ids=["complete", "complete-scalar-kernels", "complete-row-plane",
            "complete-process", "forced-distributed-complete",
            "forced-non-distributed-complete", "forced-sfs",
            "forced-sfs-row-plane"])
    def test_complete_over_null_names_the_dimension(self, sql, options):
        # Regression: the complete kernels compared None with a float and
        # surfaced an internal TypeError wrapped in a TaskError.
        session = connect(**options)
        try:
            session.create_table(
                "t", [("id", INTEGER, False), ("a", DOUBLE, True),
                      ("b", DOUBLE, True)], [(1, 1.0, None), (2, 0.5, 2.0)])
            with pytest.raises(ExecutionError,
                               match=r"t\.b MIN holds NULL.*COMPLETE") \
                    as info:
                session.sql(sql).collect()
            assert not isinstance(info.value, TaskError)
        finally:
            session.close()

    def test_complete_allows_null_in_a_diff_dimension(self, session):
        session.create_table(
            "t", [("id", INTEGER, False), ("g", STRING, True),
                  ("a", DOUBLE, False)],
            [(1, None, 1.0), (2, None, 2.0), (3, "x", 3.0)])
        rows = session.sql("SELECT id FROM t "
                           "SKYLINE OF COMPLETE g DIFF, a MIN").to_tuples()
        assert sorted(rows) == [(1,), (3,)]

    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("batch-plane", "row-plane"))
    @pytest.mark.parametrize("strategy", ("distributed-complete",
                                          "non-distributed-complete",
                                          "sfs"))
    def test_forced_complete_strategies_allow_null_in_a_diff_dimension(
            self, strategy, columnar):
        session = connect(num_executors=2, skyline_algorithm=strategy,
                          vectorized=columnar, columnar=columnar)
        session.create_table(
            "t", [("id", INTEGER, False), ("g", STRING, True),
                  ("a", DOUBLE, False)],
            [(1, None, 1.0), (2, None, 2.0), (3, "x", 3.0)])
        rows = session.sql(
            "SELECT id FROM t SKYLINE OF g DIFF, a MIN").to_tuples()
        assert sorted(rows) == [(1,), (3,)]

    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("batch-plane", "row-plane"))
    @pytest.mark.parametrize("kind", ("MIN", "MAX"))
    @pytest.mark.parametrize("column", ("a", "b", "c"))
    def test_the_error_names_the_dimension_holding_null(self, column,
                                                        kind, columnar):
        # One NULL, in the last row: only the local task holding it can
        # see it, and the message names that dimension and no other.
        rows = [(i, float(i), float(100 - i), float(i % 7))
                for i in range(100)]
        position = "abc".index(column) + 1
        rows[-1] = tuple(None if j == position else v
                         for j, v in enumerate(rows[-1]))
        session = connect(num_executors=4, vectorized=columnar,
                          columnar=columnar)
        session.create_table(
            "t", [("id", INTEGER, False)] + [
                (c, DOUBLE, True) for c in "abc"], rows)
        dims = ", ".join(f"{c} {kind if c == column else 'MIN'}"
                         for c in "abc")
        with pytest.raises(ExecutionError,
                           match=rf"dimension t\.{column} {kind} holds NULL"):
            session.sql(
                f"SELECT id FROM t SKYLINE OF COMPLETE {dims}").collect()

    def test_type_mismatch_in_comparison(self, session):
        session.create_table(
            "t", [("s", STRING, False), ("n", INTEGER, False)],
            [("x", 1)])
        with pytest.raises(AnalysisError):
            session.sql("SELECT s FROM t WHERE s < n").collect()


class TestNumericEdges:
    def test_mixed_int_float_dimensions(self, session):
        session.create_table(
            "mixed", [("a", DOUBLE, False), ("b", INTEGER, False)],
            [(1.5, 2), (1.5, 3), (2.0, 1)])
        rows = session.sql(
            "SELECT a, b FROM mixed SKYLINE OF a MIN, b MAX").to_tuples()
        # (1.5, 3) dominates (1.5, 2) and (2.0, 1).
        assert rows == [(1.5, 3)]

    def test_negative_values(self, session):
        session.create_table(
            "neg", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(-5, -5), (0, 0), (-5, 0)])
        rows = session.sql(
            "SELECT a, b FROM neg SKYLINE OF a MIN, b MIN").to_tuples()
        assert rows == [(-5, -5)]

    def test_division_by_zero_in_projection_is_null(self, session):
        session.create_table("t", [("a", INTEGER, False)], [(1,)])
        rows = session.sql("SELECT a / 0 AS q FROM t").to_tuples()
        assert rows == [(None,)]


class TestExecutorEdges:
    def test_more_executors_than_rows(self):
        session = connect(num_executors=16)
        session.create_table(
            "tiny", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(1, 2), (2, 1)])
        rows = session.sql(
            "SELECT a FROM tiny SKYLINE OF a MIN, b MIN").to_tuples()
        assert sorted(rows) == [(1,), (2,)]

    def test_single_executor(self):
        session = connect(num_executors=1)
        session.create_table(
            "t", [("a", INTEGER, False)], [(3,), (1,), (2,)])
        rows = session.sql("SELECT a FROM t SKYLINE OF a MIN").to_tuples()
        assert rows == [(1,)]
