"""Table statistics: the one collector behind ``session.table_stats``."""

import pytest

from repro import AnalysisError, SessionConfig, SkylineSession
from repro.engine.batch import ColumnBatch
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.stats import ColumnStats, collect_table_stats


class TestCollectTableStats:
    def test_column_stats(self):
        stats = collect_table_stats(
            "t", ["a", "b", "s"],
            [(1, None, "x"), (2, 5.0, "y"), (3, 7.0, "x")])
        a = stats.column("a")
        assert (a.min_value, a.max_value) == (1, 3)
        assert a.num_nulls == 0 and a.num_distinct == 3
        b = stats.column("b")
        assert (b.num_rows, b.num_nulls) == (3, 1)
        s = stats.column("s")
        assert (s.min_value, s.max_value) == ("x", "y")
        assert s.num_distinct == 2

    def test_lookup_is_case_insensitive(self):
        stats = collect_table_stats("t", ["Price"], [(1.0,), (2.0,)])
        assert stats.column("price") is not None
        assert stats.column("PRICE").max_value == 2.0

    def test_empty_table(self):
        stats = collect_table_stats("t", ["a"], [])
        assert stats.num_rows == 0
        assert stats.column("a") == ColumnStats("a", 0, 0, None, None, 0)

    def test_infinities_are_values(self):
        inf = float("inf")
        a = collect_table_stats("t", ["a"], [(1.0,), (inf,), (-inf,)]) \
            .column("a")
        assert (a.min_value, a.max_value, a.num_distinct) == (-inf, inf, 3)

    def test_mixed_incomparable_values_have_no_bounds(self):
        a = collect_table_stats("t", ["a"], [(1,), ("x",), (None,)]) \
            .column("a")
        assert (a.min_value, a.max_value) == (None, None)
        assert (a.num_nulls, a.num_distinct) == (1, 2)


def _dataset_schemas():
    from repro.datasets import (airbnb_workload, generate_musicbrainz,
                                store_sales_workload)
    for workload in (store_sales_workload(1500, seed=5),
                     airbnb_workload(1500, seed=5, incomplete=True)):
        yield workload.table_name, workload.columns, workload.rows
    for name, (columns, rows) in generate_musicbrainz(600, seed=5).items():
        yield name, columns, rows


def _dataset_tables():
    for name, columns, rows in _dataset_schemas():
        yield name, [c[0] for c in columns], rows


class TestStatsFromResidentColumns:
    """The array pass over a table's resident columns is field-identical
    to the row loop, and leaves what it cannot count exactly to it."""

    @staticmethod
    def _both(names, rows):
        batch = ColumnBatch.from_rows(list(rows), len(names))
        return (collect_table_stats("t", names, rows, batch=batch),
                collect_table_stats("t", names, rows))

    @pytest.mark.parametrize("name,names,rows", list(_dataset_tables()),
                             ids=lambda value: value
                             if isinstance(value, str) else "")
    def test_identical_on_the_paper_datasets(self, name, names, rows):
        from_columns, from_rows = self._both(names, rows)
        assert from_columns.columns == from_rows.columns
        for column in from_columns.columns.values():  # .item(), not np.*
            assert type(column.min_value) in (int, float, str, bool,
                                              type(None))

    def test_edge_columns(self):
        inf = float("inf")
        rows = [(1, 1.5, None, -inf, 7), (2, None, None, inf, 7),
                (2 ** 62, 2.5, None, 0.0, 7), (-5, 2.5, None, 3.0, 7)]
        from_columns, from_rows = self._both(list("abcde"), rows)
        assert from_columns.columns == from_rows.columns
        assert from_columns.column("c").num_nulls == 4
        assert from_columns.column("d").max_value == inf

    def test_nan_bool_and_obj_columns_keep_the_row_loop(self, monkeypatch):
        from repro import stats as stats_module
        rows = [(float("nan"), True, "x", 1), (1.0, False, "y", 2.5),
                (float("nan"), True, None, 2 ** 70)]
        typed = []
        real = stats_module._typed_column_stats

        def spy(name, column):
            typed.append((name, real(name, column) is not None))
            return real(name, column)

        monkeypatch.setattr(stats_module, "_typed_column_stats", spy)
        from_columns, from_rows = self._both(list("abcd"), rows)
        assert typed == [("a", False), ("b", False), ("c", False),
                         ("d", False)]
        assert from_columns.columns == from_rows.columns
        assert from_columns.column("a").num_distinct == 3  # NaN objects


class TestSessionTableStats:
    @staticmethod
    def _session(columnar=True):
        session = SkylineSession(config=SessionConfig(columnar=columnar))
        session.create_table(
            "t", [("a", DOUBLE, True)], [(1.0,), (None,), (3.0,)])
        return session

    def test_table_stats(self):
        stats = self._session().table_stats("t")
        assert stats.table_name == "t" and stats.num_rows == 3
        a = stats.column("a")
        assert (a.num_nulls, a.min_value, a.max_value, a.num_distinct) \
            == (1, 1.0, 3.0, 2)

    def test_table_stats_build_the_resident_columns(self):
        session = self._session()
        table = session.catalog.lookup("t")
        session.table_stats("t")
        assert table.column_batch()[1] is False  # found resident

    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("columnar", "row-plane"))
    def test_every_write_shows_at_once(self, columnar):
        session = self._session(columnar)
        catalog = session.catalog
        assert session.table_stats("t").num_rows == 3
        catalog.insert_into("t", [(7.0,)])
        assert session.table_stats("t").column("a").max_value == 7.0
        catalog.delete_from("t", rows=[(7.0,), (None,)])
        stats = session.table_stats("t")
        assert (stats.num_rows, stats.column("a").num_nulls) == (2, 0)
        catalog.lookup("t").rows.append((9.0,))  # behind the catalog
        assert session.table_stats("t").column("a").max_value == 9.0
        session.create_table("t", [("a", INTEGER, False)], [(5,)])
        assert session.table_stats("t").column("a").min_value == 5

    def test_a_row_plane_session_builds_no_columns(self):
        session = self._session(columnar=False)
        table = session.catalog.lookup("t")
        assert table.resident_batch() is None
        assert session.table_stats("t").column("a").num_nulls == 1
        assert table.resident_batch() is None

    @pytest.mark.parametrize("column,expected", [
        ("i", (3, 1, 1, 3, 2)),
        ("d", (3, 1, 0.5, 2.5, 2)),
        ("s", (3, 1, "a", "b", 2)),
        ("n", (3, 3, None, None, 0)),
    ], ids=("integer", "double", "string", "all-null"))
    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("columnar", "row-plane"))
    def test_one_column_per_type(self, columnar, column, expected):
        # (rows, nulls, min, max, distinct) of each column type.
        session = SkylineSession(config=SessionConfig(columnar=columnar))
        session.create_table(
            "t", [("i", INTEGER, True), ("d", DOUBLE, True),
                  ("s", STRING, True), ("n", DOUBLE, True)],
            [(1, 0.5, "b", None), (3, None, "a", None),
             (None, 2.5, None, None)])
        stats = session.table_stats("t").column(column)
        assert (stats.num_rows, stats.num_nulls, stats.min_value,
                stats.max_value, stats.num_distinct) == expected

    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("columnar", "row-plane"))
    def test_nan_data(self, columnar):
        session = SkylineSession(config=SessionConfig(columnar=columnar))
        session.create_table(
            "t", [("a", DOUBLE, False), ("b", DOUBLE, False)],
            [(float("nan"), 1.0)] + [(float(i), float(i))
                                     for i in range(20)])
        stats = session.table_stats("t")
        assert stats.column("a").num_distinct == 21  # NaN is one more
        assert stats.column("a").num_nulls == 0
        assert (stats.column("b").min_value,
                stats.column("b").max_value) == (0.0, 19.0)

    @pytest.mark.parametrize("name,columns,rows",
                             list(_dataset_schemas()),
                             ids=lambda value: value
                             if isinstance(value, str) else "")
    def test_both_planes_agree_on_the_paper_datasets(self, name, columns,
                                                     rows):
        answers = []
        for columnar in (True, False):
            session = SkylineSession(config=SessionConfig(
                columnar=columnar))
            session.create_table(name, columns, rows)
            answers.append(session.table_stats(name))
        expected = collect_table_stats(name, [c[0] for c in columns], rows)
        assert answers[0] == answers[1] == expected
        assert expected.num_rows == len(rows)

    def test_unknown_table_fails(self):
        with pytest.raises(AnalysisError):
            SkylineSession().table_stats("nope")
