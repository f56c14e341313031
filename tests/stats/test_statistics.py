"""Statistics subsystem: histograms, column stats, cache invalidation."""

import numpy as np
import pytest

from repro import SkylineSession
from repro.engine.batch import ColumnBatch
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.stats import (Histogram, StatsStore, collect_table_stats,
                         stats_for_table)


class TestHistogram:
    def test_counts_and_bounds(self):
        h = Histogram.from_values([0.0, 1.0, 2.0, 3.0], num_buckets=2)
        assert (h.low, h.high) == (0.0, 3.0)
        assert h.counts == (2, 2)
        assert h.total == 4

    def test_empty_input_gives_none(self):
        assert Histogram.from_values([], num_buckets=4) is None

    def test_constant_column_collapses_to_one_bucket(self):
        h = Histogram.from_values([5.0] * 10, num_buckets=8)
        assert h.counts == (10,)

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            Histogram.from_values([1.0], num_buckets=0)

    def test_non_finite_values_are_excluded(self):
        # Regression: NaN used to poison the bucket bounds and raise.
        h = Histogram.from_values(
            [1.0, float("nan"), 2.0, float("inf")], num_buckets=2)
        assert h.total == 2
        assert (h.low, h.high) == (1.0, 2.0)
        assert Histogram.from_values([float("nan")]) is None

    @pytest.mark.parametrize("num_buckets", (1, 3, 8))
    @pytest.mark.parametrize("values", [
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        [-3.5, -1.0, 0.0, 0.25, 0.25, 2.0, 11.0, float("inf")],
    ], ids=("even", "skewed"))
    def test_list_and_array_inputs_bucket_identically(self, values,
                                                      num_buckets):
        # A typed resident column arrives as an ndarray, rows as a
        # list: both paths must cut the same buckets, and the maximum
        # lands in the last one (the upper bound is inclusive).
        from_list = Histogram.from_values(values, num_buckets=num_buckets)
        from_array = Histogram.from_values(np.asarray(values),
                                           num_buckets=num_buckets)
        assert from_list == from_array
        finite = [v for v in values if np.isfinite(v)]
        assert from_list.total == len(finite)
        assert from_list.num_buckets == num_buckets
        assert from_list.counts[-1] >= 1
        assert (from_list.low, from_list.high) == (min(finite), max(finite))

    def test_nan_column_stats_collect_without_error(self):
        stats = collect_table_stats(
            "t", ["a"], [(1.0,), (float("nan"),), (2.0,)])
        assert stats.column("a").histogram.total == 2


class TestCollectTableStats:
    def test_column_stats(self):
        stats = collect_table_stats(
            "t", ["a", "b", "s"],
            [(1, None, "x"), (2, 5.0, "y"), (3, 7.0, "x")])
        a = stats.column("a")
        assert (a.min_value, a.max_value) == (1, 3)
        assert a.num_nulls == 0 and a.num_distinct == 3
        b = stats.column("b")
        assert b.num_nulls == 1
        assert b.null_fraction == pytest.approx(1 / 3)
        s = stats.column("s")
        assert s.histogram is None  # non-numeric
        assert s.num_distinct == 2

    def test_lookup_is_case_insensitive(self):
        stats = collect_table_stats("t", ["Price"], [(1.0,), (2.0,)])
        assert stats.column("price") is not None
        assert stats.column("PRICE").max_value == 2.0


def _dataset_tables():
    from repro.datasets import (airbnb_workload, generate_musicbrainz,
                                store_sales_workload)
    for workload in (store_sales_workload(1500, seed=5),
                     airbnb_workload(1500, seed=5, incomplete=True)):
        yield workload.table_name, [c[0] for c in workload.columns], \
            workload.rows
    for name, (columns, rows) in generate_musicbrainz(600, seed=5).items():
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
        assert from_columns.column("e").histogram.counts == (4,)
        assert from_columns.column("d").histogram.low == 0.0  # finite only

    def test_nan_bool_and_obj_columns_keep_the_row_loop(self, monkeypatch):
        from repro.stats import statistics
        rows = [(float("nan"), True, "x", 1), (1.0, False, "y", 2.5),
                (float("nan"), True, None, 2 ** 70)]
        typed = []
        real = statistics._typed_column_stats

        def spy(name, column, buckets):
            typed.append((name, real(name, column, buckets) is not None))
            return real(name, column, buckets)

        monkeypatch.setattr(statistics, "_typed_column_stats", spy)
        from_columns, from_rows = self._both(list("abcd"), rows)
        assert typed == [("a", False), ("b", False), ("c", False),
                         ("d", False)]
        assert from_columns.columns == from_rows.columns
        assert from_columns.column("a").num_distinct == 3  # NaN objects

    def test_catalog_statistics_build_the_resident_columns(self):
        session = SkylineSession()
        session.create_table("t", [("a", INTEGER, False)], [(1,), (2,)])
        table = session.catalog.lookup("t")
        stats = session.catalog.statistics("t")
        assert stats.column("a").max_value == 2
        assert table.column_batch()[1] is False  # found resident
        assert stats.fingerprint == table._columns[0]


class TestStatsStoreInvalidation:
    def _session(self):
        session = SkylineSession()
        session.create_table(
            "t", [("a", INTEGER, False)], [(1,), (2,), (3,)])
        return session

    def test_stats_are_cached(self):
        session = self._session()
        first = session.catalog.statistics("t")
        assert session.catalog.statistics("t") is first

    def test_reregistering_invalidates(self):
        session = self._session()
        stale = session.catalog.statistics("t")
        session.create_table("t", [("a", INTEGER, False)], [(9,)])
        fresh = session.catalog.statistics("t")
        assert fresh is not stale
        assert fresh.num_rows == 1

    def test_row_append_detected_by_fingerprint(self):
        """A write behind the catalog's back stales the statistics and
        the table's resident columns the same way: one token."""
        session = self._session()
        table = session.catalog.lookup("t")
        stale = session.catalog.statistics("t")
        stale_columns, _ = table.column_batch()
        assert table._columns[0] == stale.fingerprint
        table.rows.append((4,))
        fresh = session.catalog.statistics("t")
        assert fresh is not stale
        assert fresh.num_rows == 4
        fresh_columns, built = table.column_batch()
        # The statistics were collected off the rebuilt columns.
        assert not built
        assert fresh_columns is not stale_columns
        assert fresh_columns.num_rows == 4
        assert table._columns[0] == fresh.fingerprint

    def test_drop_clears_cache_entry(self):
        session = self._session()
        session.catalog.statistics("t")
        session.catalog.drop("t")
        assert session.catalog.stats.peek("t") is None

    def test_refresh_forces_recollection(self):
        session = self._session()
        stale = session.catalog.statistics("t")
        assert session.catalog.statistics("t", refresh=True) is not stale

    def test_store_get_via_table_object(self):
        session = self._session()
        store = StatsStore()
        table = session.catalog.lookup("t")
        assert store.get(table) is store.get(table)
        assert store.get(table).fingerprint == \
            stats_for_table(table).fingerprint


class TestSessionStatsApi:
    def test_table_stats_and_refresh(self):
        session = SkylineSession()
        session.create_table(
            "t", [("a", DOUBLE, True)], [(1.0,), (None,), (3.0,)])
        stats = session.table_stats("t")
        assert stats.column("a").num_nulls == 1
        refreshed = session.stats_refresh()
        assert set(refreshed) == {"t"}
        assert refreshed["t"] is not stats

    def test_analyze_table_sql(self):
        session = SkylineSession()
        session.create_table(
            "items", [("name", STRING, False), ("price", DOUBLE, True)],
            [("a", 1.0), ("b", None), ("c", 3.0)])
        rows = session.sql(
            "ANALYZE TABLE items COMPUTE STATISTICS").to_tuples()
        by_column = {row[1]: row for row in rows}
        assert set(by_column) == {"name", "price"}
        # (table, column, rows, nulls, null_fraction, min, max, ...)
        assert by_column["price"][2] == 3
        assert by_column["price"][3] == 1
        assert by_column["price"][5] == "1.0"
        # The command seeds the cache.
        assert session.catalog.stats.peek("items") is not None

    @pytest.mark.parametrize("column,expected", [
        ("i", ("t", "i", 3, 1, 1 / 3, "1", "3", 2, 16)),
        ("d", ("t", "d", 3, 1, 1 / 3, "0.5", "2.5", 2, 16)),
        ("s", ("t", "s", 3, 1, 1 / 3, "a", "b", 2, 0)),
        ("n", ("t", "n", 3, 3, 1.0, None, None, 0, 0)),
    ], ids=("integer", "double", "string", "all-null"))
    def test_analyze_table_row_per_column_type(self, column, expected):
        # (table, column, rows, nulls, null_fraction, min, max,
        #  distinct, histogram buckets): strings and all-NULL columns
        # carry no histogram.
        session = SkylineSession()
        session.create_table(
            "t", [("i", INTEGER, True), ("d", DOUBLE, True),
                  ("s", STRING, True), ("n", DOUBLE, True)],
            [(1, 0.5, "b", None), (3, None, "a", None),
             (None, 2.5, None, None)])
        rows = session.sql("ANALYZE TABLE t COMPUTE STATISTICS").to_tuples()
        row = next(r for r in rows if r[1] == column)
        assert row[:4] == expected[:4]
        assert row[4] == pytest.approx(expected[4])
        assert row[5:] == expected[5:]

    def test_analyze_table_over_nan_data(self):
        session = SkylineSession()
        session.create_table(
            "t", [("a", DOUBLE, False), ("b", DOUBLE, False)],
            [(float("nan"), 1.0)] + [(float(i), float(i))
                                     for i in range(20)])
        rows = session.sql("ANALYZE TABLE t").to_tuples()
        assert [row[1] for row in rows] == ["a", "b"]
        assert rows[0][7] == 21  # NaN is one more distinct value

    def test_analyze_table_without_compute_suffix(self):
        session = SkylineSession()
        session.create_table("t", [("a", INTEGER, False)], [(1,)])
        assert session.sql("ANALYZE TABLE t").count() == 1

    def test_analyze_unknown_table_fails(self):
        from repro import AnalysisError
        session = SkylineSession()
        with pytest.raises(AnalysisError):
            session.sql("ANALYZE TABLE nope").collect()
