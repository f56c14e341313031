"""End-to-end correctness: integrated skyline vs plain-SQL rewrite vs
brute-force oracle (the Section 5.9 verification methodology)."""

import pytest

from repro import connect
from repro.core import make_dimensions
from repro.datasets import (airbnb_workload, musicbrainz_workload,
                            store_sales_workload)
from tests.conftest import skyline_oracle


@pytest.fixture(scope="module")
def airbnb():
    session = connect(num_executors=3)
    workload = airbnb_workload(400, seed=5)
    workload.register(session)
    return session, workload


@pytest.fixture(scope="module")
def airbnb_incomplete():
    session = connect(num_executors=3)
    workload = airbnb_workload(400, seed=5, incomplete=True)
    workload.register(session)
    return session, workload


class TestIntegratedVsReference:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
    def test_airbnb_all_dimension_counts(self, airbnb, dims):
        session, workload = airbnb
        sky = session.sql(workload.skyline_sql(dims)).to_tuples()
        ref = session.sql(workload.reference_sql(dims)).to_tuples()
        assert sorted(sky) == sorted(ref)

    @pytest.mark.parametrize("dims", [1, 3, 6])
    def test_store_sales(self, dims):
        session = connect(num_executors=2)
        workload = store_sales_workload(300)
        workload.register(session)
        sky = session.sql(workload.skyline_sql(dims)).to_tuples()
        ref = session.sql(workload.reference_sql(dims)).to_tuples()
        assert sorted(sky) == sorted(ref)

    @pytest.mark.parametrize("dims", [2, 4, 6])
    def test_musicbrainz_complex_queries(self, dims):
        session = connect(num_executors=2)
        workload = musicbrainz_workload(200)
        workload.register(session)
        sky = session.sql(workload.skyline_sql(dims)).to_tuples()
        ref = session.sql(workload.reference_sql(dims)).to_tuples()
        assert sorted(sky) == sorted(ref)


class TestIntegratedVsOracle:
    def test_airbnb_against_brute_force(self, airbnb):
        session, workload = airbnb
        sky = session.sql(workload.skyline_sql(4)).to_tuples()
        dims = make_dimensions(
            [(workload_col_index(workload, name), kind)
             for name, kind in workload.dimensions(4)])
        expected = skyline_oracle(workload.rows, dims)
        assert sorted(sky) == sorted(expected)

    def test_incomplete_airbnb_against_null_aware_oracle(
            self, airbnb_incomplete):
        session, workload = airbnb_incomplete
        sky = session.sql(workload.skyline_sql(3)).to_tuples()
        dims = make_dimensions(
            [(workload_col_index(workload, name), kind)
             for name, kind in workload.dimensions(3)])
        expected = skyline_oracle(workload.rows, dims, complete=False)
        assert sorted(sky, key=repr) == sorted(expected, key=repr)


class TestAlgorithmStrategiesAgree:
    STRATEGIES = ("distributed-complete", "non-distributed-complete",
                  "distributed-incomplete", "sfs")

    def test_all_forced_strategies_same_result(self, airbnb):
        session, workload = airbnb
        results = {}
        for strategy in self.STRATEGIES:
            forced = session.with_options(skyline_algorithm=strategy)
            results[strategy] = sorted(
                forced.sql(workload.skyline_sql(5)).to_tuples())
        assert len({tuple(v) for v in results.values()}) == 1

    def test_executor_count_does_not_change_result(self, airbnb):
        session, workload = airbnb
        baseline = sorted(
            session.with_options(num_executors=1).sql(
                workload.skyline_sql(6)).to_tuples())
        for executors in (2, 5, 10):
            scaled = sorted(
                session.with_options(num_executors=executors).sql(
                    workload.skyline_sql(6)).to_tuples())
            assert scaled == baseline

    def test_incomplete_strategy_on_incomplete_data(
            self, airbnb_incomplete):
        session, workload = airbnb_incomplete
        auto = session.sql(workload.skyline_sql(4)).to_tuples()
        forced = session.with_options(skyline_algorithm="distributed-incomplete").sql(
            workload.skyline_sql(4)).to_tuples()
        assert sorted(auto, key=repr) == sorted(forced, key=repr)


class TestDataFrameSqlParity:
    def test_dataframe_skyline_equals_sql(self, airbnb):
        session, workload = airbnb
        pairs = workload.dimensions(4)
        df_rows = session.table(workload.table_name).skyline_of(
            pairs).to_tuples()
        sql_rows = session.sql(workload.skyline_sql(4)).to_tuples()
        assert sorted(df_rows) == sorted(sql_rows)


class TestNoSideEffectsOnOtherQueries:
    """Section 5.9: the skyline integration must not disturb ordinary
    query processing."""

    def test_plain_queries_work(self, airbnb):
        session, workload = airbnb
        rows = session.sql(
            f"SELECT count(*) AS n FROM {workload.table_name}"
        ).to_tuples()
        assert rows == [(workload.num_rows,)]

    def test_group_by_join_order_by(self, airbnb):
        session, _ = airbnb
        session.create_table(
            "cities", [("id", None)], [])  # replaced below
        from repro.engine.types import INTEGER, STRING
        session.create_table(
            "lookup", [("accommodates", INTEGER, False),
                       ("label", STRING, False)],
            [(2, "couple"), (4, "family")])
        rows = session.sql("""
            SELECT label, count(*) AS n
            FROM airbnb JOIN lookup USING (accommodates)
            GROUP BY label ORDER BY n DESC
        """).to_tuples()
        assert len(rows) <= 2


def workload_col_index(workload, name):
    return [c[0] for c in workload.columns].index(name)
