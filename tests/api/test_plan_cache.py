"""The catalog's plan cache behind ``session.sql(q).run()``.

Every session on one catalog shares one bounded LRU of planned
statements (:attr:`repro.engine.catalog.Catalog.plans`); the serving
layer's ``CatalogService`` goes through the same lookup
(``tests/serve/test_cache.py::TestPlanCache``).
"""

from __future__ import annotations

import threading

import pytest

from repro import DOUBLE, INTEGER, SessionConfig, SkylineSession, connect
from repro.api import session as session_module
from repro.core import BoundDimension, DimensionKind
from repro.engine import catalog as catalog_module
from repro.engine.shm import leaked_segments, shared_memory_available
from repro.errors import AnalysisError, ParseError

from tests.conftest import skyline_oracle

COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
           ("b", DOUBLE, False)]
ROWS = [(1, 1.0, 9.0), (2, 2.0, 8.0), (3, 3.0, 3.0), (4, 9.0, 1.0),
        (5, 5.0, 5.0), (6, 8.0, 8.0)]
SQL = "SELECT * FROM pts WHERE id > 0 SKYLINE OF a MIN, b MIN"
DIMS = [BoundDimension(1, DimensionKind.MIN),
        BoundDimension(2, DimensionKind.MIN)]


def answer(rows) -> list:
    return sorted(skyline_oracle([r for r in rows if r[0] > 0], DIMS))


def stats(session: SkylineSession) -> tuple:
    plans = session.catalog.plans.stats()
    return plans["hits"], plans["misses"], plans["entries"]


@pytest.fixture
def session() -> SkylineSession:
    session = connect(num_executors=2)
    session.create_table("pts", COLUMNS, ROWS)
    return session


def test_repeated_sql_hits_the_cache_and_skips_planning(session,
                                                       monkeypatch):
    assert sorted(session.sql(SQL).run().as_tuples()) == answer(ROWS)
    assert stats(session) == (0, 1, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a cached statement was parsed or planned")

    monkeypatch.setattr(session_module, "parse_query", refuse)
    for stage in ("analyze", "optimize", "prepare"):
        monkeypatch.setattr(SkylineSession, stage, refuse)
    for _ in range(3):
        assert sorted(session.sql(SQL).run().as_tuples()) == answer(ROWS)
    assert sorted(tuple(r) for r in session.sql(SQL).collect()) == \
        answer(ROWS)
    assert stats(session) == (4, 1, 1)


def test_a_bad_statement_still_raises_at_sql(session):
    with pytest.raises(ParseError):
        session.sql("SELEC * FROM pts")
    assert stats(session) == (0, 0, 0)


def test_drop_and_reregister_replan(session):
    session.sql(SQL).run()
    session.create_table("pts", COLUMNS, ROWS[:3])
    assert stats(session)[2] == 0  # a schema change empties the cache
    assert sorted(session.sql(SQL).run().as_tuples()) == answer(ROWS[:3])
    assert stats(session) == (0, 2, 1)
    session.catalog.drop("pts")
    with pytest.raises(AnalysisError, match="not found"):
        session.sql(SQL).run()
    assert stats(session) == (0, 2, 0)


def test_dml_keeps_the_plan_and_the_plan_sees_the_new_rows(session):
    session.sql(SQL).run()
    session.catalog.insert_into("pts", [(7, 0.5, 0.5)])
    session.catalog.delete_from("pts", rows=[ROWS[2]])
    rows = [r for r in ROWS if r != ROWS[2]] + [(7, 0.5, 0.5)]
    assert sorted(session.sql(SQL).run().as_tuples()) == answer(rows)
    assert stats(session) == (1, 1, 1)


@pytest.mark.parametrize("algorithm", ["sfs", "non-distributed-complete"])
def test_a_forced_strategy_keeps_its_plan_across_dml(session, algorithm):
    # No planning decision reads the data, so no strategy re-plans
    # after DML: the key holds the schema version only.
    forced = session.with_options(skyline_algorithm=algorithm)
    forced.sql(SQL).run()
    session.catalog.insert_into("pts", [(7, 0.5, 0.5)])
    session.catalog.delete_from("pts", rows=[ROWS[2]])
    rows = [r for r in ROWS if r != ROWS[2]] + [(7, 0.5, 0.5)]
    assert sorted(forced.sql(SQL).run().as_tuples()) == answer(rows)
    assert stats(forced) == (1, 1, 1)


@pytest.mark.parametrize("options", [
    {"num_executors": 3},
    {"skyline_algorithm": "distributed-incomplete"},
    {"enable_skyline_optimizations": False},
    {"vectorized": False},
    {"columnar": False},
    {"backend": "process", "num_workers": 2},
], ids=lambda options: next(iter(options)))
def test_sessions_differing_in_a_key_field_do_not_share(session, options):
    session.sql(SQL).run()
    other = session.with_options(**options)
    try:
        assert sorted(other.sql(SQL).run().as_tuples()) == answer(ROWS)
    finally:
        other.close()
    assert stats(session) == (0, 2, 2)


def test_sessions_equal_in_every_key_field_share(session):
    session.sql(SQL).run()
    other = SkylineSession(config=SessionConfig(num_executors=2,
                                                time_budget_s=60.0),
                           catalog=session.catalog)
    other.sql(SQL).run()
    assert stats(session) == (1, 1, 1)


def test_a_derived_dataframe_is_not_served_the_cached_plan(session):
    session.sql(SQL).run()
    filtered = session.sql(SQL).filter("b < 5")
    assert sorted(filtered.run().as_tuples()) == \
        [r for r in answer(ROWS) if r[2] < 5]
    projected = session.sql(SQL).select("id")
    assert sorted(projected.run().as_tuples()) == \
        [(r[0],) for r in answer(ROWS)]
    assert stats(session)[1:] == (1, 1)


def test_analyze_table_is_not_a_statement(session):
    # Every statement is a query with a prepared plan; the removed
    # `analyze table` command fails to parse, at sql(), like any typo.
    for sql in ("analyze table pts", "Analyze Table pts Compute Statistics"):
        with pytest.raises(ParseError):
            session.sql(sql)
    assert stats(session) == (0, 0, 0)


def test_the_bound_evicts_the_least_recently_used(session, monkeypatch):
    monkeypatch.setattr(catalog_module, "PLAN_CACHE_SIZE", 2)
    statements = [f"SELECT * FROM pts WHERE id > {i} SKYLINE OF a MIN"
                  for i in range(3)]
    for sql in statements:
        session.sql(sql).run()
    session.sql(statements[2]).run()
    assert stats(session) == (1, 3, 2)
    session.sql(statements[0]).run()  # evicted: planned again
    assert stats(session) == (1, 4, 2)


@pytest.mark.parametrize("backend", ["local", "process"])
def test_two_threads_running_one_cached_statement(backend):
    rows = [(i, float((i * 37) % 101), float((i * 53) % 97))
            for i in range(3000)]
    with connect(num_executors=3, backend=backend, num_workers=2) \
            as session:
        session.create_table("pts", COLUMNS, rows)
        expected = answer(rows)
        assert sorted(session.sql(SQL).run().as_tuples()) == expected
        results, errors = [], []

        def worker():
            try:
                for _ in range(5):
                    results.append(sorted(session.sql(SQL).run()
                                          .as_tuples()))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert not errors
        assert results == [expected] * 10
        assert stats(session) == (10, 1, 1)


@pytest.mark.skipif(not shared_memory_available(),
                    reason="shared memory not available on this platform")
def test_process_reruns_ship_the_pinned_segments():
    before = set(leaked_segments())
    rows = [(i, float((i * 37) % 1000), float((i * 91) % 997))
            for i in range(20_000)]
    session = connect(num_executors=2, backend="process", num_workers=2)
    try:
        session.create_table("pts", COLUMNS, rows)
        first = session.sql(SQL).run().context.shm_stats
        assert first["bytes_shared"] > 0
        second = session.sql(SQL).run()
        assert second.context.shm_stats["bytes_shared"] == \
            first["bytes_shared"]
        assert second.context.shm_stats["handles_served"] > \
            first["handles_served"]
        assert sorted(second.as_tuples()) == answer(rows)
    finally:
        session.close()
    assert session.shm_stats() is None
    assert set(leaked_segments()) <= before


# -- a scalar subquery's value belongs to one execution ------------------

SUBQUERY_ROWS = [(1, 1.0, 5.0), (2, 2.0, 4.0), (3, 3.0, 3.0), (4, 4.0, 2.0)]
SUBQUERY_SQL = ("SELECT id FROM t WHERE x > (SELECT avg(x) FROM t) "
                "SKYLINE OF x MIN, y MIN")


@pytest.mark.parametrize("path", ["sql", "prepared"])
def test_a_reexecuted_plan_recomputes_its_scalar_subquery(path):
    session = connect(num_executors=2)
    session.create_table("t", [("id", INTEGER, False), ("x", DOUBLE, False),
                               ("y", DOUBLE, False)], SUBQUERY_ROWS)
    if path == "sql":
        def run():
            return sorted(session.sql(SUBQUERY_SQL).run().as_tuples())
    else:
        prepared = session.prepare(session.sql(SUBQUERY_SQL).plan)

        def run():
            return sorted(session.execute_prepared(prepared).as_tuples())
    assert run() == [(3,), (4,)]
    session.catalog.insert_into("t", [(5, 100.0, 100.0), (6, 101.0, 0.5)])
    assert run() == [(5,), (6,)]


@pytest.mark.skipif(not shared_memory_available(),
                    reason="shared memory not available on this platform")
def test_kept_partitions_do_not_outlive_a_subquery_over_another_table():
    """A ``bitmap-local`` plan keeps its regrouped partitions for as
    long as its scan is unchanged -- never when a filter beneath reads
    a scalar subquery, whose value can follow another table."""
    with connect(num_executors=2, backend="process", num_workers=2) \
            as session:
        session.create_table("t", [("id", INTEGER, False),
                                   ("x", DOUBLE, True), ("y", DOUBLE, True)],
                             [(i, float(i), None if i % 3 else float(-i))
                              for i in range(1, 41)])
        session.create_table("u", [("v", DOUBLE, False)], [(10.0,)])
        sql = ("SELECT id FROM t WHERE x > (SELECT max(v) FROM u) "
               "SKYLINE OF x MIN, y MIN")
        reference = SkylineSession(
            config=SessionConfig(columnar=False, vectorized=False),
            catalog=session.catalog)
        for value in (30.0, 35.0, None):
            assert sorted(session.sql(sql).run().as_tuples()) == \
                sorted(reference.sql(sql).run().as_tuples())
            if value is not None:
                session.catalog.insert_into("u", [(value,)])
        assert stats(session)[:2] == (4, 2)  # one plan, two hits, each
