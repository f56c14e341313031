"""The dominance-aware result cache: shapes, containment, invalidation."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import DOUBLE, INTEGER, SessionConfig
from repro.core import BoundDimension, DimensionKind
from repro.engine.catalog import Table
from repro.serve import CatalogService, SkylineResultCache, cacheable_shape

from tests.conftest import skyline_oracle

POINTS = [
    (1, 1.0, 9.0, 5.0),
    (2, 2.0, 8.0, 1.0),
    (3, 3.0, 7.0, 9.0),
    (4, 4.0, 6.0, 2.0),
    (5, 5.0, 5.0, 8.0),
    (6, 6.0, 4.0, 3.0),
    (7, 7.0, 3.0, 7.0),
    (8, 8.0, 2.0, 4.0),
    (9, 9.0, 1.0, 6.0),
    (10, 5.0, 5.0, 5.0),
    (11, 9.0, 9.0, 9.0),
    (12, 2.0, 9.0, 9.0),
]

COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
           ("b", DOUBLE, False), ("c", DOUBLE, False)]

#: Tenant configurations.  Entries are *maintained* under DML only where
#: tables keep resident columns for them to reference; a row-plane
#: tenant (``columnar=False``) never builds any, and there a delta that
#: changes a cached skyline still invalidates it.
COLUMNAR, ROW_PLANE = SessionConfig(), SessionConfig(columnar=False)
BOTH_PLANES = pytest.mark.parametrize("config", (COLUMNAR, ROW_PLANE),
                                      ids=("columnar", "row-plane"))


@pytest.fixture
def config() -> SessionConfig:
    return COLUMNAR


@pytest.fixture
def service(config) -> CatalogService:
    service = CatalogService()
    session = service.session_for(config)
    session.create_table("pts", COLUMNS, POINTS)
    return service


def shape_of(service: CatalogService, sql: str):
    session = service.session_for()
    prepared = session.prepare(session.sql(sql).plan)
    return cacheable_shape(prepared.optimized)


def run(service: CatalogService, sql: str,
        config: SessionConfig = COLUMNAR):
    return service.execute(service.session_for(config), sql)


def oracle(rows, spec):
    dims = [BoundDimension(i, kind) for i, kind in spec]
    return sorted(skyline_oracle(rows, dims))


class TestCacheableShape:
    def test_select_star_skyline_is_cacheable(self, service):
        shape = shape_of(
            service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        assert shape is not None
        assert shape.table == "pts"
        assert shape.dims == ((("a"), DimensionKind.MIN),
                              (("b"), DimensionKind.MIN))
        assert shape.indices == (1, 2)

    def test_where_filter_not_cacheable(self, service):
        assert shape_of(
            service,
            "SELECT * FROM pts WHERE a > 2 SKYLINE OF a MIN, b MIN"
        ) is None

    def test_column_subset_not_cacheable(self, service):
        assert shape_of(
            service, "SELECT a, b FROM pts SKYLINE OF a MIN, b MIN"
        ) is None

    def test_distinct_not_cacheable(self, service):
        assert shape_of(
            service,
            "SELECT * FROM pts SKYLINE OF DISTINCT a MIN, b MIN"
        ) is None

    def test_plain_select_not_cacheable(self, service):
        assert shape_of(service, "SELECT * FROM pts") is None

    def test_key_is_order_insensitive(self, service):
        ab = shape_of(service,
                      "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        ba = shape_of(service,
                      "SELECT * FROM pts SKYLINE OF b MIN, a MIN")
        assert ab.key == ba.key


class TestContainmentLookup:
    def test_exact_hit_is_bit_identical(self, service):
        cold = run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        hot = run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        assert not cold.cache_hit and hot.cache_hit
        assert hot.as_tuples() == cold.as_tuples()
        assert service.result_cache.stats.exact_hits == 1

    def test_subset_refilter_matches_oracle(self, service):
        run(service,
            "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN")
        for sql, spec in [
            ("SELECT * FROM pts SKYLINE OF a MIN, b MIN",
             [(1, DimensionKind.MIN), (2, DimensionKind.MIN)]),
            ("SELECT * FROM pts SKYLINE OF b MIN, c MIN",
             [(2, DimensionKind.MIN), (3, DimensionKind.MIN)]),
            ("SELECT * FROM pts SKYLINE OF a MIN, c MIN",
             [(1, DimensionKind.MIN), (3, DimensionKind.MIN)]),
        ]:
            hot = run(service, sql)
            assert hot.cache_hit
            assert sorted(hot.as_tuples()) == oracle(POINTS, spec)

    def test_subset_bit_identical_vs_cold_service(self, service):
        run(service,
            "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN")
        hot = run(service, "SELECT * FROM pts SKYLINE OF a MIN, c MIN")
        assert hot.cache_hit
        cold_service = CatalogService()
        cold_service.session_for().create_table("pts", COLUMNS, POINTS)
        cold = run(cold_service,
                   "SELECT * FROM pts SKYLINE OF a MIN, c MIN")
        assert not cold.cache_hit
        assert sorted(hot.as_tuples()) == sorted(cold.as_tuples())

    def test_superset_query_misses(self, service):
        run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        out = run(service,
                  "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN")
        assert not out.cache_hit

    def test_mixed_kinds_refilter(self, service):
        run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MAX, c MIN")
        hot = run(service, "SELECT * FROM pts SKYLINE OF b MAX, c MIN")
        assert hot.cache_hit
        assert sorted(hot.as_tuples()) == oracle(
            POINTS, [(2, DimensionKind.MAX), (3, DimensionKind.MIN)])

    def test_cache_disabled_never_hits(self, service):
        service.result_cache_enabled = False
        run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        out = run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN")
        assert not out.cache_hit
        assert len(service.result_cache) == 0


@BOTH_PLANES
class TestInvalidation:
    FULL = "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN"

    def test_dominated_insert_keeps_entry(self, service, config):
        run(service, self.FULL, config)
        # (9.5, 9.5, 9.5) is dominated by row 10 = (5, 5, 5).
        service.catalog.insert_into("pts", [(99, 9.5, 9.5, 9.5)])
        out = run(service, self.FULL, config)
        assert out.cache_hit
        assert sorted(out.as_tuples()) == oracle(
            POINTS, [(1, DimensionKind.MIN), (2, DimensionKind.MIN),
                     (3, DimensionKind.MIN)])

    def test_subset_after_dominated_insert_sees_table(self, service, config):
        run(service, self.FULL, config)
        service.catalog.insert_into("pts", [(99, 9.5, 9.5, 9.5)])
        hot = run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN", config)
        assert hot.cache_hit
        assert sorted(hot.as_tuples()) == oracle(
            POINTS + [(99, 9.5, 9.5, 9.5)],
            [(1, DimensionKind.MIN), (2, DimensionKind.MIN)])

    DIMS = [(1, DimensionKind.MIN), (2, DimensionKind.MIN),
            (3, DimensionKind.MIN)]

    def test_surviving_insert_enters_and_evicts(self, service, config):
        run(service, self.FULL, config)
        service.catalog.insert_into("pts", [(99, 0.5, 0.5, 0.5)])
        out = run(service, self.FULL, config)
        assert out.cache_hit == config.columnar
        assert out.as_tuples() == [(99, 0.5, 0.5, 0.5)]
        stats = service.result_cache.stats
        assert (stats.maintained_inserts, stats.invalidations) == \
            ((1, 0) if config.columnar else (0, 1))
        assert stats.invalidation_reasons["no_resident_columns"] == \
            (not config.columnar)

    def test_tying_insert_keeps_both(self, service, config):
        run(service, self.FULL, config)
        # Ties skyline member (2, 2.0, 8.0, 1.0) in every dimension and
        # no other row dominates it; ties are not strict dominance, so
        # the new row belongs in the skyline beside it.
        service.catalog.insert_into("pts", [(99, 2.0, 8.0, 1.0)])
        out = run(service, self.FULL, config)
        assert out.cache_hit == config.columnar
        assert sorted(out.as_tuples()) == oracle(
            POINTS + [(99, 2.0, 8.0, 1.0)], self.DIMS)
        assert {(2, 2.0, 8.0, 1.0), (99, 2.0, 8.0, 1.0)} <= \
            set(out.as_tuples())

    def test_delete_nonmember_keeps_entry(self, service, config):
        run(service, self.FULL, config)
        service.catalog.delete_from("pts", rows=[(11, 9.0, 9.0, 9.0)])
        out = run(service, self.FULL, config)
        assert out.cache_hit
        remaining = [r for r in POINTS if r[0] != 11]
        assert sorted(out.as_tuples()) == oracle(
            remaining, [(1, DimensionKind.MIN), (2, DimensionKind.MIN),
                        (3, DimensionKind.MIN)])

    def test_subset_after_delete_reads_the_republished_columns(
            self, service, config):
        run(service, self.FULL, config)
        service.catalog.delete_from("pts", rows=[(11, 9.0, 9.0, 9.0)])
        hot = run(service, "SELECT * FROM pts SKYLINE OF b MIN, c MIN", config)
        assert hot.cache_hit
        remaining = [r for r in POINTS if r[0] != 11]
        assert sorted(hot.as_tuples()) == oracle(
            remaining, [(2, DimensionKind.MIN), (3, DimensionKind.MIN)])

    def test_delete_member_promotes_what_it_dominated(self, service, config):
        run(service, self.FULL, config)
        # Only (10, 5, 5, 5) dominates (5, 5, 5, 8): it is promoted.
        # (11, 9, 9, 9), which both dominate, is not.
        service.catalog.delete_from("pts", rows=[(10, 5.0, 5.0, 5.0)])
        out = run(service, self.FULL, config)
        assert out.cache_hit == config.columnar
        remaining = [r for r in POINTS if r[0] != 10]
        assert (5, 5.0, 5.0, 8.0) in out.as_tuples()
        assert sorted(out.as_tuples()) == oracle(remaining, self.DIMS)
        cold = CatalogService()
        cold.session_for(config).create_table("pts", COLUMNS, remaining)
        assert out.as_tuples() == run(cold, self.FULL, config).as_tuples()
        assert service.result_cache.stats.maintained_deletes == config.columnar

    def test_register_flushes_table(self, service, config):
        run(service, self.FULL, config)
        assert len(service.result_cache) == 1
        service.session_for(config).create_table("pts", COLUMNS, POINTS[:4])
        assert len(service.result_cache) == 0
        out = run(service, self.FULL, config)
        assert not out.cache_hit
        assert len(out.as_tuples()) == len(oracle(
            POINTS[:4],
            [(1, DimensionKind.MIN), (2, DimensionKind.MIN),
             (3, DimensionKind.MIN)]))

    def test_drop_flushes_table(self, service, config):
        run(service, self.FULL, config)
        service.catalog.drop("pts")
        assert len(service.result_cache) == 0

    def test_unrelated_table_dml_keeps_entry(self, service, config):
        session = service.session_for(config)
        session.create_table("other", COLUMNS, POINTS[:3])
        run(service, self.FULL, config)
        service.catalog.insert_into("other", [(99, 1.0, 1.0, 1.0)])
        hot = run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN", config)
        assert hot.cache_hit
        assert sorted(hot.as_tuples()) == oracle(
            POINTS, [(1, DimensionKind.MIN), (2, DimensionKind.MIN)])


class TestNullSafety:
    def test_null_dimension_table_never_cached(self):
        service = CatalogService()
        session = service.session_for()
        session.create_table(
            "npts",
            [("id", INTEGER, False), ("a", DOUBLE, True),
             ("b", DOUBLE, True)],
            [(1, 1.0, None), (2, 2.0, 2.0), (3, None, 1.0)])
        sql = "SELECT * FROM npts SKYLINE OF a MIN, b MIN"
        run(service, sql)
        assert len(service.result_cache) == 0
        assert not run(service, sql).cache_hit

    def test_null_insert_invalidates(self):
        service = CatalogService()
        session = service.session_for()
        session.create_table(
            "npts",
            [("id", INTEGER, False), ("a", DOUBLE, True),
             ("b", DOUBLE, True)],
            [(1, 1.0, 3.0), (2, 2.0, 2.0), (3, 3.0, 1.0)])
        sql = "SELECT * FROM npts SKYLINE OF a MIN, b MIN"
        run(service, sql)
        assert len(service.result_cache) == 1
        # Null in a cached dimension: incomplete semantics from here on.
        service.catalog.insert_into("npts", [(4, None, 9.0)])
        assert len(service.result_cache) == 0
        reasons = service.result_cache.stats.invalidation_reasons
        assert reasons["null_dimension"] == 1
        assert not run(service, sql).cache_hit


class TestCacheMechanics:
    def test_lru_eviction(self):
        cache = SkylineResultCache(max_entries=2)
        from repro.engine.row import Field, Schema

        def shape_for(table):
            from repro.serve.cache import CacheableShape
            return CacheableShape(table=table,
                                  dims=(("a", DimensionKind.MIN),),
                                  indices=(0,))

        schema = Schema([Field("a", DOUBLE, False)])
        table = Table("t", schema, [(1.0,), (2.0,)])
        for name in ("t1", "t2", "t3"):
            assert cache.store(shape_for(name), [(1.0,)], table,
                               version=1)
        assert len(cache) == 2
        assert cache.lookup(shape_for("t1"), table) is None
        assert cache.lookup(shape_for("t3"), table) is not None

    def test_store_refuses_a_null_dimension(self):
        from repro.engine.row import Field, Schema
        from repro.serve.cache import CacheableShape

        cache = SkylineResultCache()
        shape = CacheableShape(table="t",
                               dims=(("a", DimensionKind.MIN),),
                               indices=(0,))
        table = Table("t", Schema([Field("a", DOUBLE)]), [(None,)])
        assert not cache.store(shape, [(None,)], table)
        assert len(cache) == 0

    @BOTH_PLANES
    def test_stats_counters(self, service, config):
        stats = service.result_cache.stats
        full = "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN"
        run(service, full, config)
        assert (stats.misses, stats.stores) == (1, 1)
        run(service, full, config)
        assert stats.exact_hits == 1
        run(service, "SELECT * FROM pts SKYLINE OF a MIN, b MIN", config)
        assert stats.refilter_hits == 1
        assert stats.hits == 2
        service.catalog.insert_into("pts", [(99, 0.0, 0.0, 0.0)])
        service.session_for(config).create_table("pts", COLUMNS, POINTS)
        as_dict = stats.as_dict()
        assert as_dict["exact_hits"] == 1
        assert as_dict["maintained_inserts"] == config.columnar
        assert as_dict["invalidations"] == 1
        assert as_dict["invalidation_reasons"][
            "register" if config.columnar else "no_resident_columns"] == 1


def plan_counts(service) -> tuple[int, int]:
    """``(hits, misses)`` of the catalog's plan cache, as ``stats()``
    reports them."""
    counts = service.stats()["plan_cache"]
    return counts["hits"], counts["misses"]


class TestPlanCache:
    """Keyed on the schema, not the data: a prepared plan holds tables,
    not snapshots, so DML neither stales nor re-plans it."""

    COLD = "SELECT * FROM pts WHERE id > 0 SKYLINE OF a MIN, b MIN"

    def test_dml_keeps_the_plan_and_the_plan_sees_the_new_rows(
            self, service):
        run(service, self.COLD)
        assert plan_counts(service) == (0, 1)
        service.catalog.insert_into("pts", [(99, 0.5, 0.5, 9.0)])
        service.catalog.delete_from("pts", rows=[POINTS[0]])
        out = run(service, self.COLD)
        assert plan_counts(service) == (1, 1)
        assert out.as_tuples() == [(99, 0.5, 0.5, 9.0)]

    def test_drop_and_reregister_still_invalidate_plans(self, service):
        run(service, self.COLD)
        service.session_for().create_table("pts", COLUMNS, POINTS[:4])
        out = run(service, self.COLD)  # a new Table object: re-planned
        assert plan_counts(service) == (0, 2)
        assert sorted(out.as_tuples()) == oracle(
            [r for r in POINTS[:4] if r[0] > 0],
            [(1, DimensionKind.MIN), (2, DimensionKind.MIN)])
        service.catalog.drop("pts")
        with pytest.raises(Exception, match="not found"):
            run(service, self.COLD)
        assert plan_counts(service) == (0, 2)

    def test_a_cached_plan_recomputes_its_scalar_subquery(self, service):
        session = service.session_for()
        session.create_table("t", [("id", INTEGER, False),
                                   ("x", DOUBLE, False),
                                   ("y", DOUBLE, False)],
                             [(1, 1.0, 5.0), (2, 2.0, 4.0), (3, 3.0, 3.0),
                              (4, 4.0, 2.0)])
        sql = ("SELECT id FROM t WHERE x > (SELECT avg(x) FROM t) "
               "SKYLINE OF x MIN, y MIN")
        assert sorted(service.execute(session, sql).as_tuples()) == \
            [(3,), (4,)]
        service.catalog.insert_into("t", [(5, 100.0, 100.0),
                                          (6, 101.0, 0.5)])
        assert sorted(service.execute(session, sql).as_tuples()) == \
            [(5,), (6,)]
        assert plan_counts(service) == (1, 1)

    def test_stats_read_the_catalogs_cache(self, service):
        run(service, self.COLD)
        run(service, self.COLD)
        service.session_for().sql(self.COLD).run()  # any session on it
        assert service.stats()["plan_cache"] == \
            {"hits": 2, "misses": 1, "entries": 1}


class TestClose:
    """A closed service leaves the catalog as it found it: its result
    cache is detached and hears of no later mutation."""

    QUERY = "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN"

    def test_closed_services_leave_no_listener(self):
        catalog = CatalogService().catalog
        before = len(catalog._listeners)
        services = [CatalogService(catalog) for _ in range(3)]
        assert len(catalog._listeners) == before + 3
        for service in services:
            service.close()
        assert len(catalog._listeners) == before

    def test_a_closed_service_hears_no_dml(self, service):
        run(service, self.QUERY)
        service.close()
        # (0.5, 0.5, 0.5) would enter the cached skyline.
        service.catalog.insert_into("pts", [(99, 0.5, 0.5, 0.5)])
        stats = service.result_cache.stats
        assert (stats.maintained_inserts, stats.invalidations) == (0, 0)

    def test_an_open_service_on_the_same_catalog_still_maintains(
            self, service):
        other = CatalogService(service.catalog)
        run(other, self.QUERY)
        service.close()
        service.catalog.insert_into("pts", [(99, 0.5, 0.5, 0.5)])
        out = run(other, self.QUERY)
        assert out.cache_hit
        assert out.as_tuples() == [(99, 0.5, 0.5, 0.5)]
        assert other.result_cache.stats.maintained_inserts == 1
        other.close()


class TestConcurrentDml:
    """A result computed before a mutation must never be stored after
    the invalidation listener has applied it (nothing would ever drop
    the stale entry)."""

    SQL = "SELECT * FROM pts SKYLINE OF a MIN, b MIN"

    def test_delete_landing_before_the_store_is_not_cached(
            self, service, monkeypatch):
        victim = POINTS[0]  # a skyline member
        real_store = service.result_cache.store

        def store_after_delete(*args, **kwargs):
            # The writer lands after the reader's query finished and
            # before its result reaches the cache.
            writer = threading.Thread(
                target=service.catalog.delete_from,
                args=("pts",), kwargs={"rows": [victim]})
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
            return real_store(*args, **kwargs)

        monkeypatch.setattr(service.result_cache, "store",
                            store_after_delete)
        assert victim in [tuple(r) for r in run(service, self.SQL).rows]
        monkeypatch.undo()
        assert len(service.result_cache) == 0
        after = run(service, self.SQL)
        assert not after.cache_hit
        assert victim not in [tuple(r) for r in after.rows]

    def test_readers_racing_a_writer_never_leave_a_stale_entry(
            self, service):
        member = (99, 0.5, 0.5, 0.5)  # dominates most of the table
        readers = 4  # more than this host's cores
        errors: list = []

        def read():
            try:
                run(service, self.SQL)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 5.0
            rounds = 0
            while rounds < 40 and time.monotonic() < deadline:
                rounds += 1
                service.catalog.insert_into("pts", [member])
                threads = [threading.Thread(target=read)
                           for _ in range(readers)]
                for thread in threads:
                    thread.start()
                service.catalog.delete_from("pts", rows=[member])
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert not errors
                answer = sorted(tuple(r) for r in
                                run(service, self.SQL).rows)
                assert answer == oracle(POINTS, [(1, DimensionKind.MIN),
                                                 (2, DimensionKind.MIN)])
        finally:
            sys.setswitchinterval(interval)
        assert rounds >= 5
