"""Maintain, don't drop: catalog DML carries a table's resident columns
and the result cache's skylines across its delta.

Two differentials, each run after *every* step of a DML script:

* the resident batch is the row list, value for value and type for type
  (``repr``-identical), read-only, never rebuilt -- and a slice taken
  before the step still reads what it read then (copy-on-write);
* every cached skyline equals the all-pairs oracle on the current rows
  as a multiset and a fresh execution in order.

The cached-skyline tests also run on the row plane (``columnar=False``):
it never builds a batch, so cached skylines fall back to invalidation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DOUBLE, INTEGER, STRING, SessionConfig, SkylineSession
from repro.engine.batch import Column
from repro.engine.catalog import Catalog
from repro.engine.row import Field, Schema
from repro.serve import CatalogService
from repro.serve import cache as cache_module

from tests.conftest import skyline_oracle

# -- resident columns --------------------------------------------------------

SCHEMA = Schema([Field("k", INTEGER), Field("x", DOUBLE),
                 Field("y", DOUBLE), Field("s", STRING)])

#: Small domains (duplicates are the norm) plus the values a typed
#: column cannot hold: an int among floats, a float among ints, NULL,
#: an integer beyond int64, a string, NaN.
_DRIFT = st.sampled_from([None, 2 ** 70, "text", 7, 2.5, float("nan"), True])
_ROW = st.tuples(st.integers(0, 3) | _DRIFT,
                 st.sampled_from([0.0, 1.0, 2.5]) | _DRIFT,
                 st.sampled_from([0.5, float("inf")]),
                 st.sampled_from(["a", "b", None]))
_STEP = st.one_of(
    st.tuples(st.just("insert"), st.lists(_ROW, max_size=3)),
    st.tuples(st.just("delete-rows"),
              st.lists(st.integers(0, 40), min_size=1, max_size=4)),
    st.tuples(st.just("delete-where"), st.integers(0, 3)),
    st.tuples(st.just("read"), st.none()))


def _apply(catalog: Catalog, table, step) -> None:
    kind, arg = step
    if kind == "insert":
        catalog.insert_into("t", arg)
    elif kind == "delete-rows" and table.rows:
        # Existing rows (a duplicate's first copy goes), one of them
        # twice, and a ghost that matches nothing.
        targets = [table.rows[i % len(table.rows)] for i in arg]
        catalog.delete_from("t", rows=targets + targets[:1] + [(-1,) * 4])
    elif kind == "delete-where":
        catalog.delete_from(
            "t", predicate=lambda row: row[0] == arg or row[3] is None)


def _assert_faithful(table, batch) -> None:
    assert repr(batch.to_rows()) == repr(table.rows)
    decoded = list(zip(*[c.to_values() for c in batch.columns])) \
        if table.rows else []
    assert repr(decoded) == repr(table.rows)
    for column in batch.columns:
        if column.is_array:
            assert not column.data.flags.writeable
            assert column.mask is None or not column.mask.flags.writeable


@settings(max_examples=120, deadline=None)
@given(st.lists(_ROW, max_size=6), st.lists(_STEP, max_size=8))
def test_resident_columns_follow_every_dml_step(rows, script):
    catalog = Catalog()
    table = catalog.create_table("t", SCHEMA, rows)
    batch, built = table.column_batch()
    assert built
    for step in script:
        before = batch.slice(0, batch.num_rows)
        seen = repr(before.to_rows())
        _apply(catalog, table, step)
        batch, built = table.column_batch()
        assert not built, f"{step}: {table.maintenance}"
        _assert_faithful(table, batch)
        # The old batch did not change under its readers.
        assert repr(before.to_rows()) == seen
        assert repr(list(zip(*[c.to_values() for c in before.columns]))
                    if before.num_rows else []) == seen
    counts = table.maintenance
    assert counts["rebuilt"] == 1 and counts["not_resident"] == 0
    assert counts["overtaken_by_dml"] == 0


def test_list_backed_or_typed_the_counters_tell_what_happened():
    catalog = Catalog()
    table = catalog.create_table("t", SCHEMA, [(1, 1.0, 0.5, "a")])
    table.column_batch()
    catalog.insert_into("t", [(2, 2, 0.5, None), (None, 2.5, 0.5, "b")])
    catalog.delete_from("t", rows=[(1, 1.0, 0.5, "a")])
    batch, built = table.column_batch()
    assert not built and repr(batch.to_rows()) == repr(table.rows)
    assert table.maintenance == {
        "appended": 1, "deleted": 1, "rebuilt": 1, "overtaken_by_dml": 0,
        "not_resident": 0,
        # x met an int and was re-encoded from values (k only gained a
        # null mask: O(delta)).
        "reencoded_kind_drift": 1}


def test_a_value_the_column_holds_costs_the_delta_not_the_table(monkeypatch):
    """NULLs (into a masked column and as a column's first) and values
    of the column's own type never take the re-encode-from-values path;
    a value it cannot hold does, for that column only, and is counted."""
    catalog = Catalog()
    table = catalog.create_table(
        "t", SCHEMA, [(1, 1.0, 0.5, "a"), (None, None, 0.5, "b")])
    kinds = [c.kind for c in table.column_batch()[0].columns]
    assert kinds == ["i8", "f8", "f8", "obj"]
    with monkeypatch.context() as patched:
        patched.setattr(Column, "to_values", lambda self: pytest.fail(
            "a whole column went back through Python values"))
        catalog.insert_into("t", [(None, None, None, None)])
        catalog.insert_into("t", [(3, float("nan"), float("inf"), "c"),
                                  (None, 2.5, None, None)])
    batch, built = table.column_batch()
    assert not built and [c.kind for c in batch.columns] == kinds
    assert batch.column(2).mask.tolist() == [False, False, True, False, True]
    _assert_faithful(table, batch)
    assert table.maintenance["reencoded_kind_drift"] == 0
    catalog.insert_into("t", [(2 ** 70, 4.0, 0.5, "d")])
    batch, built = table.column_batch()
    assert not built
    assert [c.kind for c in batch.columns] == ["obj", "f8", "f8", "obj"]
    _assert_faithful(table, batch)
    assert table.maintenance["reencoded_kind_drift"] == 1


def test_the_row_plane_never_builds_a_batch():
    catalog = Catalog()
    session = SkylineSession(config=SessionConfig(columnar=False),
                             catalog=catalog)
    session.create_table("t", [("k", INTEGER, True), ("x", DOUBLE, True)],
                         [(i, float(i % 3)) for i in range(20)])
    table = catalog.lookup("t")
    sql = "SELECT * FROM t SKYLINE OF k MIN, x MIN"
    for mutate in (lambda: catalog.insert_into("t", [(-1, 5.0)]),
                   lambda: catalog.delete_from("t", rows=[(0, 0.0)]),
                   lambda: catalog.delete_from(
                       "t", predicate=lambda row: row[0] > 15)):
        mutate()
        result = session.sql(sql).run()
        assert result.scan == {"columnized_rows": 0, "resident_rows": 0}
        # Nor do its statistics, which show the DML at once.
        assert session.table_stats("t").num_rows == len(table.rows)
        assert table.resident_batch() is None
        assert table.resident_column_bytes == 0
    assert table.maintenance["not_resident"] == 3
    assert table.maintenance["rebuilt"] == 0


def test_a_maintained_dml_costs_the_next_scan_no_columnization():
    session = SkylineSession(config=SessionConfig(columnar=True))
    session.create_table("t", [("k", INTEGER, False), ("x", DOUBLE, False)],
                         [(i, float(i % 7)) for i in range(50)])
    sql = "SELECT * FROM t SKYLINE OF k MIN, x MIN"
    assert session.sql(sql).run().scan["columnized_rows"] == 50
    session.catalog.insert_into("t", [(-1, 9.0)])
    session.catalog.delete_from("t", rows=[(3, 3.0)])
    result = session.sql(sql).run()
    assert result.scan == {"columnized_rows": 0, "resident_rows": 50}
    assert result.as_tuples() == [(0, 0.0), (-1, 9.0)]


# -- cached skylines ---------------------------------------------------------

COLUMNS = [("id", INTEGER, False), ("g", INTEGER, False),
           ("a", DOUBLE, True), ("b", DOUBLE, True), ("c", DOUBLE, True)]
QUERIES = ["SELECT * FROM pts SKYLINE OF a MIN, b MAX, c MIN",
           "SELECT * FROM pts SKYLINE OF a MIN, b MAX",
           "SELECT * FROM pts SKYLINE OF c MIN, a MIN",
           "SELECT * FROM pts SKYLINE OF g DIFF, a MIN, b MAX"]


#: The session configuration of a service's tenants, per data plane.
COLUMNAR, ROW_PLANE = SessionConfig(), SessionConfig(columnar=False)


@pytest.fixture(params=(COLUMNAR, ROW_PLANE), ids=("columnar", "row-plane"))
def config(request) -> SessionConfig:
    return request.param


def _service(rows, config: SessionConfig = COLUMNAR) -> CatalogService:
    service = CatalogService()
    service.session_for(config).create_table("pts", COLUMNS, rows)
    return service


def _read(service: CatalogService, sql: str,
          config: SessionConfig = COLUMNAR):
    """``sql`` through the caches, checked against a cache-less session
    on the same catalog (same plane, so same order)."""
    got = service.execute(service.session_for(config), sql)
    fresh = SkylineSession(config=config,
                           catalog=service.catalog).sql(sql).run()
    assert repr(got.as_tuples()) == repr(fresh.as_tuples()), sql
    return got


def _assert_entries_exact(service: CatalogService,
                          config: SessionConfig = COLUMNAR) -> None:
    rows = service.catalog.lookup("pts").rows
    plain = SkylineSession(config=config, catalog=service.catalog)
    for entry in service.result_cache._entries.values():
        shape = entry.shape
        want = skyline_oracle(rows, shape.bound_dimensions())
        assert sorted(map(repr, entry.rows)) == sorted(map(repr, want))
        sql = "SELECT * FROM pts SKYLINE OF " + ", ".join(
            f"{name} {kind.value}" for name, kind in shape.dims)
        assert repr(list(entry.rows)) == \
            repr(plain.sql(sql).run().as_tuples()), sql
        if entry.base is not None:
            assert entry.base is service.catalog.lookup("pts")._columns[1]
            assert [entry.base.to_rows()[i] for i in entry.positions] \
                == list(entry.rows)


_VALUE = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_POINT = st.tuples(st.integers(0, 1), _VALUE, _VALUE, _VALUE)
#: One insert in ~eight carries a NULL or a NaN into a dimension.
_DIRTY = st.tuples(st.integers(0, 1), _VALUE,
                   st.sampled_from([None, float("nan")]), _VALUE)
_CACHE_STEP = st.one_of(
    st.tuples(st.just("insert"), st.lists(
        st.one_of(*[_POINT] * 7, _DIRTY), min_size=1, max_size=3)),
    st.tuples(st.just("delete-rows"),
              st.lists(st.integers(0, 60), min_size=1, max_size=3)),
    st.tuples(st.just("delete-where"), _VALUE),
    st.tuples(st.just("read"), st.integers(0, len(QUERIES) - 1)))


def _run_cache_script(points, script, config: SessionConfig
                      ) -> CatalogService:
    serial = iter(range(1000, 10_000))
    service = _service([(next(serial),) + p for p in points], config)
    catalog = service.catalog
    _read(service, QUERIES[0], config)
    for kind, arg in script:
        rows = catalog.lookup("pts").rows
        if kind == "insert":
            # Every other inserted row duplicates an existing id too:
            # whole-tuple duplicates are part of the domain.
            catalog.insert_into("pts", [
                (next(serial),) + p if i % 2 else (1000,) + p
                for i, p in enumerate(arg)])
        elif kind == "delete-rows" and rows:
            catalog.delete_from(
                "pts", rows=[rows[i % len(rows)] for i in arg])
        elif kind == "delete-where":
            catalog.delete_from("pts", predicate=lambda row: row[2] == arg)
        elif kind == "read":
            _read(service, QUERIES[arg], config)
        _assert_entries_exact(service, config)
    for sql in QUERIES[:3]:
        table_rows = catalog.lookup("pts").rows
        if not any(v is None or v != v for row in table_rows
                   for v in row[2:]):
            _read(service, sql, config)
    _assert_entries_exact(service, config)
    return service


@pytest.mark.parametrize("columnar", (True, False))
@settings(max_examples=100, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=14),
       st.lists(_CACHE_STEP, max_size=10))
def test_cached_skylines_follow_every_dml_step(columnar, points, script):
    _run_cache_script(points, script, COLUMNAR if columnar else ROW_PLANE)


FULL = QUERIES[0]


def _named(rows, mutate, config: SessionConfig = COLUMNAR):
    """Cache FULL over ``rows``, apply ``mutate(catalog)``, re-read."""
    service = _service(rows, config)
    _read(service, FULL, config)
    mutate(service.catalog)
    _assert_entries_exact(service, config)
    out = _read(service, FULL, config)
    _assert_entries_exact(service, config)
    return service, out


def entering_insert_that_evicts(config: SessionConfig = COLUMNAR):
    rows = [(1, 0, 1.0, 5.0, 1.0), (2, 0, 2.0, 9.0, 2.0),
            (3, 0, 3.0, 1.0, 3.0)]
    service, out = _named(rows, lambda c: c.insert_into(
        "pts", [(4, 0, 0.5, 9.0, 0.5)]), config)
    assert out.as_tuples() == [(4, 0, 0.5, 9.0, 0.5)]
    return service, out


def delete_promoting_a_chain(config: SessionConfig = COLUMNAR):
    # 1 dominates 2, 3 and 4; 2 dominates 3 and 4; 5 is incomparable.
    # Deleting 1 makes 2, 3 and 4 candidates and promotes only 2.
    rows = [(1, 0, 1.0, 9.0, 1.0), (2, 0, 2.0, 8.0, 2.0),
            (3, 0, 3.0, 7.0, 3.0), (4, 0, 3.0, 8.0, 2.0),
            (5, 0, 0.0, 0.0, 9.0)]
    service, out = _named(rows, lambda c: c.delete_from(
        "pts", rows=[rows[0]]), config)
    assert out.as_tuples() == [rows[1], rows[4]]
    return service, out


class TestNamedCases:
    """On the columnar plane cached skylines are maintained; on the row
    plane, which keeps no resident columns, they invalidate."""

    def test_entering_insert_evicts(self, config):
        maintained = config.columnar
        service, out = entering_insert_that_evicts(config)
        assert out.cache_hit == maintained
        stats = service.result_cache.stats
        assert stats.maintained_inserts == maintained
        assert stats.invalidations == (not maintained)

    def test_micro_batches_of_appends(self, config):
        # An append stream in batches of eight: after every batch the
        # cached skyline is the one a fresh execution computes.
        rows = [(i, i % 2, float(i % 7), float((i * 3) % 5),
                 float((i * 5) % 11)) for i in range(48)]
        service = _service(rows[:8], config)
        _read(service, FULL, config)
        hits = []
        for start in range(8, len(rows), 8):
            service.catalog.insert_into("pts", rows[start:start + 8])
            _assert_entries_exact(service, config)
            hits.append(_read(service, FULL, config).cache_hit)
        stats = service.result_cache.stats
        if config.columnar:
            assert all(hits) and stats.invalidations == 0
            assert stats.maintained_inserts > 0
        else:
            assert stats.maintained_inserts == 0

    def test_all_dimension_tie_keeps_both(self, config):
        rows = [(1, 0, 1.0, 5.0, 1.0), (2, 0, 0.0, 0.0, 0.0)]
        _, out = _named(rows, lambda c: c.insert_into(
            "pts", [(3, 1, 1.0, 5.0, 1.0)]), config)
        assert out.as_tuples() == [rows[0], rows[1], (3, 1, 1.0, 5.0, 1.0)]
        assert out.cache_hit == config.columnar

    def test_duplicate_member_deleted_once(self, config):
        twin = (1, 0, 1.0, 5.0, 1.0)
        rows = [twin, (2, 0, 2.0, 4.0, 2.0), twin, (3, 0, 0.0, 0.0, 9.0)]
        service, out = _named(rows, lambda c: c.delete_from(
            "pts", rows=[twin]), config)
        # The survivor still dominates row 2: nothing is promoted.
        assert out.as_tuples() == [twin, rows[3]]
        assert service.catalog.lookup("pts").rows == rows[1:]
        assert out.cache_hit == config.columnar
        _, out = _named(rows, lambda c: c.delete_from(
            "pts", rows=[twin, twin]), config)
        assert out.as_tuples() == [rows[1], rows[3]]

    def test_delete_promotes_only_the_candidates_own_skyline(self, config):
        service, out = delete_promoting_a_chain(config)
        assert out.cache_hit == config.columnar
        assert service.result_cache.stats.maintained_deletes == \
            config.columnar

    def test_non_member_deltas_leave_the_members_alone(self, config):
        rows = [(1, 0, 1.0, 9.0, 1.0), (2, 0, 2.0, 8.0, 2.0)]
        service, out = _named(rows, lambda c: (
            c.insert_into("pts", [(3, 0, 5.0, 1.0, 5.0)]),
            c.delete_from("pts", rows=[rows[1]])), config)
        assert out.cache_hit and out.as_tuples() == [rows[0]]
        stats = service.result_cache.stats
        assert (stats.maintained_inserts, stats.maintained_deletes,
                stats.invalidations) == (0, 0, 0)

    def test_diff_dimension(self, config):
        maintained = config.columnar
        sql = QUERIES[3]
        rows = [(1, 0, 1.0, 9.0, 0.0), (2, 1, 2.0, 8.0, 0.0),
                (3, 1, 1.5, 7.0, 0.0)]
        service = _service(rows, config)
        assert _read(service, sql, config).as_tuples() == rows
        # Beats rows 2 and 3 in its own group only: 2 and 3 leave, 1 stays.
        service.catalog.insert_into("pts", [(4, 1, 0.0, 9.0, 0.0)])
        _assert_entries_exact(service, config)
        out = _read(service, sql, config)
        assert out.as_tuples() == [rows[0], (4, 1, 0.0, 9.0, 0.0)]
        assert out.cache_hit == maintained
        # The delete step cannot read a DIFF dimension off the columns.
        service.catalog.delete_from("pts", rows=[(4, 1, 0.0, 9.0, 0.0)])
        _assert_entries_exact(service, config)
        out = _read(service, sql, config)
        assert not out.cache_hit and out.as_tuples() == rows
        reasons = service.result_cache.stats.invalidation_reasons
        assert reasons["unvectorizable"] == maintained
        assert reasons["no_resident_columns"] == (0 if maintained else 2)

    @pytest.mark.parametrize("value,reason", [
        (None, "null_dimension"), (float("nan"), "nan_dimension")])
    def test_null_or_nan_insert_still_invalidates(self, value, reason,
                                                  config):
        maintained = config.columnar
        rows = [(1, 0, 1.0, 9.0, 1.0), (2, 0, 2.0, 8.0, 2.0)]
        service = _service(rows, config)
        _read(service, QUERIES[1], config)  # the subset first: two entries
        _read(service, FULL, config)
        service.catalog.insert_into("pts", [(3, 0, 0.0, 9.0, value)])
        # c is a dimension of FULL only: the (a, b) entry is maintained.
        keys = [e.shape.dims for e in service.result_cache._entries.values()]
        assert len(keys) == (1 if maintained else 0)
        reasons = service.result_cache.stats.invalidation_reasons
        assert reasons[reason] == 1
        assert sum(reasons.values()) == (1 if maintained else 2)
        _assert_entries_exact(service, config)
        assert _read(service, QUERIES[1], config).cache_hit == maintained

    def test_a_stale_batch_invalidates_what_it_cannot_maintain(self, config):
        rows = [(1, 0, 1.0, 9.0, 1.0), (2, 0, 2.0, 8.0, 2.0)]
        service = _service(rows, config)
        _read(service, FULL, config)
        table = service.catalog.lookup("pts")
        table.rows.append((3, 0, 9.0, 0.0, 9.0))  # behind the catalog
        # Dominated: keeps the entry, which now references no batch ...
        service.catalog.insert_into("pts", [(4, 0, 5.0, 1.0, 5.0)])
        assert len(service.result_cache) == 1
        assert _read(service, QUERIES[1], config).cache_hit
        # ... so a delta that changes the members drops it, counted.
        service.catalog.delete_from("pts", rows=[rows[0]])
        assert len(service.result_cache) == 0
        reasons = service.result_cache.stats.invalidation_reasons
        assert reasons["no_resident_columns"] == 1


class TestMutations:
    """The differential notices a wrong maintenance step."""

    def test_promoting_every_candidate_is_caught(self, monkeypatch):
        def promote_all(base, members, deleted, bdims):
            dominated = cache_module.vec_dominated_mask(base, deleted, bdims)
            return [i for i, dead in enumerate(dominated) if dead]

        delete_promoting_a_chain()
        monkeypatch.setattr(cache_module, "_promoted", promote_all)
        with pytest.raises(AssertionError):
            delete_promoting_a_chain()

    def test_never_evicting_is_caught(self, monkeypatch):
        entering_insert_that_evicts()
        monkeypatch.setattr(
            cache_module, "bnl_step",
            lambda window, row, dims: (window + [row], False, 0))
        with pytest.raises(AssertionError):
            entering_insert_that_evicts()
