"""Table-resident columns end to end: shared, maintained, bit-identical.

A catalog table keeps ONE columnar form per data version and every
columnar scan -- any backend, any session on the catalog -- reads
zero-copy slices of it.  These tests drive a DML
script through that sharing and hold every answer to the row-plane
scalar reference, and they read the engine's own ``scan`` counters
(not a stopwatch) to prove that neither an unchanged table nor one
changed through catalog DML is ever re-columnized.  Each also runs on
the row plane (``columnar=False``), where no store may ever be built.
"""

from __future__ import annotations

import pytest

from repro import SessionConfig, SkylineSession
from repro.core import make_dimensions
from repro.core.vectorized import SKYLINE_MODES, skyline_task
from repro.engine.backends import ProcessBackend
from repro.engine.batch import OBJ, ColumnBatch
from repro.engine.catalog import Catalog
from repro.engine.types import DOUBLE, INTEGER
from tests.integration.test_differential import _random_rows

COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, True),
           ("b", DOUBLE, True), ("c", DOUBLE, True)]
#: Filter + projection above the scan (nullable dimensions: the chain
#: runs as one fused map stage ahead of the null-bitmap regroup), so
#: the slices are narrowed views of the resident columns.
SQL = ("SELECT id, a, b, c FROM t WHERE id >= 0 "
       "SKYLINE OF a MIN, b MAX, c MIN")


@pytest.fixture(scope="module")
def backends():
    process = ProcessBackend(2)
    yield {"local": "local", "process": process}
    process.close()


def _answer(session: SkylineSession):
    result = session.sql(SQL).run()
    return sorted(map(repr, result.as_tuples())), result.scan


@pytest.mark.parametrize("columnar", (True, False))
@pytest.mark.parametrize("backend_name", ("local", "process"))
def test_dml_script_two_sessions_one_catalog(backend_name, columnar,
                                             backends):
    catalog = Catalog()
    config = SessionConfig(num_executors=3, backend=backends[backend_name],
                           columnar=columnar)
    first = SkylineSession(config=config, catalog=catalog)
    second = SkylineSession(config=config, catalog=catalog)
    reference = SkylineSession(
        config=SessionConfig(num_executors=3, columnar=False,
                             vectorized=False), catalog=catalog)
    rows = _random_rows(400, 7, null_probability=0.1)
    first.create_table("t", COLUMNS, rows)

    def reregister():
        second.create_table("t", COLUMNS,
                            _random_rows(300, 8, null_probability=0.1))

    script = [
        ("initial", lambda: None),
        ("insert", lambda: catalog.insert_into(
            "t", [(-1, -1.0, 9.0, -1.0), (5000, None, 9.0, 0.0)])),
        ("delete-by-rows", lambda: catalog.delete_from(
            "t", rows=[(-1, -1.0, 9.0, -1.0)])),
        ("delete-by-predicate", lambda: catalog.delete_from(
            "t", predicate=lambda row: row[0] % 3 == 0)),
        ("re-register", reregister),
        ("direct rows.append", lambda: catalog.lookup("t").rows.append(
            (9999, -5.0, 50.0, -5.0))),
    ]
    stages = [s.name.split("-")[0]
              for s in first.sql(SQL).run().context.stages]
    assert stages == ["ProjectExec", "SkylineLocalExec",
                      "SkylineGlobalExec"]  # scan+filter+project: 1 stage
    for step, mutate in script:
        mutate()
        expected, _ = _answer(reference)
        table = catalog.lookup("t")
        # Catalog DML carries the resident columns across its delta; a
        # new table, or a write behind the catalog's back, rebuilds.
        maintained = step not in ("re-register", "direct rows.append")
        assert (table.resident_batch() is not None) == \
            (columnar and maintained), step
        got, scan = _answer(first)
        assert got == expected, f"{step}: first session diverged"
        # A fresh plan, in another session, of the now-unchanged table.
        again, rescan = _answer(second)
        assert again == expected, f"{step}: second session diverged"
        if columnar:
            n = table.num_rows
            resident = {"columnized_rows": 0, "resident_rows": n}
            assert scan == (resident if maintained else
                            {"columnized_rows": n, "resident_rows": 0}), \
                f"{step}: {table.maintenance}"
            assert rescan == resident, \
                f"{step}: an unchanged table was re-columnized"
            assert table.resident_column_bytes > 0
        else:
            assert scan == rescan == {"columnized_rows": 0,
                                      "resident_rows": 0}
            assert table.resident_column_bytes == 0


def test_row_plane_and_literal_relations_never_build_a_store():
    session = SkylineSession(config=SessionConfig(columnar=False))
    session.create_table("t", COLUMNS, _random_rows(50, 3))
    session.sql(SQL).run()
    assert session.catalog.lookup("t").resident_column_bytes == 0
    # A literal relation has no table to keep a store on: a columnar
    # plan over it columnizes per execution.
    forced = SkylineSession(config=SessionConfig(columnar=True))
    frame = forced.create_dataframe([(1, 2.0), (2, 1.0), (3, 3.0)],
                                    ["id", "a"])
    plan = frame.skyline_of([("id", "min"), ("a", "min")]).plan
    for _ in range(2):
        result = forced.execute(plan)
        assert result.as_tuples() == [(1, 2.0), (2, 1.0)]
        assert result.scan == {"columnized_rows": 3, "resident_rows": 0}


def test_store_is_columnized_once_into_typed_columns():
    """The first scan builds the store from typed arrays, the next one
    reads it: same answers as the row plane."""
    session = SkylineSession(config=SessionConfig(num_executors=3))
    session.create_table("t", COLUMNS, _random_rows(200, 5))
    reference = SkylineSession(
        config=SessionConfig(columnar=False, vectorized=False),
        catalog=session.catalog)
    expected, _ = _answer(reference)
    assert _answer(session) == (expected, {"columnized_rows": 220,
                                           "resident_rows": 0})
    assert _answer(session) == (expected, {"columnized_rows": 0,
                                           "resident_rows": 220})
    batch, _ = session.catalog.lookup("t").column_batch()
    assert [column.kind for column in batch.columns] == \
        ["i8", "f8", "f8", "f8"]


# -- a column whose storage kind used to differ by partition -----------------

#: ``a`` holds ints in the first half and floats in the second: columnized
#: per partition it was i8 here and f8 there, columnized whole it is one
#: ``obj`` list.  Results must not notice.
MIXED_ROWS = [(i, (i * 7) % 13 if i < 60 else float((i * 5) % 11) + 0.5,
               float((i * 3) % 17), float(i % 7)) for i in range(120)]
MIXED_NULL_ROWS = [
    (i, None if i % 9 == 0 else a, None if i % 11 == 0 else b, c)
    for i, a, b, c in MIXED_ROWS]
DIMS = make_dimensions([(1, "min"), (2, "max"), (3, "min")])


@pytest.mark.parametrize("mode", sorted(SKYLINE_MODES))
def test_mixed_kind_column_is_bit_identical_in_every_mode(mode):
    rows = MIXED_NULL_ROWS if mode in ("bitmap-local", "flagged") \
        else MIXED_ROWS
    whole = ColumnBatch.from_rows(rows, 4)
    whole.set_read_only()
    assert whole.column(1).kind == OBJ
    for start, stop in ((0, len(rows)), (0, 60), (30, 90)):
        expected, _, _ = skyline_task(rows[start:stop], DIMS, mode,
                                      vectorized=False)
        got, _, _ = skyline_task(whole.slice(start, stop), DIMS, mode)
        assert list(map(repr, got.to_rows())) == list(map(repr, expected))


@pytest.mark.parametrize("algorithm,rows", [
    ("distributed-complete", MIXED_ROWS),
    ("sfs", MIXED_ROWS),
    ("distributed-incomplete", MIXED_NULL_ROWS),
])
def test_mixed_kind_column_queries_match_the_row_plane(algorithm, rows):
    sql = "SELECT * FROM t SKYLINE OF a MIN, b MAX, c MIN"
    answers = []
    for columnar in (True, False):
        session = SkylineSession(config=SessionConfig(
            num_executors=2, skyline_algorithm=algorithm,
            columnar=columnar, vectorized=columnar))
        session.create_table("t", COLUMNS, rows)
        answers.append(sorted(map(repr, session.sql(sql).to_tuples())))
    assert answers[0] == answers[1] != []
