"""A ``distributed-incomplete`` plan keeps its null-bitmap regroup.

``SkylineLocalExec`` packs whole null-bitmap groups into at most
``num_executors`` partitions.  When only filters and projections sit
over one scan, a prepared plan keeps those partitions for as long as
the scan's token holds -- on every backend, pinned in the session's
shared-memory store when it has one.  The catalog's plan cache shares
a prepared plan between sessions on different backends, so what one
session keeps the other must read correctly, and DML must invalidate
it for both.
"""

from __future__ import annotations

import pytest

from repro import DOUBLE, INTEGER, SessionConfig, SkylineSession, connect
from repro.core import make_dimensions
from repro.engine.shm import leaked_segments, shared_memory_available

from tests.conftest import skyline_oracle

COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, True), ("b", DOUBLE, True),
           ("c", DOUBLE, True)]
#: Four null bitmaps (none, a, b, a and c), batches of some 100 KB.
ROWS = [(i,
         None if i % 5 == 1 or i % 7 == 3 else float((i * 37) % 1009),
         None if i % 6 == 2 else float((i * 91) % 997),
         None if i % 7 == 3 else float((i * 53) % 1013))
        for i in range(8000)]
SQL = ("SELECT id, a, b, c FROM pts WHERE id >= 0 "
       "SKYLINE OF a MIN, b MAX, c MIN")
DIMS = make_dimensions([(1, "min"), (2, "max"), (3, "min")])
#: Dominates most of the answer in the no-null bitmap.
BETTER = [(10_000, -1.0, 2000.0, -1.0)]


def oracle(rows) -> list:
    return sorted(skyline_oracle(rows, DIMS, complete=False))


def stage_names(result) -> list[str]:
    return [stage.name.rsplit("-", 1)[0] for stage in result.context.stages]


def test_dml_between_runs_of_a_prepared_statement_changes_the_answer():
    session = connect(num_executors=3)
    session.create_table("pts", COLUMNS, ROWS)
    prepared = session.prepare(session.sql(SQL).plan)
    first = session.execute_prepared(prepared)
    assert sorted(first.as_tuples()) == oracle(ROWS)
    assert first.scan == {"columnized_rows": len(ROWS), "resident_rows": 0}
    local = [s for s in first.context.stages
             if s.name.startswith("SkylineLocalExec")]
    assert len(local[0].tasks) == 3
    # The rerun reads the kept regroup: no filter/project stage (named
    # after the chain's top), no scan.
    again = session.execute_prepared(prepared)
    assert stage_names(again) == ["SkylineLocalExec", "SkylineGlobalExec"]
    assert again.scan == {"columnized_rows": 0, "resident_rows": len(ROWS)}
    assert sorted(again.as_tuples()) == oracle(ROWS)
    # DML changes the scan's token: the rerun regroups the new rows.
    session.catalog.insert_into("pts", BETTER)
    after = session.execute_prepared(prepared)
    assert stage_names(after) == ["ProjectExec", "SkylineLocalExec",
                                  "SkylineGlobalExec"]
    assert sorted(after.as_tuples()) == oracle(ROWS + BETTER) != \
        oracle(ROWS)
    session.catalog.delete_from("pts", rows=BETTER)
    assert sorted(session.execute_prepared(prepared).as_tuples()) == \
        oracle(ROWS)


@pytest.mark.skipif(not shared_memory_available(),
                    reason="shared memory not available on this platform")
@pytest.mark.parametrize("first", ["local", "process"])
def test_a_plan_kept_on_one_backend_reruns_on_the_other(first):
    before = set(leaked_segments())
    local = connect(num_executors=2)
    local.create_table("pts", COLUMNS, ROWS)
    process = SkylineSession(
        config=SessionConfig(num_executors=2, backend="process",
                             num_workers=2),
        catalog=local.catalog)
    sessions = {"local": local, "process": process}
    order = [first, "process" if first == "local" else "local", first]
    rows = list(ROWS)
    try:
        # The plan the first session cached, re-run by the other.
        prepared = sessions[first].planned(SQL).prepared
        for dml in (None, "insert", "delete"):
            if dml == "insert":
                local.catalog.insert_into("pts", BETTER)
                rows = rows + BETTER
            elif dml == "delete":
                local.catalog.delete_from("pts", rows=BETTER)
                rows = list(ROWS)
            for run, name in enumerate(order):
                result = sessions[name].execute_prepared(prepared)
                assert sorted(result.as_tuples()) == oracle(rows), \
                    (name, dml)
                # Only the first run after DML regroups; the others read
                # what it kept, whichever backend kept it.
                assert len(stage_names(result)) == (3 if run == 0 else 2)
        # The process session pinned what the plan keeps and shipped
        # handles to it.
        assert process.shm_stats()["handles_served"] > 0
        process.close()
        # Closing the store leaves the kept batches readable.
        assert sorted(local.execute_prepared(prepared).as_tuples()) == \
            oracle(rows)
    finally:
        process.close()
        local.close()
    assert set(leaked_segments()) <= before
