"""Stage fusion: what runs, counted -- and what happens when it breaks.

A ``Scan -> (Filter | Project)*`` chain never opens a stage of its own:
under a ``complete``/``sfs`` local skyline it runs inside the local
tasks (one task per partition, reading a slice of the table's resident
columns narrowed to the columns the chain reads), elsewhere as one
fused map stage.  These tests assert that shape on the engine's own
stage records (counts, never stopwatches), hold ``EXPLAIN``'s stage
marks to it, and drive the fused tasks through injected worker crashes
and an expiring query budget.  The answers themselves are held to the
scalar row-plane reference by ``test_differential.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile

import pytest

from repro import QueryTimeout, SessionConfig, SkylineSession
from repro.engine.faults import FAULT_PLAN_ENV
from repro.engine.shm import leaked_segments, shared_memory_available
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.plan.physical import stage_numbers
from tests.integration.test_differential import SEED, _random_rows

COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
           ("b", DOUBLE, False), ("c", DOUBLE, False),
           ("pad", STRING, False)]
#: Reads id, a, b, c -- never ``pad``.
FILTERED_SQL = ("SELECT id, a, a + b AS ab, b * c AS bc FROM t "
                "WHERE c > 0.2 SKYLINE OF ab MIN, bc MAX")
PARTITIONS = 3


def _rows(n: int = 6000) -> list[tuple]:
    """Exactly ``n`` rows (a multiple of ``PARTITIONS``)."""
    return [row + (f"pad{row[0]}",)
            for row in _random_rows(n, SEED + 4)[:n]]


def _session(backend="process", rows=None, **options) -> SkylineSession:
    session = SkylineSession(config=SessionConfig(
        num_executors=PARTITIONS, backend=backend, num_workers=2,
        skyline_algorithm=options.pop("skyline_algorithm",
                                      "distributed-complete"),
        retry_backoff_s=0.0, **options))
    session.create_table("t", COLUMNS, _rows() if rows is None else rows)
    return session


def _reference() -> list[str]:
    with _session("local", vectorized=False, columnar=False) as session:
        return sorted(map(repr, session.sql(FILTERED_SQL).to_tuples()))


def _stage_names(result) -> list[str]:
    return [stage.name.split("-")[0] for stage in result.context.stages]


# -- shape -----------------------------------------------------------------


def test_filtered_query_is_two_stages_of_fused_tasks():
    with _session() as session:
        result = session.sql(FILTERED_SQL).run()
        table = session.catalog.lookup("t")
        whole, _ = table.column_batch()
    assert _stage_names(result) == ["SkylineLocalExec", "SkylineGlobalExec"]
    local, global_ = result.context.stages
    assert len(local.tasks) == PARTITIONS and len(global_.tasks) == 1
    # Each local task read a whole partition of the *scan* ...
    assert [t.rows_in for t in local.tasks] == [2000, 2000, 2000]
    assert local.rows_out < 6000
    # ... as a slice of the four columns the chain reads, not five.
    pruned = whole.select([0, 1, 2, 3]).slice(0, 2000)
    assert result.context.operator_peaks[local.name] \
        == PARTITIONS * pruned.nbytes
    assert pruned.nbytes < whole.slice(0, 2000).nbytes
    if shared_memory_available():
        stats = result.context.shm_stats
        assert stats["handles_served"] == PARTITIONS
        assert stats["pickle_fallbacks"] == 0
        assert stats["bytes_shared"] == PARTITIONS * pruned.nbytes


@pytest.mark.parametrize("backend", ("local", "process"))
@pytest.mark.parametrize("columnar", (True, False))
def test_same_shape_on_every_backend_and_plane(backend, columnar):
    with _session(backend, rows=_rows(300), columnar=columnar) as session:
        result = session.sql(FILTERED_SQL).run()
    assert _stage_names(result) == ["SkylineLocalExec", "SkylineGlobalExec"]
    assert sum(len(s.tasks) for s in result.context.stages) \
        == PARTITIONS + 1


@pytest.mark.parametrize("algorithm,stages", [
    ("sfs", ["SkylineLocalExec", "SkylineGlobalExec"]),
    # Consumers that need every row first get ONE map stage, named
    # after the chain's top operator -- not one stage per operator.
    ("non-distributed-complete", ["ProjectExec", "SkylineGlobalExec"]),
    ("distributed-incomplete",
     ["ProjectExec", "SkylineLocalExec", "SkylineGlobalExec"]),
])
def test_chain_is_one_stage_under_every_consumer(algorithm, stages):
    with _session("local", rows=_rows(300),
                  skyline_algorithm=algorithm) as session:
        result = session.sql(FILTERED_SQL).run()
    assert _stage_names(result) == stages


def test_join_breaks_the_chain():
    with _session("local", rows=_rows(300)) as session:
        session.create_table("u", [("id", INTEGER, False),
                                   ("w", DOUBLE, False)],
                             [(i, float(i % 7)) for i in range(300)])
        joined = session.sql(
            "SELECT t.id, a + w AS aw, b FROM t JOIN u ON t.id = u.id "
            "WHERE c > 0.2 SKYLINE OF aw MIN, b MAX").run()
    # Each join input is one fused stage (filter over scan; bare scan);
    # the projection above the join has the join as its source and
    # fuses into the local tasks.
    assert _stage_names(joined) == [
        "FilterExec", "ScanExec", "HashJoinExec", "SkylineLocalExec",
        "SkylineGlobalExec"]


@pytest.mark.parametrize("options,sql", [
    ({}, FILTERED_SQL),
    ({"skyline_algorithm": "non-distributed-complete"}, FILTERED_SQL),
    ({"skyline_algorithm": "distributed-incomplete"}, FILTERED_SQL),
    ({}, "SELECT id, a FROM t WHERE c > 0.2 ORDER BY a LIMIT 5"),
    ({}, "SELECT t.id, t.a, u.b FROM t JOIN t AS u ON t.id = u.id "
         "WHERE t.c > 0.2 SKYLINE OF t.a MIN, u.b MAX"),
])
def test_explain_stage_marks_are_the_stages_that_run(options, sql):
    """``*(N)``: as many distinct numbers as recorded stages, and the
    operators of one fused chain share theirs."""
    with _session("local", rows=_rows(300), **options) as session:
        prepared = session.prepare(session.sql(sql).plan)
        result = session.execute_prepared(prepared)
        text = session.explain(session.sql(sql).plan)
    numbers = stage_numbers(prepared.physical)
    assert len(set(numbers.values())) == len(result.context.stages)
    physical = text.split("== Physical Plan ==\n")[1].split("\n==")[0]
    assert all(line.lstrip().startswith("*(")
               for line in physical.splitlines())


def test_explain_marks_the_fused_chain_with_one_number():
    with _session("local", rows=_rows(30)) as session:
        text = session.explain(session.sql(FILTERED_SQL).plan)
    physical = text.split("== Physical Plan ==\n")[1].split("\n==")[0]
    marks = [line.split()[0] + " " + line.split()[1].split("(")[0]
             for line in physical.splitlines()]
    assert marks == ["*(2) SkylineGlobalComplete", "*(1) SkylineLocal",
                     "*(1) Project", "*(1) Filter", "*(1) Scan"]
    assert "== Execution ==" not in text
    assert "[pipelined]" not in text and "[staged]" not in text


# -- chaos (moved from the pipelined executor's suite) ---------------------


@pytest.mark.parametrize("backend", ("local", "process"))
def test_poisoned_local_tasks_recover_bit_identically(backend,
                                                      monkeypatch):
    """Every fused local task crashes on its first attempt (on the
    process backend the worker really dies, on the local backend the
    driver raises a simulated crash); the retries must produce the
    reference answer and leave no segment behind."""
    before = set(leaked_segments())
    expected = _reference()
    monkeypatch.setenv(FAULT_PLAN_ENV,
                       "seed=7,poison=SkylineLocal,max_injections=1")
    with _session(backend) as session:
        result = session.sql(FILTERED_SQL).run()
    assert sorted(map(repr, result.as_tuples())) == expected
    local, global_ = result.context.stages
    assert len(local.tasks) == PARTITIONS and len(global_.tasks) == 1
    assert all(task.attempts >= 2 for task in local.tasks)
    assert global_.tasks[0].attempts == 1
    faults = result.context.fault_stats
    assert faults.retries >= PARTITIONS and faults.crash_recoveries >= 1
    assert set(leaked_segments()) <= before


def test_one_lost_task_is_the_only_one_rerun(monkeypatch):
    """A crash mid-stage re-runs the lost task and nothing else: the
    other partitions' results are kept (local backend: a simulated
    crash hits exactly the poisoned task)."""
    expected = _reference()
    monkeypatch.setenv(FAULT_PLAN_ENV, "seed=7,poison=#1,max_injections=1")
    with _session("local") as session:
        result = session.sql(FILTERED_SQL).run()
    assert sorted(map(repr, result.as_tuples())) == expected
    local = result.context.stages[0]
    assert [task.attempts for task in local.tasks] == [1, 2, 1]
    assert result.context.fault_stats.retries == 1


def test_worker_crash_mid_stage_keeps_segments_and_results(monkeypatch):
    """Process backend: one worker dies for real while the stage is in
    flight.  The pool is rebuilt, the lost work re-submitted against the
    *same* shared segments, and nothing leaks."""
    before = set(leaked_segments())
    expected = _reference()
    monkeypatch.setenv(FAULT_PLAN_ENV, "seed=7,poison=#1,max_injections=1")
    with _session("process") as session:
        result = session.sql(FILTERED_SQL).run()
        stats = result.context.shm_stats
    assert sorted(map(repr, result.as_tuples())) == expected
    local = result.context.stages[0]
    assert len(local.tasks) == PARTITIONS
    assert local.tasks[1].attempts >= 2
    assert local.crash_recoveries >= 1
    if stats is not None:
        # Re-submission re-pickled the handles exported once before the
        # stage: nothing was registered or exported again.
        assert stats["segments_created"] == PARTITIONS
        assert stats["handles_served"] == PARTITIONS
    assert set(leaked_segments()) <= before


def test_budget_expiry_mid_stage_times_out_and_leaves_nothing(
        monkeypatch, tmp_path):
    """The budget runs out while the fused tasks are in flight on the
    workers: ``QueryTimeout`` from inside the stage, and afterwards no
    segment, no temp file and no worker is left."""
    before = set(leaked_segments())
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv(FAULT_PLAN_ENV,
                       "seed=7,delay_p=1.0,delay_s=1.0,max_injections=9")
    session = _session("process", time_budget_s=0.25)
    try:
        with pytest.raises(QueryTimeout) as info:
            session.sql(FILTERED_SQL).run()
        assert info.value.partial_stats["stages_completed"] <= 1
        assert info.value.partial_stats["tasks_completed"] == 0
    finally:
        session.close()
    assert set(leaked_segments()) <= before
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []

