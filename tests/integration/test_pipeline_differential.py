"""Pipelined-vs-staged differential suite.

Runs the morsel-driven pipelined executor across the full
(algorithm x partitioning x backend x columnar) grid -- complete and
incomplete data -- under an operator budget small enough to force
backpressure and disk spill, and asserts results bit-identical to the
all-pairs oracle (which the staged executor is held to by
``test_differential.py``).  DISTINCT representatives are additionally
compared against the staged executor directly, and a chaos leg proves
task retries hold when faults strike mid-pipeline.
"""

from __future__ import annotations

import itertools

import pytest

from repro import SkylineSession
from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.engine.faults import FAULT_PLAN_ENV
from repro.engine.types import DOUBLE, INTEGER
from repro.plan.planner import PARTITIONING_SCHEMES
from tests.integration.test_differential import (COMPLETE_ALGORITHMS,
                                                 COMPLETE_ORACLE,
                                                 COMPLETE_ROWS,
                                                 INCOMPLETE_ORACLE,
                                                 INCOMPLETE_ROWS, SQL3,
                                                 SQL3_DISTINCT,
                                                 _random_rows)

BACKENDS = ("local", "thread", "process")

#: Small enough that a second 50-row morsel overflows it (so the grid
#: exercises backpressure + spill), large enough to stay meaningful.
TINY_BUDGET_MB = 0.002


@pytest.fixture(scope="module")
def shared_backends():
    """One pool per parallel backend for the whole module."""
    thread = ThreadBackend(2)
    process = ProcessBackend(2)
    backends = {
        "local": lambda: "local",
        "thread": lambda: thread,
        "process": lambda: process,
    }
    yield backends
    thread.close()
    process.close()


def _make_session(rows, nullable: bool, algorithm: str, scheme: str,
                  backend, columnar, execution="pipelined",
                  operator_memory_mb=TINY_BUDGET_MB) -> SkylineSession:
    from repro import SessionConfig
    session = SkylineSession(config=SessionConfig(
        num_executors=3, skyline_algorithm=algorithm,
        skyline_partitioning=scheme, skyline_partitions=3,
        backend=backend, columnar=columnar,
        execution=execution, operator_memory_mb=operator_memory_mb))
    session.create_table(
        "t",
        [("id", INTEGER, False), ("a", DOUBLE, nullable),
         ("b", DOUBLE, nullable), ("c", DOUBLE, nullable)],
        rows)
    return session


@pytest.mark.parametrize(
    "algorithm,scheme,backend_name,columnar",
    list(itertools.product(COMPLETE_ALGORITHMS, PARTITIONING_SCHEMES,
                           BACKENDS, (True, False))))
def test_pipelined_complete_matches_oracle(algorithm, scheme,
                                           backend_name, columnar,
                                           shared_backends):
    session = _make_session(COMPLETE_ROWS, False, algorithm, scheme,
                            shared_backends[backend_name](), columnar)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == COMPLETE_ORACLE, (
        f"pipelined {algorithm}/{scheme}/{backend_name}/"
        f"columnar={columnar} diverged from the all-pairs oracle")


@pytest.mark.parametrize(
    "scheme,backend_name,columnar",
    list(itertools.product(PARTITIONING_SCHEMES, BACKENDS,
                           (True, False))))
def test_pipelined_incomplete_matches_oracle(scheme, backend_name,
                                             columnar, shared_backends):
    session = _make_session(INCOMPLETE_ROWS, True,
                            "distributed-incomplete", scheme,
                            shared_backends[backend_name](), columnar)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == INCOMPLETE_ORACLE, (
        f"pipelined {scheme}/{backend_name}/columnar={columnar} "
        f"diverged from the null-aware all-pairs oracle")


@pytest.mark.parametrize("columnar", (True, False))
@pytest.mark.parametrize("algorithm", ("distributed-complete", "sfs"))
def test_pipelined_distinct_identical_to_staged(algorithm, columnar):
    """DISTINCT keeps the first-seen representative per value set; the
    morsel driver must pick the very same rows the staged scan does."""
    staged = _make_session(COMPLETE_ROWS, False, algorithm, "keep",
                           "local", columnar, execution="staged",
                           operator_memory_mb=None)
    pipelined = _make_session(COMPLETE_ROWS, False, algorithm, "keep",
                              "local", columnar)
    assert sorted(pipelined.sql(SQL3_DISTINCT).to_tuples(), key=repr) \
        == sorted(staged.sql(SQL3_DISTINCT).to_tuples(), key=repr)


def test_pipeline_report_and_metrics(shared_backends):
    """The per-operator metrics the tentpole promises: batches in/out,
    stall time, spilled bytes, peaks, and time-to-first-batch."""
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "keep", shared_backends["thread"](), True)
    result = session.sql(SQL3).run()
    report = result.pipeline
    assert report is not None
    assert report["mode"] == "pipelined"
    assert report["waves"] >= 1
    assert report["budget_bytes"] == int(TINY_BUDGET_MB * 1e6)
    assert report["spilled_bytes"] > 0  # the tiny budget forced spill
    for name in ("scan", "map", "fold"):
        op = report["operators"][name]
        assert op["batches_in"] >= 0
        assert op["stall_s"] >= 0.0
        assert op["peak_bytes"] >= 0
    assert report["operators"]["fold"]["batches_in"] > 0
    assert result.time_to_first_batch_s is not None
    assert result.time_to_first_batch_s >= 0.0
    # The tracked high-water mark feeds peak_memory_mb on real backends.
    peaks = result.context.operator_peaks
    assert any(name.startswith("Pipeline.") for name in peaks)


def test_staged_session_reports_no_pipeline():
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "keep", "local", True, execution="staged",
                            operator_memory_mb=None)
    result = session.sql(SQL3).run()
    assert result.pipeline is None


@pytest.mark.parametrize("backend_name", ("thread", "process"))
def test_chaos_mid_pipeline_stays_bit_identical(backend_name,
                                                monkeypatch):
    """Injected worker faults inside pipeline waves must be retried and
    leave the answer bit-identical (satellite: the PR-7 fault machinery
    applies to wave tasks unchanged).  A fresh backend is configured
    from its name so the fault plan is visible from the first task."""
    monkeypatch.setenv(FAULT_PLAN_ENV,
                       "seed=7,poison=Pipeline,max_injections=1")
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "keep", backend_name, True)
    try:
        result = session.sql(SQL3).run()
        assert sorted(result.as_tuples(), key=repr) == COMPLETE_ORACLE
        faults = result.context.summary()["faults"]
        assert faults["retries"] >= 1  # the plan really injected
    finally:
        session.close()


def test_pipelined_explain_markers():
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "keep", "local", True)
    text = session.explain(session.sql(SQL3).plan)
    assert "[pipelined]" in text
    assert "== Execution ==" in text
    assert "execution    = pipelined" in text


def test_unsupported_chain_plans_staged(shared_backends):
    """A join + aggregate under the skyline finishes before the first
    morsel could exist: even a forced ``pipelined`` session plans that
    operator staged, says why, and returns the staged answer."""
    sql = ("SELECT t.id, sum(u.b) AS total, max(t.c) AS worst "
           "FROM t JOIN u ON t.id = u.id GROUP BY t.id "
           "SKYLINE OF total MAX, worst MIN")
    answers = {}
    for execution in ("pipelined", "staged"):
        session = _make_session(
            COMPLETE_ROWS, False, "distributed-complete", "keep",
            shared_backends["thread"](), True, execution=execution,
            operator_memory_mb=None)
        session.create_table(
            "u", [("id", INTEGER, False), ("b", DOUBLE, False)],
            [(row[0], row[2]) for row in COMPLETE_ROWS])
        if execution == "pipelined":
            text = session.explain(session.sql(sql).plan)
            assert "execution    = staged" in text
            assert "nothing to overlap" in text
            assert "[pipelined]" not in text
        result = session.sql(sql).run()
        assert result.pipeline is None
        assert not any(stage.name.startswith("Pipeline.wave")
                       for stage in result.context.stages)
        answers[execution] = sorted(result.as_tuples(), key=repr)
    assert answers["pipelined"] == answers["staged"] != []


def test_auto_mode_gates():
    """auto keeps the sequential local backend and small inputs staged,
    and turns pipelining on for parallel backends at scale."""
    from repro import SessionConfig
    small = SkylineSession(config=SessionConfig(num_executors=3,
                                                backend="thread"))
    small.create_table(
        "t", [("id", INTEGER, False), ("a", DOUBLE, False),
              ("b", DOUBLE, False), ("c", DOUBLE, False)],
        COMPLETE_ROWS)
    assert small.sql(SQL3).run().pipeline is None  # < row threshold

    local = SkylineSession(config=SessionConfig(num_executors=3))
    big_rows = _random_rows(5000, 1)
    local.create_table(
        "t", [("id", INTEGER, False), ("a", DOUBLE, False),
              ("b", DOUBLE, False), ("c", DOUBLE, False)], big_rows)
    run = local.sql(SQL3).run()
    assert run.pipeline is None  # sequential backend: no overlap to win
    # No marker noise on auto-resolved staged plans.
    assert "[pipelined]" not in local.explain(local.sql(SQL3).plan)

    big = SkylineSession(config=SessionConfig(
        num_executors=3, backend="thread", num_workers=2))
    big.create_table(
        "t", [("id", INTEGER, False), ("a", DOUBLE, False),
              ("b", DOUBLE, False), ("c", DOUBLE, False)], big_rows)
    try:
        result = big.sql(SQL3).run()
        assert result.pipeline is not None
        staged_ref = _make_session(big_rows, False,
                                   "distributed-complete", "keep",
                                   "local", "auto", execution="staged",
                                   operator_memory_mb=None)
        assert sorted(result.as_tuples(), key=repr) == \
            sorted(staged_ref.sql(SQL3).to_tuples(), key=repr)
    finally:
        big.close()
