"""Fault-injection and fault-tolerance tests.

Covers the deterministic :class:`FaultPlan` subsystem, the per-task
retry machinery in every backend (including real worker-process crashes
and ``BrokenProcessPool`` recovery), deadline enforcement mid-stage,
speculative re-execution on task timeouts, and the chaos differential
grid: under a seeded fault plan every query must return results
bit-identical to its fault-free run.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro import QueryTimeout, SessionConfig, SkylineSession
from repro.engine.backends import (LocalBackend, ProcessBackend,
                                   RetryPolicy, StageTask, is_retryable)
from repro.engine.cluster import ExecutionContext
from repro.engine.faults import (FAULT_PLAN_ENV, FaultPlan, InjectedFault,
                                 SimulatedWorkerCrash, activate,
                                 active_plan, maybe_inject)
from repro.engine.types import DOUBLE, INTEGER
from repro.errors import (BenchmarkTimeout, TaskError, WorkerCrashError)
from tests.conftest import ROW_LAYOUTS, lay_out

SEED = 20230331

#: Fault plans reach process workers through the environment they are
#: forked with, so every test activates its plan before building the
#: backend.  Crash decisions raise ``SimulatedWorkerCrash`` in the
#: driver and kill the worker for real in a pool.
BACKEND_FACTORIES = [LocalBackend, lambda: ProcessBackend(2)]


# -- FaultPlan determinism -------------------------------------------------


class TestFaultPlan:
    def test_roll_is_deterministic_and_uniformish(self):
        plan = FaultPlan(seed=7)
        values = [plan.roll(f"k{i}", 0, "crash") for i in range(200)]
        assert values == [plan.roll(f"k{i}", 0, "crash")
                          for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.2 < sum(values) / len(values) < 0.8

    def test_decide_depends_on_seed_key_attempt(self):
        a, b = FaultPlan(seed=1, crash_p=0.5), FaultPlan(seed=2,
                                                         crash_p=0.5)
        decisions_a = [a.decide(f"k{i}", 0) for i in range(50)]
        assert decisions_a == [a.decide(f"k{i}", 0) for i in range(50)]
        assert decisions_a != [b.decide(f"k{i}", 0) for i in range(50)]

    def test_attempts_past_max_injections_are_clean(self):
        plan = FaultPlan(seed=3, crash_p=1.0, error_p=1.0, delay_p=1.0,
                         max_injections=2)
        for key in ("a", "b", "c"):
            assert plan.decide(key, 0) is not None
            assert plan.decide(key, 1) is not None
            assert plan.decide(key, 2) is None
            assert plan.decide(key, 99) is None

    def test_poison_crashes_matching_keys_only(self):
        plan = FaultPlan(seed=5, poison="#2")
        assert plan.decide("stage#2", 0) == "crash"
        assert plan.decide("stage#2", 1) == "crash"
        assert plan.decide("stage#2", 2) is None  # below the cap only
        assert plan.decide("stage#0", 0) is None

    def test_spec_round_trip(self):
        plan = FaultPlan(seed=42, crash_p=0.2, delay_p=0.1,
                         delay_s=0.003, max_injections=3, poison="#1")
        assert FaultPlan.from_spec(plan.to_spec()) == plan
        assert FaultPlan.from_spec("seed=9").seed == 9

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-plan field"):
            FaultPlan.from_spec("frobnicate=1")
        with pytest.raises(ValueError, match="expected key=value"):
            FaultPlan.from_spec("seed")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_p=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_s=-1)
        with pytest.raises(ValueError):
            FaultPlan(max_injections=-1)

    def test_from_env_and_activate(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan(seed=7, crash_p=0.25)
        assert FaultPlan.from_env(
            {FAULT_PLAN_ENV: plan.to_spec()}) == plan
        assert active_plan() is None
        with activate(plan):
            assert os.environ[FAULT_PLAN_ENV] == plan.to_spec()
            assert active_plan() == plan
            with activate(None):
                assert active_plan() is None
            assert active_plan() == plan
        assert active_plan() is None

    def test_maybe_inject_kinds(self):
        with activate(FaultPlan(seed=3, error_p=1.0)):
            with pytest.raises(InjectedFault):
                maybe_inject("k", 0)
        with activate(FaultPlan(seed=3, crash_p=1.0)):
            with pytest.raises(SimulatedWorkerCrash):
                maybe_inject("k", 0)
        with activate(FaultPlan(seed=3, delay_p=1.0, delay_s=0.0)):
            maybe_inject("k", 0)  # delay of zero: returns
        maybe_inject("k", 0)  # no plan active: no-op


# -- RetryPolicy -----------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.05, seed=9)
        delays = [policy.backoff_delay("k", a) for a in range(6)]
        assert delays == [policy.backoff_delay("k", a) for a in range(6)]
        assert all(0.0 < d <= 2.0 for d in delays)
        # Exponential shape: attempt 3 outgrows attempt 0's ceiling.
        assert delays[3] > 0.05 * 0.5 * 8 / 2

    def test_backoff_respects_deadline(self):
        policy = RetryPolicy(backoff_s=10.0,
                             deadline=time.perf_counter() + 0.01)
        assert policy.backoff_delay("k", 5) <= 0.011

    @pytest.mark.parametrize("backend_factory", BACKEND_FACTORIES)
    def test_backoff_never_sleeps_past_deadline(self, backend_factory):
        """A retry whose backoff would cross the query deadline must
        raise QueryTimeout promptly instead of sleeping the remaining
        budget away and surfacing the timeout afterwards."""
        plan = FaultPlan(seed=3, error_p=1.0, max_injections=10)
        with activate(plan), backend_factory() as backend:
            policy = RetryPolicy(max_attempts=6, backoff_s=5.0,
                                 deadline=time.perf_counter() + 0.05)
            start = time.perf_counter()
            with pytest.raises(QueryTimeout):
                backend.run_stage(_pool_tasks(2), policy)
        # Prompt: well under one un-clamped backoff interval.
        assert time.perf_counter() - start < 1.0
        # The retry never ran, so it must not be counted.
        assert policy.stats.retries == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_s=0)

    def test_classification(self):
        assert is_retryable(InjectedFault("x"))
        assert is_retryable(SimulatedWorkerCrash("x"))
        assert is_retryable(ConnectionError())
        assert is_retryable(EOFError())
        assert not is_retryable(ValueError("deterministic"))
        assert not is_retryable(TypeError())


# -- backend retry behaviour ----------------------------------------------


def _tasks(n, fn_for):
    return [StageTask(partition=i, rows_in=0, fn=fn_for(i), key=f"t#{i}")
            for i in range(n)]


def _value_of(i):
    return lambda: [i]


def _listed(i):
    return [i]


def _listed_unless_one(i):
    if i == 1:
        raise ValueError("bad data")
    return [i]


def _pool_tasks(n, func=_listed):
    """Picklable tasks: the process backend ships them to its workers
    (closure-only tasks would run inline in the driver there), the
    local backend runs ``func`` in the driver."""
    return [StageTask(partition=i, rows_in=0, func=func, args=(i,),
                      key=f"t#{i}") for i in range(n)]


class TestRetries:
    @pytest.mark.parametrize("backend_factory", BACKEND_FACTORIES)
    def test_injected_faults_are_retried_to_success(self, backend_factory):
        plan = FaultPlan(seed=3, error_p=1.0, max_injections=2)
        policy = RetryPolicy(max_attempts=4, backoff_s=0.0)
        with activate(plan), backend_factory() as backend:
            outcomes = backend.run_stage(_pool_tasks(3), policy)
        assert [o.result for o in outcomes] == [[0], [1], [2]]
        assert all(o.attempts == 3 for o in outcomes)
        assert policy.stats.retries == 6

    def test_simulated_crashes_count_recoveries(self):
        plan = FaultPlan(seed=3, poison="t#1", max_injections=2)
        policy = RetryPolicy(max_attempts=4, backoff_s=0.0)
        with activate(plan), LocalBackend() as backend:
            outcomes = backend.run_stage(_tasks(3, _value_of), policy)
        assert [o.result for o in outcomes] == [[0], [1], [2]]
        assert policy.stats.retries == 2
        assert policy.stats.crash_recoveries == 2

    @pytest.mark.parametrize("backend_factory", BACKEND_FACTORIES)
    def test_exhausted_crash_budget_is_worker_crash_error(
            self, backend_factory):
        plan = FaultPlan(seed=3, poison="t#0", max_injections=10)
        policy = RetryPolicy(max_attempts=3, backoff_s=0.0)
        with activate(plan), backend_factory() as backend:
            with pytest.raises(WorkerCrashError) as info:
                backend.run_stage(_pool_tasks(3), policy)
        assert info.value.attempts == 3
        assert info.value.task_key == "t#0"

    @pytest.mark.parametrize("backend_factory", BACKEND_FACTORIES)
    def test_deterministic_errors_fail_fast(self, backend_factory):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.0)
        with backend_factory() as backend:
            with pytest.raises(TaskError) as info:
                backend.run_stage(_pool_tasks(3, _listed_unless_one),
                                  policy)
        assert not isinstance(info.value, WorkerCrashError)
        assert info.value.attempts == 1  # no retry for pure task bugs
        assert policy.stats.retries == 0

    def test_failed_stage_leaves_process_backend_reusable(self):
        """A mid-stage failure must cancel/drain outstanding futures,
        leaving the pool clean for the next stage."""
        plan = FaultPlan(seed=3, delay_p=1.0, delay_s=0.05,
                         max_injections=1)
        tasks = _pool_tasks(4, _listed_unless_one)
        with activate(plan), ProcessBackend(2) as backend:
            with pytest.raises(TaskError):
                backend.run_stage(tasks, RetryPolicy())
            outcomes = backend.run_stage(_pool_tasks(3), RetryPolicy())
            assert [o.result for o in outcomes] == [[0], [1], [2]]


class TestTimeouts:
    def test_deadline_exceeded_mid_stage_raises_query_timeout(self):
        plan = FaultPlan(seed=1, delay_p=1.0, delay_s=0.5)
        with activate(plan), ProcessBackend(2) as backend:
            policy = RetryPolicy(deadline=time.perf_counter() + 0.05)
            start = time.perf_counter()
            with pytest.raises(QueryTimeout):
                backend.run_stage(_pool_tasks(2), policy)
            # Mid-stage: the wait gave up at the deadline, not after
            # the delayed tasks finished.
            assert time.perf_counter() - start < 0.4

    def test_task_timeout_triggers_speculative_retry(self):
        # Attempt 0 of every task is delayed past the task timeout;
        # attempt 1 is clean (max_injections=1) and wins the race on an
        # idle worker while the original still sleeps.
        plan = FaultPlan(seed=1, delay_p=1.0, delay_s=0.8,
                         max_injections=1)
        policy = RetryPolicy(max_attempts=3, backoff_s=0.0,
                             task_timeout_s=0.15)
        with activate(plan), ProcessBackend(4) as backend:
            outcomes = backend.run_stage(_pool_tasks(2), policy)
        assert [o.result for o in outcomes] == [[0], [1]]
        assert policy.stats.retries == 2
        assert policy.stats.speculative_wins >= 1
        assert any(o.speculative_win for o in outcomes)

    def test_task_timeout_budget_exhaustion_is_task_error(self):
        plan = FaultPlan(seed=1, delay_p=1.0, delay_s=0.3,
                         max_injections=2)
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0,
                             task_timeout_s=0.02)
        with activate(plan), ProcessBackend(4) as backend:
            with pytest.raises(TaskError, match="timed out"):
                backend.run_stage(_pool_tasks(2), policy)

    def test_session_budget_carries_partial_progress(self):
        session = SkylineSession(config=SessionConfig(time_budget_s=0.0))
        session.create_table("t", [("x", INTEGER, False)],
                             [(i,) for i in range(50)])
        with pytest.raises(QueryTimeout) as info:
            session.sql("SELECT * FROM t SKYLINE OF x MIN").collect()
        assert "stages_completed" in info.value.partial_stats
        assert info.value.budget == 0.0

    def test_deadline_landing_in_global_stage(self, monkeypatch):
        original = ExecutionContext.run_stage

        def expiring(self, stage, tasks, parallelizable=True):
            result = original(self, stage, tasks, parallelizable)
            if stage.startswith("SkylineLocal"):
                # Collapse the budget the moment the local phase lands,
                # so the global stage's entry check trips.
                self.set_budget(0.0)
            return result

        monkeypatch.setattr(ExecutionContext, "run_stage", expiring)
        session = SkylineSession(config=SessionConfig(
            num_executors=4, time_budget_s=60.0))
        session.create_table(
            "t", [("x", INTEGER, False), ("y", INTEGER, False)],
            [(i, 50 - i) for i in range(50)])
        with pytest.raises(QueryTimeout) as info:
            session.sql("SELECT * FROM t SKYLINE OF x MIN, y MIN").collect()
        stats = info.value.partial_stats
        assert stats["tasks_completed"] >= 4  # the local phase finished
        assert stats["rows_out"] > 0
        assert info.value.budget == 0.0

    def test_benchmark_timeout_alias_still_catches(self):
        assert BenchmarkTimeout is QueryTimeout
        context = ExecutionContext()
        context.set_budget(0.0)
        with pytest.raises(BenchmarkTimeout):
            context.check_deadline()


# -- process-pool worker crashes ------------------------------------------


def _identity(value):
    return value


class TestProcessPoolRecovery:
    def test_worker_crash_is_recovered_without_losing_results(self):
        # task#1's worker really dies (os._exit) on attempts 0 and 1,
        # breaking the pool; the backend must rebuild it, re-run only
        # the lost tasks, and still return every result in order.
        plan = FaultPlan(seed=3, poison="task#1", max_injections=2)
        policy = RetryPolicy(max_attempts=4, backoff_s=0.0)
        tasks = [StageTask(partition=i, rows_in=1, func=_identity,
                           args=([i],)) for i in range(4)]
        with activate(plan), ProcessBackend(2) as backend:
            outcomes = backend.run_stage(tasks, policy)
        assert [o.result for o in outcomes] == [[0], [1], [2], [3]]
        assert policy.stats.crash_recoveries >= 1
        assert policy.stats.retries >= 2

    def test_repeatedly_dying_task_surfaces_worker_crash_error(self):
        plan = FaultPlan(seed=3, poison="task#0", max_injections=10)
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        tasks = [StageTask(partition=i, rows_in=1, func=_identity,
                           args=([i],)) for i in range(3)]
        with activate(plan), ProcessBackend(2) as backend:
            with pytest.raises(WorkerCrashError):
                backend.run_stage(tasks, policy)

    def test_pool_is_rebuilt_for_the_next_stage(self):
        plan = FaultPlan(seed=3, poison="task#0", max_injections=2)
        tasks = [StageTask(partition=i, rows_in=1, func=_identity,
                           args=([i],)) for i in range(3)]
        with ProcessBackend(2) as backend:
            with activate(plan):
                backend.run_stage(tasks, RetryPolicy(backoff_s=0.0))
            # Fault plan gone: the rebuilt pool serves a clean stage.
            outcomes = backend.run_stage(tasks, RetryPolicy())
            assert [o.result for o in outcomes] == [[0], [1], [2]]


# -- the chaos differential grid ------------------------------------------

#: crash p=0.2, delays, injected errors, and one poisoned partition --
#: the satellite's scenario.  Injection decisions are SHA-256 of
#: (seed, key, attempt), so this grid fails identically everywhere.
CHAOS_PLAN = FaultPlan(seed=SEED, crash_p=0.2, error_p=0.05,
                       delay_p=0.1, delay_s=0.001, poison="#2")

COMPLETE_ALGORITHMS = ("distributed-complete", "non-distributed-complete",
                       "distributed-incomplete", "sfs")

SQL3 = "SELECT * FROM t SKYLINE OF a MIN, b MAX, c MIN"


def _random_rows(n, seed, null_probability=0.0):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        def value():
            if null_probability and rng.random() < null_probability:
                return None
            return rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
        rows.append((i, value(), value(), value()))
    return rows


COMPLETE_ROWS = _random_rows(120, SEED)
INCOMPLETE_ROWS = _random_rows(90, SEED + 1, null_probability=0.25)


def _chaos_session(rows, nullable, algorithm, backend):
    config = SessionConfig(
        num_executors=3, skyline_algorithm=algorithm,
        backend=backend, max_task_retries=3, retry_backoff_s=0.0)
    session = SkylineSession(config=config)
    session.create_table(
        "t",
        [("id", INTEGER, False), ("a", DOUBLE, nullable),
         ("b", DOUBLE, nullable), ("c", DOUBLE, nullable)],
        rows)
    return session


def _run_clean_and_chaos(rows, nullable, algorithm, backend):
    with _chaos_session(rows, nullable, algorithm, backend) as session:
        clean = sorted(session.sql(SQL3).to_tuples(), key=repr)
    with activate(CHAOS_PLAN):
        with _chaos_session(rows, nullable, algorithm,
                            backend) as session:
            result = session.sql(SQL3).run()
    chaos = sorted(result.as_tuples(), key=repr)
    return clean, chaos, result.context.fault_stats


@pytest.mark.parametrize("layout", ROW_LAYOUTS)
@pytest.mark.parametrize("algorithm", COMPLETE_ALGORITHMS)
def test_chaos_differential_local(algorithm, layout):
    clean, chaos, _ = _run_clean_and_chaos(
        lay_out(COMPLETE_ROWS, layout), False, algorithm, "local")
    assert chaos == clean, (
        f"{algorithm}/{layout} diverged under the fault plan")


@pytest.mark.parametrize("algorithm", COMPLETE_ALGORITHMS)
def test_chaos_differential_process(algorithm):
    """Real worker crashes (os._exit in the pool children) mid-query;
    answers must still be bit-identical to the fault-free run."""
    clean, chaos, _ = _run_clean_and_chaos(
        COMPLETE_ROWS, False, algorithm, "process")
    assert chaos == clean


def test_chaos_differential_incomplete_data():
    clean, chaos, _ = _run_clean_and_chaos(
        INCOMPLETE_ROWS, True, "distributed-incomplete", "local")
    assert chaos == clean


def test_chaos_run_actually_injected_and_counted():
    """Guard against a vacuous grid: the plan must have injected faults
    and the context must have counted the recoveries."""
    totals = 0
    for algorithm in COMPLETE_ALGORITHMS:
        _, _, faults = _run_clean_and_chaos(
            COMPLETE_ROWS, False, algorithm, "local")
        totals += faults.retries + faults.crash_recoveries
    assert totals > 0


def test_chaos_counters_reach_the_summary():
    with activate(CHAOS_PLAN):
        with _chaos_session(COMPLETE_ROWS, False, "distributed-complete",
                            "local") as session:
            result = session.sql(SQL3).run()
    summary = result.context.summary()
    assert summary["faults"]["retries"] == \
        result.context.fault_stats.retries
    stage_retries = sum(s["retries"] for s in summary["stages"])
    assert stage_retries == summary["faults"]["retries"]
