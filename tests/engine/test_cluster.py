"""Simulated cluster: makespan scheduling and the memory model."""

import pytest

from repro.engine.cluster import (ClusterConfig, ExecutionContext,
                                  _makespan)
from repro.errors import BenchmarkTimeout


class TestMakespan:
    def test_single_worker_sums(self):
        makespan, loads = _makespan([1.0, 2.0, 3.0], 1)
        assert makespan == 6.0
        assert loads == [6.0]

    def test_perfect_split(self):
        makespan, _ = _makespan([2.0, 2.0], 2)
        assert makespan == 2.0

    def test_lpt_schedules_longest_first(self):
        # LPT on [3,3,2,2,2] over 2 workers: 3+2+2 vs 3+2 -> makespan 7
        # (LPT is a 4/3-approximation; optimal here would be 6).
        makespan, loads = _makespan([2.0, 3.0, 2.0, 3.0, 2.0], 2)
        assert makespan == 7.0
        assert sorted(loads) == [5.0, 7.0]

    def test_one_long_task_bounds_makespan(self):
        # The global skyline situation: parallelism cannot help.
        makespan, _ = _makespan([10.0, 0.1, 0.1], 8)
        assert makespan == 10.0

    def test_empty_tasks(self):
        makespan, _ = _makespan([], 4)
        assert makespan == 0.0


class TestExecutionContext:
    def test_run_task_records_metrics(self):
        ctx = ExecutionContext(ClusterConfig(num_executors=2))
        result = ctx.run_task("stage-1", 0, lambda: [(1,), (2,)], 5)
        assert result == [(1,), (2,)]
        task = ctx.stages[0].tasks[0]
        assert task.rows_in == 5
        assert task.rows_out == 2
        assert task.duration_s >= 0

    def test_run_task_accepts_peak_held_rows(self):
        ctx = ExecutionContext()
        ctx.run_task("s", 0, lambda: ([(1,)], 7), 1)
        assert ctx.stages[0].tasks[0].peak_held_rows == 7

    def test_stage_nonparallelizable_is_sticky(self):
        ctx = ExecutionContext()
        ctx.stage("g")  # default parallelizable
        ctx.run_task("g", 0, lambda: [], 0, parallelizable=False)
        assert not ctx.stage("g").parallelizable
        ctx.stage("g", parallelizable=True)
        assert not ctx.stage("g").parallelizable

    def test_simulated_time_decreases_with_executors(self):
        def build(executors):
            ctx = ExecutionContext(ClusterConfig(
                num_executors=executors, app_startup_s=0.0,
                executor_startup_s=0.0, task_overhead_s=0.0))
            for i in range(8):
                ctx.stage("local").tasks.append(
                    _task("local", i, 1.0))
            return ctx.simulated_time_s()

        assert build(4) < build(1)
        assert build(4) == pytest.approx(2.0)

    def test_nonparallel_stage_ignores_executors(self):
        ctx = ExecutionContext(ClusterConfig(
            num_executors=10, app_startup_s=0.0, executor_startup_s=0.0,
            task_overhead_s=0.0))
        stage = ctx.stage("global", parallelizable=False)
        stage.tasks.append(_task("global", 0, 3.0))
        stage.tasks.append(_task("global", 1, 3.0))
        assert ctx.simulated_time_s() == pytest.approx(6.0)

    def test_shuffle_cost_added(self):
        config = ClusterConfig(num_executors=1, app_startup_s=0.0,
                               executor_startup_s=0.0, task_overhead_s=0.0,
                               shuffle_cost_per_row_s=0.001)
        ctx = ExecutionContext(config)
        ctx.record_shuffle("s", 1000)
        assert ctx.simulated_time_s() == pytest.approx(1.0)

    def test_startup_grows_with_executors(self):
        base = ClusterConfig(num_executors=1).app_startup_s
        one = ExecutionContext(ClusterConfig(num_executors=1))
        ten = ExecutionContext(ClusterConfig(num_executors=10))
        assert ten.simulated_time_s() > one.simulated_time_s() >= base

    def test_summary_shape(self):
        ctx = ExecutionContext()
        ctx.run_task("s", 0, lambda: [(1,)], 1)
        summary = ctx.summary()
        assert summary["stages"][0]["name"] == "s"
        assert summary["stages"][0]["rows_out"] == 1
        assert "simulated_time_s" in summary
        assert summary["scan"] == {"columnized_rows": 0,
                                   "resident_rows": 0}


class TestMemoryModel:
    def test_base_memory_scales_with_executors(self):
        small = ExecutionContext(ClusterConfig(num_executors=1))
        large = ExecutionContext(ClusterConfig(num_executors=10))
        assert large.peak_memory_mb() > small.peak_memory_mb()
        config = small.config
        expected = (config.driver_base_memory_mb
                    + config.executor_base_memory_mb)
        assert small.peak_memory_mb() == pytest.approx(expected)

    def test_data_residency_counted(self):
        config = ClusterConfig(num_executors=1, bytes_per_row=1024 * 1024)
        ctx = ExecutionContext(config)
        stage = ctx.stage("s")
        stage.tasks.append(_task("s", 0, 0.1, rows_in=100))
        base = (config.driver_base_memory_mb
                + config.executor_base_memory_mb)
        assert ctx.peak_memory_mb() == pytest.approx(base + 100.0)

    def test_memory_scale_multiplies_data_term(self):
        config = ClusterConfig(num_executors=1, bytes_per_row=1024 * 1024,
                               memory_scale=10.0)
        ctx = ExecutionContext(config)
        ctx.stage("s").tasks.append(_task("s", 0, 0.1, rows_in=10))
        base = (config.driver_base_memory_mb
                + config.executor_base_memory_mb)
        assert ctx.peak_memory_mb() == pytest.approx(base + 100.0)

    def test_window_rows_counted(self):
        config = ClusterConfig(num_executors=1, bytes_per_row=1024 * 1024)
        ctx = ExecutionContext(config)
        ctx.stage("s").tasks.append(
            _task("s", 0, 0.1, rows_in=10, peak_held_rows=5))
        base = (config.driver_base_memory_mb
                + config.executor_base_memory_mb)
        assert ctx.peak_memory_mb() == pytest.approx(base + 15.0)


class TestDeadline:
    def test_budget_exceeded_raises(self):
        ctx = ExecutionContext()
        ctx.set_budget(-1.0)
        with pytest.raises(BenchmarkTimeout):
            ctx.check_deadline()

    def test_no_budget_never_raises(self):
        ctx = ExecutionContext()
        ctx.set_budget(None)
        ctx.check_deadline()


def _task(stage, partition, duration, rows_in=0, rows_out=0,
          peak_held_rows=0):
    from repro.engine.cluster import TaskMetrics
    return TaskMetrics(stage=stage, partition=partition,
                       duration_s=duration, rows_in=rows_in,
                       rows_out=rows_out, peak_held_rows=peak_held_rows)
