"""Execution backends: ordering, pickling fallback, metrics plumbing."""

import signal
import socket

import pytest

from repro.core.algorithms import make_dimensions
from repro.core.vectorized import skyline_task
from repro.engine.backends import (BACKEND_NAMES, Backend, LocalBackend,
                                   ProcessBackend, StageTask, create_backend,
                                   default_num_workers)
from repro.engine.cluster import ClusterConfig, ExecutionContext

MIN2 = make_dimensions([(0, "min"), (1, "min")])


def _square(x):
    return [(x * x,)]


def _tasks(n):
    return [StageTask(partition=i, rows_in=1, fn=lambda i=i: [(i,)],
                      func=_square, args=(i,))
            for i in range(n)]


def _signal_state():
    """Whether SIGTERM has its default disposition, and the wakeup fd,
    as the calling process sees them."""
    return (signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
            signal.set_wakeup_fd(-1))


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    instance = create_backend(request.param, num_workers=2)
    yield instance
    instance.close()


class TestStageTask:
    def test_requires_some_callable(self):
        with pytest.raises(ValueError):
            StageTask(partition=0, rows_in=0)

    def test_inline_prefers_fn(self):
        task = StageTask(partition=0, rows_in=1,
                         fn=lambda: ["fn"], func=_square, args=(2,))
        assert task.run_inline() == ["fn"]

    def test_inline_falls_back_to_func(self):
        task = StageTask(partition=0, rows_in=1, func=_square, args=(3,))
        assert task.run_inline() == [(9,)]
        assert task.picklable


class TestBackends:
    def test_results_in_submission_order(self, backend):
        outcomes = backend.run_stage(_tasks(8))
        # The process backend ships func (square); local runs fn.
        expected = ([[(i * i,)] for i in range(8)]
                    if backend.name == "process"
                    else [[(i,)] for i in range(8)])
        assert [o.result for o in outcomes] == expected

    def test_durations_measured_per_task(self, backend):
        outcomes = backend.run_stage(_tasks(4))
        assert all(o.duration_s >= 0 for o in outcomes)

    def test_empty_stage(self, backend):
        assert backend.run_stage([]) == []

    def test_close_is_idempotent_and_reusable(self, backend):
        backend.close()
        backend.close()
        outcomes = backend.run_stage(_tasks(3))
        assert len(outcomes) == 3

    def test_context_manager(self):
        with create_backend("process", 2) as backend:
            assert backend.run_stage(_tasks(2))


class TestProcessBackend:
    def test_closure_only_tasks_run_inline(self):
        marker = []
        tasks = [StageTask(partition=i, rows_in=0,
                           fn=lambda i=i: marker.append(i) or [(i,)])
                 for i in range(3)]
        with ProcessBackend(num_workers=2) as backend:
            outcomes = backend.run_stage(tasks)
        # Side effects prove driver-side execution; no pickling happened.
        assert marker == [0, 1, 2]
        assert [o.result for o in outcomes] == [[(0,)], [(1,)], [(2,)]]

    def test_mixed_stage_preserves_order(self):
        tasks = [
            StageTask(partition=0, rows_in=0, func=_square, args=(5,)),
            StageTask(partition=1, rows_in=0, fn=lambda: ["inline"]),
            StageTask(partition=2, rows_in=0, func=_square, args=(6,)),
        ]
        with ProcessBackend(num_workers=2) as backend:
            outcomes = backend.run_stage(tasks)
        assert [o.result for o in outcomes] == [[(25,)], ["inline"], [(36,)]]

    def test_skyline_kernel_round_trips(self):
        rows = [(1, 4), (2, 3), (3, 3), (0, 9)]
        tasks = [StageTask(partition=0, rows_in=len(rows),
                           func=skyline_task,
                           args=(rows, MIN2, "complete", False, False)),
                 StageTask(partition=1, rows_in=len(rows),
                           func=skyline_task,
                           args=(rows, MIN2, "complete", False, False))]
        with ProcessBackend(num_workers=2) as backend:
            outcomes = backend.run_stage(tasks)
        skyline, peak, comparisons = outcomes[0].result
        assert sorted(skyline) == [(0, 9), (1, 4), (2, 3)]
        assert comparisons > 0 and peak > 0
        assert outcomes[0].result == outcomes[1].result

    def test_workers_drop_the_drivers_sigterm_handling(self):
        """A driver that handles SIGTERM through an event loop's wakeup
        fd (``python -m repro.serve``) must not pass that on: the SIGTERM
        a pool teardown sends has to end the worker, not wake the
        driver's loop."""
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            with ProcessBackend(num_workers=1) as backend:
                state = backend.pool.submit(_signal_state).result()
        finally:
            signal.set_wakeup_fd(previous_fd)
            signal.signal(signal.SIGTERM, previous)
            reader.close()
            writer.close()
        assert state == (True, -1)


class TestFactory:
    def test_known_names(self):
        for name in BACKEND_NAMES:
            backend = create_backend(name, 1)
            assert backend.name == name
            backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_backend("gpu")

    def test_thread_backend_was_removed(self):
        assert BACKEND_NAMES == ("local", "process")
        with pytest.raises(ValueError, match="was removed"):
            create_backend("thread")

    def test_instance_passthrough(self):
        backend = LocalBackend()
        assert create_backend(backend) is backend

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)

    def test_default_worker_count_positive(self):
        assert default_num_workers() >= 1

    def test_default_worker_count_prefers_affinity(self, monkeypatch):
        """A cgroup/affinity mask narrower than the machine must win:
        cpu_count() overcommits containers and CI runners."""
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_num_workers() == 2

    def test_default_worker_count_falls_back_to_cpu_count(self,
                                                          monkeypatch):
        import os

        def unavailable(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", unavailable,
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_num_workers() == 3

    def test_base_backend_abstract(self):
        with pytest.raises(NotImplementedError):
            Backend().run_stage([])


class TestExecutionContextIntegration:
    def test_run_stage_records_per_task_metrics(self):
        ctx = ExecutionContext(ClusterConfig(num_executors=2))
        tasks = [StageTask(partition=i, rows_in=3, fn=lambda: [(1,), (2,)])
                 for i in range(3)]
        results = ctx.run_stage("s", tasks)
        assert results == [[(1,), (2,)]] * 3
        stage = ctx.stages[0]
        assert len(stage.tasks) == 3
        assert [t.partition for t in stage.tasks] == [0, 1, 2]
        assert stage.real_time_s > 0
        assert ctx.real_time_s() == pytest.approx(stage.real_time_s)

    def test_run_stage_accumulates_comparisons(self):
        ctx = ExecutionContext()
        tasks = [StageTask(partition=0, rows_in=1,
                           fn=lambda: ([(1,)], 4, 11))]
        ctx.run_stage("s", tasks)
        assert ctx.dominance_comparisons == 11
        assert ctx.stages[0].tasks[0].peak_held_rows == 4

    def test_parallel_backend_keeps_simulated_model(self):
        """Simulated time depends only on task durations + config, not on
        which backend executed the tasks."""
        for name in BACKEND_NAMES:
            backend = create_backend(name, 2)
            ctx = ExecutionContext(ClusterConfig(num_executors=2),
                                   backend=backend)
            ctx.run_stage("s", _tasks(4))
            assert ctx.simulated_time_s() > 0
            assert len(ctx.stages[0].tasks) == 4
            backend.close()

    def test_summary_reports_backend(self):
        ctx = ExecutionContext(backend=LocalBackend())
        ctx.run_task("s", 0, lambda: [(1,)], 1)
        summary = ctx.summary()
        assert summary["backend"] == "local"
        assert summary["real_time_s"] > 0
