"""Simulated Spark cluster: executors, task metrics, memory model.

The paper evaluates on a YARN cluster (18 data nodes, up to 864 cores)
and varies the number of *executors* handed to ``spark-submit``.  We
reproduce this without a cluster: physical operators run their partition
tasks in-process, but each task's wall time is measured individually and
recorded in an :class:`ExecutionContext`.  The context then computes the
**simulated distributed execution time**: for each stage, the recorded
task durations are scheduled onto ``num_executors`` workers (longest-
processing-time-first greedy, a classic makespan heuristic) and the stage
contributes its makespan; shuffle and scheduling overheads are added per
stage and task.  A single non-parallelizable task (e.g. the global
skyline) therefore bounds the benefit of extra executors -- exactly the
bottleneck mechanism the paper analyses in Section 6.4.

The memory model follows Appendix C's observations: every executor loads
the Spark runtime ("each executor loads its entire execution environment
... into main memory"), so memory grows with executor count; on top of
that, tasks hold their input partition plus any skyline window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..errors import QueryTimeout
from .backends import Backend, FaultStats, LocalBackend, RetryPolicy, \
    StageTask


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the simulated cluster.

    The defaults are calibrated so the *shape* of the paper's curves is
    reproduced at laptop scale; none of the reported comparisons depends
    on their absolute values.
    """

    num_executors: int = 2
    #: Fixed application start-up time (driver + YARN submission), seconds.
    app_startup_s: float = 0.005
    #: Extra start-up paid once per executor (JVM spin-up), seconds.
    executor_startup_s: float = 0.002
    #: Scheduling overhead per task, seconds.
    task_overhead_s: float = 0.0005
    #: Cost of moving one row through a shuffle, seconds.
    shuffle_cost_per_row_s: float = 1e-7
    #: Resident size of one executor's runtime (JVM + Spark), MB.
    executor_base_memory_mb: float = 768.0
    #: Resident size of the driver, MB.
    driver_base_memory_mb: float = 1024.0
    #: Estimated in-memory footprint of one row, bytes.
    bytes_per_row: float = 160.0
    #: Multiplier on data residency in the memory model.  Benchmarks run
    #: on data scaled down ~500-1000x from the paper's sizes; setting
    #: this to the scale factor reports memory as if the data were
    #: paper-sized, so the memory figures are comparable in magnitude.
    memory_scale: float = 1.0

    @property
    def default_parallelism(self) -> int:
        """Number of partitions Spark would use for a fresh scan."""
        return max(1, self.num_executors)


@dataclass
class TaskMetrics:
    """Measured cost of one partition task."""

    stage: str
    partition: int
    duration_s: float
    rows_in: int
    rows_out: int
    #: Peak number of rows held simultaneously beyond the input
    #: (e.g. the BNL window).
    peak_held_rows: int = 0
    #: Kernel family that executed the task (``scalar``/``vectorized``).
    kernel: str = "scalar"
    #: Executions of the task including the successful one (> 1 means
    #: the fault-tolerance layer retried it).
    attempts: int = 1


@dataclass
class StageMetrics:
    """All tasks of one stage plus its shuffle characteristics."""

    name: str
    tasks: list[TaskMetrics] = field(default_factory=list)
    shuffled_rows: int = 0
    #: True if the stage's tasks may run on different executors.
    parallelizable: bool = True
    #: Real (host) wall-clock time spent executing the stage's tasks,
    #: as opposed to the simulated makespan.  With a parallel backend
    #: this is less than the sum of the task durations.
    real_time_s: float = 0.0
    #: Fault-tolerance counters (see :class:`~repro.engine.backends
    #: .FaultStats`): task re-executions, pool rebuilds after worker
    #: crashes, and timeout-triggered speculative retries that won.
    retries: int = 0
    crash_recoveries: int = 0
    speculative_wins: int = 0

    @property
    def rows_in(self) -> int:
        return sum(t.rows_in for t in self.tasks)

    @property
    def rows_out(self) -> int:
        return sum(t.rows_out for t in self.tasks)


def _split_task_result(result) -> tuple[list, int, int]:
    """Normalise a task return value to (rows, peak_held, comparisons).

    Tasks may return bare ``rows``, ``(rows, peak_held_rows)`` or
    ``(rows, peak_held_rows, dominance_comparisons)``.
    """
    if isinstance(result, tuple) and len(result) == 3 and \
            isinstance(result[1], int) and isinstance(result[2], int):
        return result[0], result[1], result[2]
    if isinstance(result, tuple) and len(result) == 2 and \
            isinstance(result[1], int):
        return result[0], result[1], 0
    return result, 0, 0


def _makespan(durations: list[float], workers: int) -> tuple[float,
                                                             list[float]]:
    """Greedy LPT makespan of ``durations`` over ``workers`` workers.

    Returns the makespan and the per-worker load vector.  Deterministic:
    ties broken by original order.
    """
    loads = [0.0] * max(1, workers)
    for duration in sorted(durations, reverse=True):
        target = loads.index(min(loads))
        loads[target] += duration
    return (max(loads) if loads else 0.0), loads


class ExecutionContext:
    """Per-query execution state: config plus recorded metrics.

    Physical operators call :meth:`run_stage` with the batch of partition
    tasks of one stage (or :meth:`run_task` for a single task) and
    :meth:`record_shuffle` when they move rows between partitions.  The
    tasks execute on a pluggable :class:`~repro.engine.backends.Backend`
    -- sequentially in-process by default, or on a process pool for
    real parallelism.  After execution, :meth:`simulated_time_s` and
    :meth:`peak_memory_mb` derive the quantities the paper's figures
    plot, while :meth:`real_time_s` reports the host wall-clock time the
    backend actually spent.
    """

    def __init__(self, config: ClusterConfig | None = None,
                 backend: Backend | None = None,
                 retry_policy: RetryPolicy | None = None,
                 shm_store=None) -> None:
        self.config = config or ClusterConfig()
        self.backend = backend or LocalBackend()
        #: Optional :class:`~repro.engine.shm.SharedColumnStore` that
        #: every stage exports its shipped tasks' batches into, so they
        #: travel as shared-memory handles (process backend only).
        self.shm_store = shm_store
        #: Store counters snapshot taken after execution (``None``
        #: when the query did not run under a store).
        self.shm_stats: dict | None = None
        self.stages: list[StageMetrics] = []
        self._stage_index: dict[str, StageMetrics] = {}
        #: Total dominance comparisons, filled in by skyline operators.
        self.dominance_comparisons: int = 0
        #: Wall-clock time budget; checked by long-running operators.
        self.deadline: float | None = None
        #: Budget in seconds and when it started, for timeout reporting.
        self.budget_s: float | None = None
        self._budget_start: float | None = None
        #: Retry/timeout budget applied to every stage (see
        #: :class:`~repro.engine.backends.RetryPolicy`).
        self.retry_policy = retry_policy or RetryPolicy()
        #: Query-wide fault-tolerance counters, merged from every stage.
        self.fault_stats = FaultStats()
        #: Tracked (non-simulated) per-operator memory high-water marks
        #: in bytes: stage/operator name -> max concurrently-resident
        #: tracked payload bytes.  Fed by tasks carrying ``bytes_in``;
        #: empty when nothing tracked bytes (e.g. the row plane).
        self.operator_peaks: dict[str, int] = {}
        #: Wall-clock seconds from :meth:`mark_execution_start` until
        #: the first skyline output batch existed.  ``None`` until
        #: known (or for non-skyline queries).
        self.time_to_first_batch_s: float | None = None
        self._exec_start: float | None = None
        #: Rows this query's columnar scans columnized / found resident.
        self.scan = {"columnized_rows": 0, "resident_rows": 0}
        #: ``{reason: count}`` of batch operators that ran their row body
        #: (:class:`repro.engine.relational.Inexact` names the reasons).
        self.fallbacks: dict[str, int] = {}

    # -- deadline handling -------------------------------------------------

    def set_budget(self, seconds: float | None) -> None:
        self.budget_s = seconds
        now = time.perf_counter()
        self._budget_start = None if seconds is None else now
        self.deadline = None if seconds is None else now + seconds

    # -- memory + latency tracking ----------------------------------------

    def mark_execution_start(self) -> None:
        """Start the time-to-first-batch clock (set per execution)."""
        self._exec_start = time.perf_counter()
        self.time_to_first_batch_s = None

    def note_first_batch(self) -> None:
        """Record the first skyline output batch, once:
        :meth:`run_stage` calls this when a ``SkylineLocal``/
        ``SkylineGlobal`` stage completes (the stage barrier *is* the
        first batch)."""
        if self._exec_start is not None and \
                self.time_to_first_batch_s is None:
            self.time_to_first_batch_s = \
                time.perf_counter() - self._exec_start

    def record_memory(self, name: str, nbytes: int) -> None:
        """Fold one observation of tracked resident bytes for ``name``.

        Unlike the simulated Appendix-C model this counts *measured*
        payload bytes (``ColumnBatch.nbytes`` / row estimates), so on
        the process backend :meth:`peak_memory_mb` can
        report a true high-water mark.
        """
        if nbytes > 0 and nbytes > self.operator_peaks.get(name, 0):
            self.operator_peaks[name] = int(nbytes)

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            elapsed = time.perf_counter() - (self._budget_start or 0.0)
            raise QueryTimeout(elapsed=elapsed,
                               budget=self.budget_s or 0.0,
                               partial_stats=self.partial_progress())

    def partial_progress(self) -> dict:
        """How far the query got -- attached to :class:`QueryTimeout`
        payloads so a client can decide whether a bigger budget would
        plausibly finish the query."""
        return {
            "stages_completed": len(self.stages),
            "tasks_completed": sum(len(s.tasks) for s in self.stages),
            "rows_out": sum(s.rows_out for s in self.stages),
            **self.fault_stats.as_dict(),
        }

    # -- recording ---------------------------------------------------------

    def stage(self, name: str, parallelizable: bool = True) -> StageMetrics:
        """Get or create the stage record for ``name``."""
        if name not in self._stage_index:
            metrics = StageMetrics(name=name, parallelizable=parallelizable)
            self._stage_index[name] = metrics
            self.stages.append(metrics)
        stage = self._stage_index[name]
        # Once any caller marks a stage non-parallelizable it stays so.
        stage.parallelizable = stage.parallelizable and parallelizable
        return stage

    def run_stage(self, stage: str, tasks: Sequence[StageTask],
                  parallelizable: bool = True) -> list:
        """Run one stage's partition tasks on the backend.

        Each task's callable returns ``rows``, ``(rows, peak_held_rows)``
        or ``(rows, peak_held_rows, dominance_comparisons)``; metrics are
        recorded per task and the per-partition row lists are returned in
        task order (deterministic across backends).
        """
        self.check_deadline()
        tasks = [replace(task, key=task.key or f"{stage}#{task.partition}")
                 for task in tasks]
        if self.deadline is not None:
            tasks = [self._deadline_wrapped(task) for task in tasks]
        metrics = self.stage(stage, parallelizable)
        policy = replace(self.retry_policy, deadline=self.deadline,
                         stats=FaultStats())
        claims = []
        start = time.perf_counter()
        try:
            if self.shm_store is not None:
                # Exported here, on the submitting thread and into this
                # query's own store -- never by whichever thread pickles.
                shipped = {id(task) for task in self.backend.shipped(tasks)}
                tasks = [self._exported(task, claims)
                         if id(task) in shipped else task for task in tasks]
            outcomes = self.backend.run_stage(tasks, policy)
        except QueryTimeout as exc:
            self._merge_faults(metrics, policy.stats)
            if not exc.partial_stats:
                exc.partial_stats.update(self.partial_progress())
            raise
        finally:
            if claims:
                # This stage's transient segments are only safe to drop
                # now: retries, speculative attempts and crash recovery
                # re-pickle mid-stage.  Other stages' claims stay.
                self.shm_store.end_stage(claims)
            metrics.real_time_s += time.perf_counter() - start
            self._merge_faults(metrics, policy.stats)
        results = []
        for task, outcome in zip(tasks, outcomes):
            rows, peak_held, comparisons = _split_task_result(outcome.result)
            self.dominance_comparisons += comparisons
            metrics.tasks.append(TaskMetrics(
                stage=stage, partition=task.partition,
                duration_s=outcome.duration_s, rows_in=task.rows_in,
                rows_out=len(rows), peak_held_rows=peak_held,
                kernel=task.kernel, attempts=outcome.attempts))
            results.append(rows)
        tracked_bytes = sum(task.bytes_in for task in tasks)
        if tracked_bytes:
            # Every partition of the stage is resident at the barrier,
            # so the stage's high-water mark is the sum of its tracked
            # task inputs.
            self.record_memory(stage, tracked_bytes)
        if stage.startswith(("SkylineLocal", "SkylineGlobal")):
            self.note_first_batch()
        return results

    def _merge_faults(self, metrics: StageMetrics,
                      stats: FaultStats) -> None:
        """Fold one stage run's counters into the stage + query totals.

        Draining (the source is zeroed) so the ``except``/``finally``
        pair in :meth:`run_stage` can both call it without double
        counting.
        """
        if not stats.any():
            return
        metrics.retries += stats.retries
        metrics.crash_recoveries += stats.crash_recoveries
        metrics.speculative_wins += stats.speculative_wins
        self.fault_stats.merge(stats)
        stats.retries = stats.crash_recoveries = stats.speculative_wins = 0

    def _exported(self, task: StageTask, claims: list) -> StageTask:
        """``task`` with its batch args exported to the shm store; the
        entries it claimed are appended to ``claims``."""
        args, claimed = self.shm_store.export(task.args)
        claims.extend(claimed)
        return replace(task, args=args)

    def _deadline_wrapped(self, task: StageTask) -> StageTask:
        """Per-task budget check for driver-side execution.

        Restores the pre-backend behaviour where every partition task
        re-checked the deadline: the local backend runs the wrapped
        ``fn``; process backends still ship the unwrapped picklable
        payload (workers cannot see the driver's clock -- the budget is
        then enforced between stages).
        """
        inner = task.fn if task.fn is not None else \
            (lambda: task.func(*task.args))

        def wrapped():
            self.check_deadline()
            return inner()

        return replace(task, fn=wrapped)

    def run_task(self, stage: str, partition: int, fn, rows_in: int,
                 parallelizable: bool = True, kernel: str = "scalar"):
        """Run ``fn()`` as one task, measuring and recording it.

        ``fn`` returns either ``rows`` or ``(rows, peak_held_rows)``.
        """
        task = StageTask(partition=partition, rows_in=rows_in, fn=fn,
                         kernel=kernel)
        return self.run_stage(stage, [task], parallelizable)[0]

    def record_shuffle(self, stage: str, rows: int) -> None:
        self.stage(stage).shuffled_rows += rows

    def note_fallback(self, stage: str, reason: str) -> None:
        """``stage``, a batch operator, ran its row body: count why."""
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        for task in self.stage(stage).tasks:
            task.kernel = "scalar"

    # -- derived quantities -------------------------------------------------

    def simulated_time_s(self) -> float:
        """Simulated wall-clock time on ``num_executors`` executors."""
        cfg = self.config
        total = cfg.app_startup_s + cfg.num_executors * cfg.executor_startup_s
        for stage in self.stages:
            durations = [t.duration_s + cfg.task_overhead_s
                         for t in stage.tasks]
            workers = cfg.num_executors if stage.parallelizable else 1
            makespan, _ = _makespan(durations, workers)
            total += makespan
            total += stage.shuffled_rows * cfg.shuffle_cost_per_row_s
        return total

    def tracked_peak_mb(self) -> "float | None":
        """Measured per-operator memory high-water mark in MB.

        The maximum over operators/stages of the tracked resident
        payload bytes (:meth:`record_memory`): batch-plane stages stamp
        their task input bytes.  ``None`` when nothing was tracked (row
        plane, metric-only contexts).
        """
        if not self.operator_peaks:
            return None
        return max(self.operator_peaks.values()) / 1e6

    def peak_memory_mb(self) -> float:
        """Peak memory: measured where possible, simulated otherwise.

        On the real parallel backend (process) with tracked
        payload bytes available this reports the true high-water mark
        (:meth:`tracked_peak_mb`).  Otherwise it falls back to the
        paper's simulated Appendix-C model below, which remains the
        quantity the figure benchmarks plot (the local backend always
        simulates, keeping those curves stable).
        """
        if self.backend.name != "local":
            tracked = self.tracked_peak_mb()
            if tracked is not None:
                return tracked
        return self.simulated_peak_memory_mb()

    def simulated_peak_memory_mb(self) -> float:
        """Simulated peak memory across all nodes (paper's Appendix C).

        Per executor: runtime base + the heaviest concurrent residency of
        its assigned tasks (input partition + held rows).  The reported
        number is the cluster-wide sum of executor bases plus the driver,
        plus the single heaviest stage's data residency -- matching the
        paper's 'peak memory consumption across all nodes'.
        """
        cfg = self.config
        base = (cfg.driver_base_memory_mb
                + cfg.num_executors * cfg.executor_base_memory_mb)
        peak_data_bytes = 0.0
        for stage in self.stages:
            workers = cfg.num_executors if stage.parallelizable else 1
            # Assign tasks to workers the same way the time model does so
            # memory attribution is consistent with the schedule.
            ordered = sorted(stage.tasks, key=lambda t: t.duration_s,
                             reverse=True)
            loads = [0.0] * max(1, workers)
            residency = [0.0] * max(1, workers)
            for task in ordered:
                target = loads.index(min(loads))
                loads[target] += task.duration_s
                task_bytes = (task.rows_in + task.peak_held_rows) \
                    * cfg.bytes_per_row
                residency[target] = max(residency[target], task_bytes)
            stage_bytes = sum(residency)
            peak_data_bytes = max(peak_data_bytes, stage_bytes)
        return base + peak_data_bytes * cfg.memory_scale / (1024.0 * 1024.0)

    def real_time_s(self) -> float:
        """Host wall-clock time the backend spent executing stages.

        Contrast with :meth:`simulated_time_s`: with a parallel backend
        this shrinks as tasks overlap, which is what lets the executor-
        scaling curves be validated against real speedups.
        """
        return sum(s.real_time_s for s in self.stages)

    def total_task_time_s(self) -> float:
        return sum(t.duration_s for s in self.stages for t in s.tasks)

    def summary(self) -> dict:
        """Compact dictionary of the headline metrics."""
        return {
            "backend": self.backend.name,
            "simulated_time_s": self.simulated_time_s(),
            "real_time_s": self.real_time_s(),
            "peak_memory_mb": self.peak_memory_mb(),
            "tracked_peak_mb": self.tracked_peak_mb(),
            "time_to_first_batch_s": self.time_to_first_batch_s,
            "total_task_time_s": self.total_task_time_s(),
            "dominance_comparisons": self.dominance_comparisons,
            "faults": self.fault_stats.as_dict(),
            "scan": dict(self.scan),
            "fallbacks": dict(self.fallbacks),
            "stages": [
                {
                    "name": s.name,
                    "tasks": len(s.tasks),
                    "rows_in": s.rows_in,
                    "rows_out": s.rows_out,
                    "shuffled_rows": s.shuffled_rows,
                    "kernels": sorted({t.kernel for t in s.tasks}),
                    "retries": s.retries,
                    "crash_recoveries": s.crash_recoveries,
                    "speculative_wins": s.speculative_wins,
                }
                for s in self.stages
            ],
        }
