"""Pluggable execution backends for partition tasks.

The simulated cluster (:mod:`repro.engine.cluster`) models *distributed*
time by scheduling measured task durations onto virtual executors; how
the tasks actually run on the host is a separate concern.  This module
owns that concern: a :class:`Backend` executes one *stage* -- a batch of
independent partition tasks -- and returns each task's result together
with its individually measured duration.

Two implementations are provided:

* :class:`LocalBackend` -- sequential in-process execution, the
  historical behaviour and the default.
* :class:`ProcessBackend` -- a ``ProcessPoolExecutor`` giving true
  multi-core parallelism and crash isolation.  Tasks must offer a
  *picklable* payload (top-level function + arguments); tasks that only
  provide an in-process closure transparently fall back to inline
  execution, so mixed plans still work.

Every backend preserves task order and determinism: results are returned
in submission order regardless of completion order, so the engine's
output is bit-identical across backends.

Fault tolerance
---------------

Stages execute under a :class:`RetryPolicy`.  Because every partition
task is **pure and deterministic** (a top-level function of plain-data
arguments, or a closure over immutable engine state), re-running a
failed task is bit-identical to the first attempt -- which makes
Spark-style task-level retry sound here:

* *Retryable* failures (injected faults from
  :mod:`repro.engine.faults`, worker crashes, IPC transport errors,
  task timeouts) are retried up to ``max_attempts`` with exponential
  backoff and deterministic seeded jitter.
* A crashed worker process breaks the whole ``ProcessPoolExecutor``
  (every in-flight future raises ``BrokenProcessPool``); the process
  backend rebuilds the pool and re-runs **only the lost tasks** --
  results that completed before the crash are kept.  A task that keeps
  dying surfaces as :class:`~repro.errors.WorkerCrashError` once the
  budget is spent.
* ``task_timeout_s`` bounds one attempt on the process backend via
  future deadlines.  A timed-out attempt is *speculatively* retried:
  the original future is left to finish (a running worker task cannot
  be cancelled) and
  the first attempt to complete wins; if the retry wins while the
  original is still running, the outcome is flagged
  ``speculative_win``.
* A stage-level ``deadline`` (the query's ``time_budget_s``) caps every
  future wait, so a stuck task raises
  :class:`~repro.errors.QueryTimeout` mid-stage instead of after it.
* Ordinary task exceptions are **not** retried -- determinism means
  they would fail identically -- and are wrapped in
  :class:`~repro.errors.TaskError` immediately; an
  :class:`~repro.errors.ExecutionError` the task raises itself already
  names what is wrong and propagates as is.

On any terminal stage failure, outstanding futures are cancelled and
their exceptions observed (no leaked, silently-running work).
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..errors import (ExecutionError, QueryTimeout, TaskError,
                      WorkerCrashError)
from .faults import InjectedFault, SimulatedWorkerCrash, maybe_inject

#: Names accepted by :func:`create_backend` and the session API.
BACKEND_NAMES = ("local", "process")


def default_num_workers() -> int:
    """Worker count used when the caller does not specify one.

    ``os.cpu_count()`` reports the machine, not the schedulable CPUs:
    under a cgroup quota or CPU-affinity mask (containers, CI runners)
    it overcommits the pool, and the resulting context-switch storm is
    strictly slower.  Prefer the affinity mask where the platform has
    one (Linux); ``cpu_count`` remains the fallback elsewhere.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass
class StageTask:
    """One partition task of a stage.

    ``fn`` is an in-process closure (may capture engine state such as the
    deadline checker).  ``func``/``args`` is an optional *picklable*
    payload -- a top-level function plus plain-data arguments -- that
    process backends ship to worker processes.  Tasks providing only
    ``fn`` still run under every backend (the process backend executes
    them inline).

    A task's partition payload and result are either a row-tuple list
    or a :class:`~repro.engine.batch.ColumnBatch` (the batch data
    plane); both pickle, so batch-plane skyline stages fan out to
    process workers exactly like row stages, and the recorded
    ``rows_in``/``rows_out`` metrics count batch rows transparently.

    ``kernel`` labels which kernel family executes the task (``scalar``
    or ``vectorized``); it is carried into the recorded
    :class:`~repro.engine.cluster.TaskMetrics` so benchmarks and the
    differential suite can verify which implementation actually ran.

    ``key`` identifies the task for retry bookkeeping and deterministic
    fault injection (:mod:`repro.engine.faults`); the execution context
    fills it with ``"<stage>#<partition>"``.
    """

    partition: int
    rows_in: int
    fn: Callable[[], Any] | None = None
    func: Callable[..., Any] | None = None
    args: tuple = ()
    kernel: str = "scalar"
    key: str = ""
    #: Tracked payload bytes of this task's input (``ColumnBatch.nbytes``
    #: or a row-list estimate).  ``0`` = untracked; when set, the
    #: execution context folds it into the *real* per-stage memory
    #: high-water mark it reports.
    bytes_in: int = 0

    def __post_init__(self) -> None:
        if self.fn is None and self.func is None:
            raise ValueError("StageTask needs fn or func")

    @property
    def picklable(self) -> bool:
        return self.func is not None

    @property
    def fault_key(self) -> str:
        return self.key or f"task#{self.partition}"

    def run_inline(self) -> Any:
        """Execute in the calling thread/process."""
        if self.fn is not None:
            return self.fn()
        return self.func(*self.args)


@dataclass
class TaskOutcome:
    """Result of one task plus its measured duration.

    ``attempts`` counts executions including the successful one;
    ``speculative_win`` marks results produced by a timeout-triggered
    retry that finished while the original attempt was still running.
    """

    result: Any
    duration_s: float
    attempts: int = 1
    speculative_win: bool = False


@dataclass
class FaultStats:
    """Fault-handling counters for one stage execution (or aggregated
    across a query / a server's lifetime)."""

    retries: int = 0
    crash_recoveries: int = 0
    speculative_wins: int = 0

    def merge(self, other: "FaultStats") -> None:
        self.retries += other.retries
        self.crash_recoveries += other.crash_recoveries
        self.speculative_wins += other.speculative_wins

    def any(self) -> bool:
        return bool(self.retries or self.crash_recoveries
                    or self.speculative_wins)

    def as_dict(self) -> dict:
        return {"retries": self.retries,
                "crash_recoveries": self.crash_recoveries,
                "speculative_wins": self.speculative_wins}


@dataclass
class RetryPolicy:
    """Per-stage retry/timeout budget applied to every task.

    ``max_attempts`` counts total executions (1 = no retry).
    ``backoff_s`` is the base of an exponential backoff whose jitter is
    *deterministic* -- a seeded hash of (task key, attempt) -- so
    retried runs remain reproducible.  ``task_timeout_s`` bounds one
    attempt on the process backend; ``deadline`` is an absolute
    ``perf_counter`` bound (the query budget) capping every wait.
    ``stats`` receives the fault counters of the stage.
    """

    max_attempts: int = 4
    backoff_s: float = 0.05
    task_timeout_s: "float | None" = None
    seed: int = 0
    deadline: "float | None" = None
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0")

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic seeded jitter.

        The jitter multiplier lies in [0.5, 1.5) and depends only on
        (seed, key, attempt): two runs of the same failing stage sleep
        identically, keeping chaos tests reproducible.
        """
        if self.backoff_s <= 0:
            return 0.0
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}:backoff".encode()).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / float(1 << 64)
        delay = self.backoff_s * (2 ** attempt) * jitter
        if self.deadline is not None:
            delay = min(delay, max(0.0, self.deadline
                                   - time.perf_counter()))
        return min(delay, 2.0)


def is_retryable(exc: BaseException) -> bool:
    """Classify a task failure.

    Infrastructure failures are worth re-executing; deterministic task
    exceptions are not -- the re-run would fail identically, so they
    fail fast as :class:`~repro.errors.TaskError`.
    """
    if isinstance(exc, InjectedFault):
        return True
    if isinstance(exc, BrokenExecutor):
        return True
    # IPC transport errors shipping payloads/results to process workers.
    if isinstance(exc, (ConnectionError, EOFError)):
        return True
    return False


def _is_crash(exc: BaseException) -> bool:
    return isinstance(exc, (SimulatedWorkerCrash, BrokenExecutor))


def timed_invoke(func: Callable[..., Any], args: tuple,
                 fault_key: "str | None" = None,
                 attempt: int = 0) -> TaskOutcome:
    """Run ``func(*args)`` measuring its duration.

    Top-level so that :class:`ProcessBackend` can pickle it; the duration
    is measured inside the worker, which is what the simulated-cluster
    makespan model needs.  ``fault_key`` routes the call through the
    deterministic fault injector (a crash decision here kills the
    worker process for real).
    """
    if fault_key is not None:
        maybe_inject(fault_key, attempt, in_worker=True)
    start = time.perf_counter()
    result = func(*args)
    return TaskOutcome(result, time.perf_counter() - start)


def _timed_inline(task: StageTask, attempt: int = 0) -> TaskOutcome:
    maybe_inject(task.fault_key, attempt)
    start = time.perf_counter()
    result = task.run_inline()
    return TaskOutcome(result, time.perf_counter() - start)


# -- shared retry machinery ------------------------------------------------


def _check_deadline(policy: RetryPolicy) -> None:
    if policy.deadline is not None and \
            time.perf_counter() > policy.deadline:
        raise QueryTimeout(
            message="query deadline exceeded during stage execution")


def _wait_budget(policy: RetryPolicy) -> "tuple[float | None, bool]":
    """Timeout for one future wait: min(task timeout, deadline left).

    Returns ``(timeout, deadline_bound)``; ``deadline_bound`` tells the
    caller whether an expiry means the *query* is out of time (raise
    :class:`QueryTimeout`) rather than the task (speculative retry).
    """
    timeout = policy.task_timeout_s
    if policy.deadline is not None:
        remaining = policy.deadline - time.perf_counter()
        if remaining <= 0:
            raise QueryTimeout(
                message="query deadline exceeded during stage execution")
        if timeout is None or remaining < timeout:
            return remaining, True
    return timeout, False


def _next_attempt(task: StageTask, attempt: int, policy: RetryPolicy,
                  exc: Exception) -> int:
    """Account for one failed attempt; returns the next attempt number
    or raises the terminal wrapped error."""
    if isinstance(exc, (QueryTimeout, ExecutionError)):
        # The deadline-wrapped task fn noticed the query budget expired,
        # or the engine refused the task's data (an ExecutionError names
        # what is wrong): query-level verdicts, not task failures.
        raise exc
    key = task.fault_key
    attempts = attempt + 1
    if not is_retryable(exc):
        raise TaskError(
            f"task {key} failed: {exc}", task_key=key,
            attempts=attempts) from exc
    if attempts >= policy.max_attempts:
        if _is_crash(exc):
            raise WorkerCrashError(
                f"task {key} lost to worker crashes after {attempts} "
                f"attempts", task_key=key, attempts=attempts) from exc
        raise TaskError(
            f"task {key} failed after {attempts} attempts: {exc}",
            task_key=key, attempts=attempts) from exc
    delay = policy.backoff_delay(key, attempt)
    if policy.deadline is not None and \
            time.perf_counter() + delay >= policy.deadline:
        # backoff_delay clamps the sleep *to* the remaining budget, so
        # without this check a small time_budget_s would be slept away
        # inside backoff and the timeout only surface afterwards.
        # There is no point sleeping at all: the retry could not start
        # before the deadline.  Raise promptly (and do not count a
        # retry that never ran).
        raise QueryTimeout(
            message=f"query deadline reached while backing off retry "
                    f"of task {key}") from exc
    policy.stats.retries += 1
    if _is_crash(exc):
        policy.stats.crash_recoveries += 1
    if delay > 0:
        time.sleep(delay)
    return attempt + 1


def _run_with_retries(task: StageTask, policy: RetryPolicy) -> TaskOutcome:
    """Inline execution under the retry policy (driver-side paths)."""
    attempt = 0
    while True:
        _check_deadline(policy)
        try:
            outcome = _timed_inline(task, attempt)
        except Exception as exc:
            attempt = _next_attempt(task, attempt, policy, exc)
            continue
        outcome.attempts = attempt + 1
        return outcome


def _observe(future: Future) -> None:
    """Done-callback retrieving a future's exception so abandoned work
    never surfaces as an 'exception was never retrieved' warning."""
    if not future.cancelled():
        future.exception()


def _abandon(futures: Iterable["Future | None"]) -> None:
    """Cancel-or-observe outstanding futures on a terminal stage error.

    Pending futures are cancelled; running ones cannot be (an
    already-dispatched process task is uninterruptible), so their
    eventual exception/result is swallowed via a done-callback instead
    of leaking unobserved.
    """
    for future in futures:
        if future is None or future.done():
            continue
        future.cancel()
        future.add_done_callback(_observe)


@dataclass
class _Slot:
    """Mutable per-task retry state during one stage execution."""

    task: StageTask
    future: "Future | None" = None
    prev: "Future | None" = None
    attempt: int = 0
    epoch: int = 0

    def outstanding(self) -> "list[Future]":
        return [f for f in (self.future, self.prev) if f is not None]


_DEFAULT_POLICY = RetryPolicy()


class Backend:
    """Executes the tasks of one stage; see the module docstring."""

    name = "base"

    def run_stage(self, tasks: Sequence[StageTask],
                  policy: "RetryPolicy | None" = None
                  ) -> list[TaskOutcome]:
        raise NotImplementedError

    def shipped(self, tasks: Sequence[StageTask]) -> "list[StageTask]":
        """The tasks :meth:`run_stage` would send to another process,
        pickling their ``args``; in-process backends ship none."""
        return []

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LocalBackend(Backend):
    """Sequential in-process execution (the default)."""

    name = "local"

    def run_stage(self, tasks: Sequence[StageTask],
                  policy: "RetryPolicy | None" = None
                  ) -> list[TaskOutcome]:
        policy = policy if policy is not None else RetryPolicy()
        return [_run_with_retries(task, policy) for task in tasks]


def _reset_worker_signals() -> None:
    """Pool-worker initializer: the default SIGTERM and no wakeup fd.

    A forked worker inherits the driver's signal handling.  Under a
    driver that handles SIGTERM in its event loop (``python -m
    repro.serve``), the SIGTERM a pool teardown sends its workers would
    not end them and would reach the driver's loop through the inherited
    wakeup fd, shutting the server down.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)


class ProcessBackend(Backend):
    """Process-pool execution: true multi-core parallelism.

    Only tasks with a picklable payload (``func``/``args``) travel to the
    worker processes; closure-only tasks run inline in the driver.  The
    local-skyline phase -- the parallel bulk of the
    ``distributed-complete`` and ``distributed-incomplete`` strategies --
    provides such payloads, so it is exactly the work that fans out.

    A dead worker breaks the whole pool (``BrokenProcessPool`` on every
    in-flight future); :meth:`_recover` rebuilds it and re-runs only
    the tasks whose results were lost.
    """

    name = "process"

    def __init__(self, num_workers: int | None = None) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers or default_num_workers()
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        #: Bumped on every pool teardown; lets concurrent stage runs
        #: agree on which pool instance a crash invalidated.
        self._epoch = 0
        # Fork the workers now, while the driver is small: one forked
        # mid-query inherits -- and its RSS is charged for -- whatever
        # the driver holds by then (e.g. a table's resident columns).
        self.pool.submit(int).result()

    @property
    def pool(self) -> ProcessPoolExecutor:
        return self._pool_and_epoch()[0]

    def _pool_and_epoch(self) -> "tuple[ProcessPoolExecutor, int]":
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    initializer=_reset_worker_signals)
            return self._pool, self._epoch

    def _invalidate_pool(self, epoch: int) -> None:
        """Tear down the pool of generation ``epoch`` (idempotent: a
        second caller observing the same crash is a no-op)."""
        with self._lock:
            if self._epoch != epoch or self._pool is None:
                return
            pool, self._pool = self._pool, None
            self._epoch += 1
        pool.shutdown(wait=False)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                self._epoch += 1
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_workers={self.num_workers})"

    def shipped(self, tasks: Sequence[StageTask]) -> "list[StageTask]":
        # A lone picklable task runs inline: one task gains nothing
        # from a worker and would pay the pickling both ways.
        shippable = [t for t in tasks if t.picklable]
        return shippable if len(shippable) > 1 else []

    def run_stage(self, tasks: Sequence[StageTask],
                  policy: "RetryPolicy | None" = None
                  ) -> list[TaskOutcome]:
        policy = policy if policy is not None else RetryPolicy()
        slots = {id(task): _Slot(task) for task in self.shipped(tasks)}
        if not slots:
            return [_run_with_retries(task, policy) for task in tasks]
        try:
            for slot in slots.values():
                self._submit(slot)
            outcomes = []
            for task in tasks:
                slot = slots.get(id(task))
                outcomes.append(
                    _run_with_retries(task, policy) if slot is None
                    else self._collect(slot, slots, policy))
            return outcomes
        except BaseException:
            _abandon(f for slot in slots.values()
                     for f in slot.outstanding())
            raise

    def _submit(self, slot: _Slot) -> None:
        while True:
            pool, epoch = self._pool_and_epoch()
            try:
                slot.future = pool.submit(
                    timed_invoke, slot.task.func, slot.task.args,
                    slot.task.fault_key, slot.attempt)
                slot.epoch = epoch
                return
            except BrokenExecutor:
                # The pool died between the grab and the submit; a
                # fresh pool cannot be born broken, so this converges.
                self._invalidate_pool(epoch)

    def _collect(self, slot: _Slot, slots: "dict[int, _Slot]",
                 policy: RetryPolicy) -> TaskOutcome:
        while True:
            timeout, deadline_bound = _wait_budget(policy)
            try:
                outcome = slot.future.result(timeout)
            except FuturesTimeout:
                if deadline_bound:
                    raise QueryTimeout(
                        message="query deadline exceeded during stage "
                                "execution") from None
                self._speculate(slot, policy)
                continue
            except BrokenExecutor as exc:
                self._recover(slot.epoch, slots, policy, exc)
                continue
            except Exception as exc:
                slot.attempt = _next_attempt(slot.task, slot.attempt,
                                             policy, exc)
                self._submit(slot)
                continue
            outcome.attempts = slot.attempt + 1
            if slot.prev is not None and not slot.prev.done():
                outcome.speculative_win = True
                policy.stats.speculative_wins += 1
            return outcome

    def _speculate(self, slot: _Slot, policy: RetryPolicy) -> None:
        """Relaunch a timed-out attempt; the original keeps running and
        the first finisher wins -- results are identical either way
        because tasks are pure."""
        attempts = slot.attempt + 1
        if attempts >= policy.max_attempts:
            raise TaskError(
                f"task {slot.task.fault_key} timed out after {attempts} "
                f"attempts (task_timeout_s={policy.task_timeout_s})",
                task_key=slot.task.fault_key, attempts=attempts)
        policy.stats.retries += 1
        slot.attempt += 1
        slot.prev = slot.future
        slot.prev.add_done_callback(_observe)
        self._submit(slot)

    def _recover(self, epoch: int, slots: "dict[int, _Slot]",
                 policy: RetryPolicy, cause: BaseException) -> None:
        """Worker-crash recovery: rebuild the pool, re-run lost tasks.

        Results that completed before the crash are kept (their futures
        retain them); every unfinished task is resubmitted with its
        attempt counter bumped, so a task that keeps killing workers
        exhausts its budget and surfaces as
        :class:`~repro.errors.WorkerCrashError`.
        """
        policy.stats.crash_recoveries += 1
        self._invalidate_pool(epoch)
        for slot in slots.values():
            future = slot.future
            if future is None:
                continue
            if future.done() and future.exception() is None:
                continue  # survived the crash; result already in hand
            if not future.done():
                future.cancel()
                future.add_done_callback(_observe)
            attempts = slot.attempt + 1
            if attempts >= policy.max_attempts:
                raise WorkerCrashError(
                    f"task {slot.task.fault_key} lost to worker crashes "
                    f"after {attempts} attempts",
                    task_key=slot.task.fault_key,
                    attempts=attempts) from cause
            policy.stats.retries += 1
            slot.attempt += 1
            self._submit(slot)


class SharedBackend(Backend):
    """A backend wrapper shared across many sessions (the serving
    layer's tenants).

    Tenant sessions receive the *same* worker pool instead of one pool
    per session, but a tenant calling ``close()`` (or using the session
    as a context manager) must not tear the shared pool down under the
    other tenants -- so ``close`` is a no-op here and the owning server
    calls :meth:`close_shared` on shutdown.  Worker-crash recovery is
    epoch-guarded in the wrapped backend, so concurrent tenants
    observing the same crash rebuild the pool exactly once.
    """

    def __init__(self, inner: Backend) -> None:
        self.inner = inner

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def num_workers(self) -> int | None:
        return getattr(self.inner, "num_workers", None)

    def run_stage(self, tasks: Sequence[StageTask],
                  policy: "RetryPolicy | None" = None
                  ) -> list[TaskOutcome]:
        return self.inner.run_stage(tasks, policy)

    def shipped(self, tasks: Sequence[StageTask]) -> "list[StageTask]":
        return self.inner.shipped(tasks)

    def close(self) -> None:
        """No-op: the pool is shared; see :meth:`close_shared`."""

    def close_shared(self) -> None:
        """Shut down the wrapped backend's pool (owner only)."""
        self.inner.close()

    def __repr__(self) -> str:
        return f"SharedBackend({self.inner!r})"


@dataclass
class BackendSpec:
    """Declarative backend selection, resolved lazily.

    Sessions hold one of these and *share it by reference* across
    clones (``with_options``), so a process pool is materialised
    at most once no matter which clone triggers it -- and closing any
    sharer closes the one real pool.  ``choice`` is a backend name or a
    pre-built :class:`Backend` instance.
    """

    choice: "str | Backend" = "local"
    num_workers: int | None = None
    _instance: Backend | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        validate_backend(self.choice)
        if isinstance(self.choice, Backend):
            self._instance = self.choice

    def resolve(self) -> Backend:
        if self._instance is None:
            self._instance = create_backend(self.choice, self.num_workers)
        return self._instance

    def close(self) -> None:
        """Shut down the materialised backend's pool, if any.

        The instance is kept: the process backend recreates its pool on
        demand, so the spec stays usable after close.
        """
        if self._instance is not None:
            self._instance.close()

    @property
    def name(self) -> str:
        return self._instance.name if self._instance is not None \
            else str(self.choice)


def validate_backend(choice: "str | Backend") -> None:
    """Reject anything but a :data:`BACKEND_NAMES` entry or a
    :class:`Backend` instance."""
    if isinstance(choice, Backend) or choice in BACKEND_NAMES:
        return
    if choice == "thread":
        raise ValueError(
            "backend='thread' was removed: the GIL serialises the "
            "skyline kernels, so it never beat 'local'; use 'local' or "
            "'process'")
    raise ValueError(
        f"unknown backend {choice!r}; expected one of {BACKEND_NAMES}")


def create_backend(name: "str | Backend",
                   num_workers: int | None = None) -> Backend:
    """Instantiate a backend by name (``local``/``process``).

    An already-constructed :class:`Backend` passes through unchanged so
    callers can inject custom implementations.
    """
    validate_backend(name)
    if isinstance(name, Backend):
        return name
    return LocalBackend() if name == "local" else \
        ProcessBackend(num_workers)
