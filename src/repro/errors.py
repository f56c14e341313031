"""Exception hierarchy for the engine.

Mirrors the kinds of errors Spark SQL raises at the corresponding pipeline
stages: parse errors, analysis errors, planning errors, and execution errors.

The execution family carries the fault-tolerance taxonomy
(:class:`TaskError`, :class:`WorkerCrashError`, :class:`QueryTimeout`,
:class:`ServerOverloadedError`): the serving layer maps each of these to
a stable wire error code, and the execution backends raise them only
after the per-task retry budget (``max_task_retries``) is exhausted.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ParseError(ReproError):
    """Raised by the lexer or parser on malformed SQL input."""

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None) -> None:
        self.position = position
        self.line = line
        location = ""
        if line is not None:
            location = f" (line {line})"
        elif position is not None:
            location = f" (at offset {position})"
        super().__init__(f"{message}{location}")


class AnalysisError(ReproError):
    """Raised by the analyzer when a plan cannot be resolved.

    Examples: unknown table, unresolvable column, aggregate misuse,
    a skyline dimension that resolves to nothing.
    """


class PlanningError(ReproError):
    """Raised when no physical plan can be produced for a logical plan."""


class ExecutionError(ReproError):
    """Raised while executing a physical plan."""


class TaskError(ExecutionError):
    """A partition task failed terminally (retries exhausted or the
    error was classified non-retryable).

    Tasks are pure and deterministic, so a task raising an ordinary
    exception (a ``TypeError`` on bad data, say) would fail identically
    on re-execution; those are wrapped in a :class:`TaskError`
    immediately.  Infrastructure failures (injected faults, worker
    crashes, task timeouts) are retried first and wrapped only once the
    budget is spent.
    """

    def __init__(self, message: str, task_key: str = "",
                 attempts: int = 1) -> None:
        self.task_key = task_key
        self.attempts = attempts
        super().__init__(message)


class WorkerCrashError(TaskError):
    """A worker process died (or a crash was injected) and the task
    could not be recovered within the retry budget.

    The process backend recovers from ``BrokenProcessPool`` by
    rebuilding the pool and re-running only the lost tasks; this error
    surfaces only when a task keeps dying past ``max_task_retries``.
    """


class QueryTimeout(ReproError):
    """A query exceeded its wall-clock budget (``time_budget_s``).

    Raised cooperatively between (and, via per-task future deadlines on
    the process backend, during) partition tasks, and as a hard
    backstop by the serving layer.  ``partial_stats`` reports how far
    the query got: completed stages, rows produced, retries -- the
    error payload a client can use to decide whether to re-submit with
    a larger budget.
    """

    def __init__(self, elapsed: float = 0.0, budget: float = 0.0,
                 message: "str | None" = None,
                 partial_stats: "dict | None" = None) -> None:
        self.elapsed = elapsed
        self.budget = budget
        self.partial_stats = partial_stats if partial_stats is not None \
            else {}
        super().__init__(
            message if message is not None else
            f"run exceeded time budget ({elapsed:.2f}s > {budget:.2f}s)")


#: Historical name for :class:`QueryTimeout` (the benchmark harness
#: catches it to record the paper's ``t.o.`` marker).  Kept as an alias
#: so ``except BenchmarkTimeout`` keeps working.
BenchmarkTimeout = QueryTimeout


class ServerOverloadedError(ReproError):
    """The serving layer shed a request instead of queueing it.

    Raised by the admission scheduler when a tenant's queue is full;
    ``retry_after_s`` is the server's backoff hint, carried on the wire
    as the ``overloaded`` error code's ``retry_after_s`` field.
    """

    def __init__(self, message: str = "server overloaded",
                 retry_after_s: float = 0.1) -> None:
        self.retry_after_s = retry_after_s
        super().__init__(message)
