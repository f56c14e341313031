"""Session configuration as a single frozen dataclass.

:class:`SessionConfig` consolidates what used to be a sprawl of
``SkylineSession.__init__`` keyword arguments and ``with_*`` builder
methods into one immutable value object.  A session is constructed from
a config (``SkylineSession(config=...)`` or :func:`repro.connect`) and
re-configured with :meth:`SessionConfig.with_options` /
:meth:`SkylineSession.with_options`.

The config is also the unit of multi-tenancy in the serving layer
(:mod:`repro.serve`): each tenant registers one ``SessionConfig`` and
the server derives a session from it over the shared catalog, backend
pool, and caches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..engine.backends import Backend, RetryPolicy, validate_backend
from ..engine.cluster import ClusterConfig

#: Accepted ``global_merge`` names (one behaviour behind both).
GLOBAL_MERGE_STRATEGIES = ("auto", "flat")

#: Accepted ``execution`` names (one executor behind both).  Vestigial
#: beside ``GLOBAL_MERGE_STRATEGIES``: ``perf/run.py::_oracle`` passes
#: both options and ``perf/rounds.py`` reads ``QueryResult.pipeline`` /
#: ``.global_merge``, so the fields and accessors stay until the
#: benchmark-only PR of ROADMAP's Debts drops the pins; ``src/`` then
#: drops the fields.
EXECUTION_MODES = ("auto", "staged")


def _validate_plane(name: str, value) -> None:
    """Reject a ``vectorized`` / ``columnar`` flag that is not a bool
    (``"auto"`` included).  Identity checks on purpose: ``1 == True``,
    so a membership test would let the ints 1/0 through."""
    if not (value is True or value is False):
        raise ValueError(f"{name} must be True or False, got {value!r}")


@dataclass(frozen=True)
class SessionConfig:
    """Every session-level knob, in one immutable place.

    >>> from repro import SessionConfig
    >>> config = SessionConfig(num_executors=4, skyline_algorithm="sfs")
    >>> config.skyline_algorithm
    'sfs'
    >>> config.with_options(num_executors=8).num_executors
    8
    >>> config.num_executors  # the original is unchanged (frozen)
    4

    Parameters
    ----------
    num_executors:
        Simulated executor count (the paper's ``--num-executors``);
        also the scan's partition count, which every skyline local
        stage keeps.
    skyline_algorithm:
        ``auto`` (Listing 8 selection) or a forced strategy
        (``distributed-complete``, ``non-distributed-complete``,
        ``distributed-incomplete``, ``sfs``).
    enable_skyline_optimizations:
        Toggles the Section 5.4 optimizer rules.
    cluster_config:
        Full simulated-cluster model override; ``num_executors`` wins
        when both are given.
    backend:
        Execution backend name (``local``/``process``) or a pre-built
        :class:`~repro.engine.backends.Backend` instance.  ``process``
        ships batch partitions to its workers as ``/dev/shm`` handles
        where the platform serves segments, and pickles them otherwise
        (EXPLAIN marks each batch stage ``[shm]`` or ``[pickle]``).
    num_workers:
        Pool size for the process backend.
    vectorized:
        Skyline kernels: ``True`` (default, the columnar NumPy kernels)
        or ``False`` (the scalar reference kernels).
    columnar:
        Data plane: ``True`` (default, column batches) or ``False``
        (the scalar row reference plane).
    time_budget_s:
        Per-query wall-clock budget; queries raise
        :class:`~repro.errors.QueryTimeout` beyond it.  ``None``
        disables the budget; ``0.0`` is an already-expired budget.
        Re-budget a session with ``session.with_options(time_budget_s=...)``.
    max_task_retries:
        How many times a failed partition task is re-executed before
        the failure becomes terminal (``0`` disables retry).  Safe
        because tasks are pure/deterministic -- a retry is
        bit-identical -- and only *infrastructure* failures (worker
        crashes, injected faults, timeouts) are retried at all.
    task_timeout_s:
        Per-attempt wall-clock bound on the process backend;
        a timed-out attempt is speculatively re-executed.  ``None``
        disables per-task timeouts.
    retry_backoff_s:
        Base of the exponential retry backoff (deterministic seeded
        jitter in [0.5x, 1.5x) per attempt).
    global_merge:
        A validated name with one behaviour: ``"auto"`` and ``"flat"``
        both run the global skyline phase as one ``AllTuples`` task.
        Kept only because the benchmark harness's reference session
        (``perf/run.py``) passes ``global_merge="flat"``; the
        ``"hierarchical"`` tournament tree was removed.
    execution:
        Vestigial, like ``global_merge``: a validated name with one
        behaviour.  ``"auto"`` and ``"staged"`` both mean the one
        executor (scan/filter/project chains fused into their consumer's
        stage, see ``docs/architecture.md``); ``"pipelined"`` -- the
        morsel-driven executor stage fusion replaced -- raises.  Kept
        only because the benchmark harness's reference session
        (``perf/run.py``) passes ``execution="staged"``; both fields go
        when the benchmark stops passing them.
    """

    num_executors: int = 2
    skyline_algorithm: str = "auto"
    enable_skyline_optimizations: bool = True
    cluster_config: "ClusterConfig | None" = None
    backend: "str | Backend" = "local"
    num_workers: "int | None" = None
    vectorized: bool = True
    columnar: bool = True
    time_budget_s: "float | None" = None
    max_task_retries: int = 3
    task_timeout_s: "float | None" = None
    retry_backoff_s: float = 0.05
    global_merge: str = "auto"
    execution: str = "auto"

    def __post_init__(self) -> None:
        # Imported here: repro.plan imports repro.engine, which must not
        # circularly depend on the api package at import time.
        from ..plan.planner import SKYLINE_STRATEGIES

        if self.skyline_algorithm == "adaptive":
            raise ValueError(
                "skyline_algorithm='adaptive' was removed: the algorithm "
                "is chosen by Listing 8's rule ('auto') or forced by "
                "name; see docs/benchmarks.md, 'Planner regret'")
        if self.skyline_algorithm not in SKYLINE_STRATEGIES:
            raise ValueError(
                f"unknown skyline_algorithm "
                f"{self.skyline_algorithm!r}; expected one of "
                f"{SKYLINE_STRATEGIES}")
        _validate_plane("vectorized", self.vectorized)
        _validate_plane("columnar", self.columnar)
        validate_backend(self.backend)
        if self.num_executors < 1:
            raise ValueError("num_executors must be >= 1")
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            # 0.0 is legal: an already-expired budget (used by tests to
            # force instant timeouts).
            raise ValueError("time_budget_s must be >= 0")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.global_merge == "hierarchical":
            raise ValueError(
                "global_merge='hierarchical' was removed: the global "
                "skyline phase is always one flat task; use 'auto'")
        if self.global_merge not in GLOBAL_MERGE_STRATEGIES:
            raise ValueError(
                f"unknown global_merge {self.global_merge!r}; expected "
                f"one of {GLOBAL_MERGE_STRATEGIES}")
        if self.execution == "pipelined":
            raise ValueError(
                "execution='pipelined' was removed (PR 18, stage "
                "fusion): scan/filter/project chains run inside their "
                "consumer's tasks on the one executor; use 'auto'")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution {self.execution!r}; expected one "
                f"of {EXECUTION_MODES}")

    def retry_policy(self) -> RetryPolicy:
        """The per-stage :class:`~repro.engine.backends.RetryPolicy`
        this config asks for (``max_attempts`` counts the first
        execution, so it is ``max_task_retries + 1``)."""
        return RetryPolicy(
            max_attempts=self.max_task_retries + 1,
            backoff_s=self.retry_backoff_s,
            task_timeout_s=self.task_timeout_s)

    def as_dict(self) -> dict:
        """JSON-friendly view of the config (the serving protocol's
        ``configure`` response); non-serialisable field values
        (backend instances, cluster configs) are rendered as strings."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None and \
                    not isinstance(value, (bool, int, float, str)):
                value = str(value)
            out[f.name] = value
        return out

    # -- evolution --------------------------------------------------------

    def with_options(self, **overrides) -> "SessionConfig":
        """A copy with the given fields replaced (validation reruns).

        >>> SessionConfig().with_options(backend="process").backend
        'process'
        """
        unknown = set(overrides) - {f.name for f in
                                    dataclasses.fields(self)}
        if unknown:
            raise TypeError(
                f"unknown session option(s): {sorted(unknown)}; valid "
                f"options are "
                f"{sorted(f.name for f in dataclasses.fields(self))}")
        return dataclasses.replace(self, **overrides)
