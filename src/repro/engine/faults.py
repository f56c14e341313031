"""Deterministic fault injection at task granularity.

Spark's credibility at scale rests on task-level fault tolerance; to
*test* the equivalent machinery here (retries, pool recovery, deadline
enforcement) without flaky sleeps or real machine failures, this module
injects faults **deterministically**: a :class:`FaultPlan` holds a seed
and per-fault probabilities, and every injection decision is a pure
function of ``(seed, task key, attempt, fault kind)`` hashed with
SHA-256 -- independent of ``PYTHONHASHSEED``, process identity, and
wall-clock time.  Running the same plan against the same query twice
injects exactly the same faults; raising a task's attempt number past
``max_injections`` is guaranteed fault-free, which is what makes
retry-until-success terminate.

Activation is by environment variable so the plan reaches *worker
processes* (a ``ProcessPoolExecutor`` child inherits the parent's
environment) and black-box subprocesses (``tools/serve_smoke.py``)::

    REPRO_FAULT_PLAN="seed=7,crash_p=0.2,delay_p=0.1,delay_s=0.002"

or in-process via :func:`activate`::

    with activate(FaultPlan(seed=7, crash_p=0.2)):
        session.sql(...).run()

Fault kinds, checked in order per attempt:

* **crash** -- in a process-pool worker the process dies hard
  (``os._exit``), producing a real ``BrokenProcessPool`` on the driver;
  in the driver a :class:`SimulatedWorkerCrash` is raised
  instead (killing the test runner would be overly method).
* **error** -- raises :class:`InjectedFault`, classified retryable.
* **delay** -- sleeps ``delay_s`` seconds (exercises task timeouts and
  speculative re-execution).

``poison`` marks a task-key substring as always-crashing (below the
``max_injections`` attempt cap) -- the "one poisoned worker" scenario.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import ReproError

#: Environment variable carrying the active plan's spec string.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFault(ReproError):
    """A fault raised on purpose by an active :class:`FaultPlan`.

    Classified retryable by the backends: tasks are pure, so the
    re-execution either hits another injection (a later attempt) or
    succeeds bit-identically.
    """


class SimulatedWorkerCrash(InjectedFault):
    """A crash decision taken where ``os._exit`` would kill the driver
    (inline execution); retried like a real worker crash."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded crash/delay/exception injection at task granularity.

    ``max_injections`` caps the *attempt numbers* that may inject:
    attempt ``>= max_injections`` of any task is guaranteed clean, so
    an execution layer retrying at least ``max_injections`` times
    always converges.  ``poison`` is a task-key substring whose tasks
    always crash below that cap (deterministic worst case).
    """

    seed: int = 0
    crash_p: float = 0.0
    error_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 0.002
    max_injections: int = 2
    poison: str = ""

    def __post_init__(self) -> None:
        for name in ("crash_p", "error_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.max_injections < 0:
            raise ValueError("max_injections must be >= 0")

    # -- wire format ------------------------------------------------------

    def to_spec(self) -> str:
        """Compact ``key=value`` spec for the environment variable."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value}")
        return ",".join(parts) or "seed=0"

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (``seed=7,crash_p=0.2,...``)."""
        kwargs: dict = {}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad fault-plan entry {part!r}; expected key=value")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(
                    f"unknown fault-plan field {key!r}; expected one of "
                    f"{sorted(fields)}")
            target = fields[key].default
            if isinstance(target, bool):
                kwargs[key] = raw.strip().lower() in ("1", "true", "yes")
            elif isinstance(target, int):
                kwargs[key] = int(raw)
            elif isinstance(target, float):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = raw.strip()
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ: "dict | None" = None) -> "FaultPlan | None":
        spec = (environ if environ is not None else os.environ).get(
            FAULT_PLAN_ENV, "").strip()
        return cls.from_spec(spec) if spec else None

    # -- decisions --------------------------------------------------------

    def roll(self, key: str, attempt: int, kind: str) -> float:
        """Deterministic uniform draw in [0, 1) for one decision.

        SHA-256 of the identifying tuple; stable across processes and
        Python versions, unaffected by ``PYTHONHASHSEED``.
        """
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}:{kind}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def decide(self, key: str, attempt: int) -> "str | None":
        """The fault (if any) to inject for this task attempt.

        Returns ``"crash"``, ``"error"``, ``"delay"`` or ``None``.
        """
        if attempt >= self.max_injections:
            return None
        if self.poison and self.poison in key:
            return "crash"
        if self.roll(key, attempt, "crash") < self.crash_p:
            return "crash"
        if self.roll(key, attempt, "error") < self.error_p:
            return "error"
        if self.roll(key, attempt, "delay") < self.delay_p:
            return "delay"
        return None


# -- the active plan ------------------------------------------------------

#: Cache of the last parsed spec so hot paths pay one dict lookup + one
#: string compare per task, not a parse.
_cached: "tuple[str, FaultPlan | None] | None" = None


def active_plan() -> "FaultPlan | None":
    """The plan named by ``REPRO_FAULT_PLAN``, or ``None``.

    Re-reads the environment on every call (cheap: parse results are
    cached per spec string) so :func:`activate` works mid-process and
    worker processes see the spec they inherited.
    """
    global _cached
    spec = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if _cached is not None and _cached[0] == spec:
        return _cached[1]
    plan = FaultPlan.from_spec(spec) if spec else None
    _cached = (spec, plan)
    return plan


@contextmanager
def activate(plan: "FaultPlan | None"):
    """Install ``plan`` (via the environment, so child processes spawned
    inside the block inherit it) for the duration of the block."""
    previous = os.environ.get(FAULT_PLAN_ENV)
    if plan is None:
        os.environ.pop(FAULT_PLAN_ENV, None)
    else:
        os.environ[FAULT_PLAN_ENV] = plan.to_spec()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous


def maybe_inject(key: str, attempt: int, in_worker: bool = False) -> None:
    """Apply the active plan's decision for one task attempt.

    Called by the execution backends immediately before running a task.
    ``in_worker=True`` (process-pool children) makes crash decisions
    kill the process for real; elsewhere they raise
    :class:`SimulatedWorkerCrash`.
    """
    plan = active_plan()
    if plan is None:
        return
    fault = plan.decide(key, attempt)
    if fault is None:
        return
    if fault == "crash":
        if in_worker:
            # A hard exit, not an exception: the driver must observe a
            # genuine BrokenProcessPool, exactly like a SIGKILLed
            # executor.
            os._exit(1)
        raise SimulatedWorkerCrash(
            f"injected crash: task {key!r} attempt {attempt}")
    if fault == "error":
        raise InjectedFault(
            f"injected error: task {key!r} attempt {attempt}")
    time.sleep(plan.delay_s)
