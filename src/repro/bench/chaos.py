"""Chaos benchmark: correctness and overhead under injected faults.

Runs a skyline query mix twice over identical data -- once clean, once
under a seeded :class:`~repro.engine.faults.FaultPlan` injecting task
crashes, errors, and delays -- and reports:

* **bit_identical** -- every query's rows under chaos equal the clean
  run exactly (tasks are pure, so retry-based recovery must not change
  a single byte);
* **overhead** -- chaos wall time over clean wall time (the retry +
  backoff + re-execution tax); the CI gate asserts it stays under 2x
  at 10% injected task failures;
* the engine's fault counters (retries, crash recoveries, speculative
  wins), which must be non-zero -- a chaos run that injects nothing
  gates nothing.

Run via ``python -m repro.bench --chaos``.
"""

from __future__ import annotations

import os
import platform
import random
import time

from ..api.config import SessionConfig
from ..api.session import SkylineSession
from ..engine.backends import FaultStats
from ..engine.faults import FaultPlan, activate
from ..engine.types import DOUBLE, INTEGER

#: The query mix: the full preference set plus subsets, so the runs
#: exercise several stages and skyline shapes.
QUERY_MIX = (
    "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN",
    "SELECT * FROM pts SKYLINE OF a MIN, b MAX",
    "SELECT * FROM pts SKYLINE OF b MIN, c MIN",
    "SELECT * FROM pts SKYLINE OF a MIN, c MAX",
)

_COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
            ("b", DOUBLE, False), ("c", DOUBLE, False)]


def _make_rows(num_rows: int, seed: int = 7) -> list[tuple]:
    rng = random.Random(seed)
    return [(i, rng.uniform(0, 1000), rng.uniform(0, 1000),
             rng.uniform(0, 1000)) for i in range(num_rows)]


def _make_session(rows: list[tuple], backend: str,
                  num_partitions: int) -> SkylineSession:
    config = SessionConfig(
        backend=backend,
        num_executors=num_partitions,
        skyline_algorithm="distributed-complete",
        max_task_retries=3,
        # Keep the backoff tax tiny: the gate measures re-execution
        # overhead, not sleep time.
        retry_backoff_s=0.001)
    session = SkylineSession(config=config)
    session.create_table("pts", _COLUMNS, rows)
    return session


def _run_mix(session: SkylineSession
             ) -> "tuple[float, list[list[tuple]], FaultStats]":
    faults = FaultStats()
    answers = []
    start = time.perf_counter()
    for sql in QUERY_MIX:
        result = session.sql(sql).run()
        answers.append(sorted(result.as_tuples()))
        faults.merge(result.context.fault_stats)
    wall_s = time.perf_counter() - start
    return wall_s, answers, faults


def run_chaos_bench(num_rows: int = 12_000, *,
                    backend: str = "local",
                    num_partitions: int = 8,
                    crash_p: float = 0.10,
                    error_p: float = 0.02,
                    delay_p: float = 0.05,
                    seed: int = 20230331,
                    repeats: int = 2) -> dict:
    """Clean vs fault-injected runs of the query mix; returns the
    ``BENCH_chaos`` report.

    ``repeats`` runs of each leg are taken and the fastest kept, so the
    overhead ratio is not dominated by one noisy scheduling hiccup.
    On the default ``local`` backend a crash decision raises
    :class:`~repro.engine.faults.SimulatedWorkerCrash` in the driver and
    is retried like a lost worker; real worker deaths are exercised by
    the process-backend tests and ``tools/serve_smoke.py
    --inject-faults``.
    """
    rows = _make_rows(num_rows)
    plan = FaultPlan(seed=seed, crash_p=crash_p, error_p=error_p,
                     delay_p=delay_p, delay_s=0.001)

    clean_wall = float("inf")
    clean_answers = None
    for _ in range(max(1, repeats)):
        with _make_session(rows, backend, num_partitions) as session:
            wall_s, answers, _ = _run_mix(session)
        clean_wall = min(clean_wall, wall_s)
        if clean_answers is None:
            clean_answers = answers
        elif answers != clean_answers:
            raise AssertionError("clean runs disagree with each other")

    chaos_wall = float("inf")
    chaos_answers = None
    faults = FaultStats()
    with activate(plan):
        for _ in range(max(1, repeats)):
            with _make_session(rows, backend, num_partitions) as session:
                wall_s, answers, run_faults = _run_mix(session)
            chaos_wall = min(chaos_wall, wall_s)
            chaos_answers = answers
            faults.merge(run_faults)

    return {
        "kind": "chaos",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "backend": backend,
        "num_partitions": num_partitions,
        "queries": len(QUERY_MIX),
        "fault_plan": plan.to_spec(),
        "clean_wall_s": clean_wall,
        "chaos_wall_s": chaos_wall,
        "overhead": chaos_wall / clean_wall if clean_wall > 0
        else float("inf"),
        "bit_identical": chaos_answers == clean_answers,
        "faults_injected": faults.any(),
        "faults": faults.as_dict(),
        "skyline_rows": [len(a) for a in (clean_answers or [])],
    }


def render_chaos_report(report: dict) -> str:
    faults = report["faults"]
    return "\n".join([
        f"chaos benchmark ({report['num_rows']} rows, "
        f"{report['backend']} backend, "
        f"plan '{report['fault_plan']}')",
        f"  clean wall   {report['clean_wall_s'] * 1e3:8.1f} ms",
        f"  chaos wall   {report['chaos_wall_s'] * 1e3:8.1f} ms",
        f"  overhead     {report['overhead']:8.2f} x",
        f"  retries {faults['retries']}, "
        f"crash recoveries {faults['crash_recoveries']}, "
        f"speculative wins {faults['speculative_wins']}",
        f"  bit-identical results: {report['bit_identical']}",
    ])
