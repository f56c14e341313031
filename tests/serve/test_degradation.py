"""Graceful-degradation tests for the serving layer.

Load shedding (bounded per-tenant queues -> ``overloaded`` +
``retry_after_s``), scheduler ring pruning, the stable wire error-code
contract (no stack traces or internal details cross the boundary),
deadline enforcement at the server, and fault counters surfacing in the
service stats.

No pytest-asyncio in the environment: tests drive their own event loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import DOUBLE, INTEGER
from repro.engine.faults import FaultPlan, activate
from repro.errors import (AnalysisError, ExecutionError, ParseError,
                          QueryTimeout, ServerOverloadedError, TaskError,
                          WorkerCrashError)
from repro.serve import SkylineServer
from repro.serve.app import wire_error
from repro.serve.scheduler import AdmissionScheduler

POINTS = [(i, float(i % 7), float(i % 5), float(i % 3))
          for i in range(40)]
COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
           ("b", DOUBLE, False), ("c", DOUBLE, False)]
SQL = "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN"


def make_server(**kwargs) -> SkylineServer:
    server = SkylineServer(**kwargs)
    server.tenant("default").session.create_table("pts", COLUMNS, POINTS)
    return server


# -- scheduler-level shedding and pruning ---------------------------------


class TestSchedulerDegradation:
    def test_full_tenant_queue_is_shed(self):
        async def run():
            scheduler = AdmissionScheduler(max_inflight=1,
                                           max_queue_per_tenant=2)
            await scheduler.admit("t")  # takes the only slot
            queued = [asyncio.ensure_future(scheduler.admit("t"))
                      for _ in range(2)]
            await asyncio.sleep(0)  # let both enter the queue
            with pytest.raises(ServerOverloadedError) as info:
                await scheduler.admit("t")
            assert info.value.retry_after_s > 0
            assert scheduler.stats.shed == 1
            # Other tenants are not shed by this tenant's backlog.
            other = asyncio.ensure_future(scheduler.admit("u"))
            await asyncio.sleep(0)
            assert not other.done()
            # Drain: each release hands the slot to the next waiter,
            # so releases == successful admits (1 + 2 queued + other).
            for _ in range(4):
                scheduler.release()
                await asyncio.sleep(0)
            await asyncio.gather(*queued, other)
            return scheduler

        scheduler = asyncio.run(run())
        assert scheduler.stats.admitted == 4
        assert scheduler.inflight == 0

    def test_drained_tenants_are_pruned_from_the_ring(self):
        """Satellite fix: the ring must not grow without bound as
        one-shot tenants come and go."""
        async def run():
            scheduler = AdmissionScheduler(max_inflight=1)
            await scheduler.admit("hog")
            waiters = [asyncio.ensure_future(
                scheduler.admit(f"tenant-{i}")) for i in range(20)]
            await asyncio.sleep(0)
            assert scheduler.tenant_count == 20
            for _ in range(len(waiters) + 1):
                scheduler.release()
                await asyncio.sleep(0)
            await asyncio.gather(*waiters)
            assert scheduler.tenant_count == 0
            assert scheduler.queue_depth == 0

        asyncio.run(run())

    def test_cancelled_waiters_are_pruned(self):
        async def run():
            scheduler = AdmissionScheduler(max_inflight=1)
            await scheduler.admit("t")
            waiter = asyncio.ensure_future(scheduler.admit("ghost"))
            await asyncio.sleep(0)
            assert scheduler.tenant_count == 1
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert scheduler.tenant_count == 0
            scheduler.release()

        asyncio.run(run())

    def test_retry_after_hint_tracks_service_time(self):
        scheduler = AdmissionScheduler(max_inflight=2)
        baseline = scheduler.retry_after_hint()
        assert baseline > 0
        for _ in range(10):
            scheduler.note_service_time(0.8)
        assert scheduler.retry_after_hint() > baseline
        scheduler.note_service_time(-1)  # ignored, not a crash


# -- the wire error-code contract -----------------------------------------


class TestWireErrors:
    @pytest.mark.parametrize("exc,code", [
        (ParseError("bad sql"), "parse_error"),
        (AnalysisError("no such table"), "analysis_error"),
        (QueryTimeout(elapsed=1.2, budget=1.0), "timeout"),
        (WorkerCrashError("lost", task_key="s#1", attempts=4),
         "worker_crash"),
        (TaskError("boom", task_key="s#0", attempts=1), "task_error"),
        (ServerOverloadedError("full", retry_after_s=0.25), "overloaded"),
        (ValueError("missing field"), "bad_request"),
        (ExecutionError("skyline dimension t.b MIN holds NULL"),
         "execution_error"),
    ])
    def test_stable_codes(self, exc, code):
        payload = wire_error(exc)
        assert payload["ok"] is False
        assert payload["error"] == code

    def test_overloaded_carries_retry_after(self):
        payload = wire_error(
            ServerOverloadedError("full", retry_after_s=0.25))
        assert payload["retry_after_s"] == 0.25

    def test_timeout_carries_partial_progress(self):
        exc = QueryTimeout(elapsed=2.0, budget=1.5,
                           partial_stats={"stages_completed": 3})
        payload = wire_error(exc)
        assert payload["elapsed_s"] == 2.0
        assert payload["budget_s"] == 1.5
        assert payload["partial_stats"] == {"stages_completed": 3}

    def test_task_errors_carry_attempts(self):
        payload = wire_error(
            WorkerCrashError("lost", task_key="s#1", attempts=4))
        assert payload["task_key"] == "s#1"
        assert payload["attempts"] == 4

    def test_unexpected_exceptions_do_not_leak(self):
        secret = "/etc/secret/path and a Traceback-worthy detail"
        payload = wire_error(RuntimeError(secret))
        assert payload["error"] == "internal"
        assert payload["message"] == "internal server error"
        assert secret not in str(payload)
        assert "Traceback" not in str(payload)


# -- server-level degradation ---------------------------------------------


class TestServerDegradation:
    def test_overload_sheds_with_retry_hint_and_recovers(self):
        async def run():
            server = make_server(max_inflight=1, max_queue_per_tenant=1)
            responses = await asyncio.gather(*(
                server.handle({"op": "query", "sql": SQL})
                for _ in range(6)))
            after = await server.handle({"op": "query", "sql": SQL})
            stats = await server.handle({"op": "stats"})
            await server.aclose()
            return responses, after, stats

        responses, after, stats = asyncio.run(run())
        served = [r for r in responses if r["ok"]]
        shed = [r for r in responses if not r["ok"]]
        assert served and shed  # 1 ran + 1 queued, the rest shed
        rows = {tuple(map(tuple, r["rows"])) for r in served}
        assert len(rows) == 1  # survivors still agree bit-for-bit
        for response in shed:
            assert response["error"] == "overloaded"
            assert response["retry_after_s"] > 0
            assert "Traceback" not in response["message"]
        assert stats["scheduler"]["shed"] == len(shed)
        # Shedding is transient: the next request is served normally.
        assert after["ok"], after

    def test_engine_budget_timeout_on_the_wire(self):
        async def run():
            server = make_server()
            server.register_tenant("impatient", time_budget_s=0.0)
            response = await server.handle(
                {"op": "query", "sql": SQL, "tenant": "impatient"})
            healthy = await server.handle({"op": "query", "sql": SQL})
            await server.aclose()
            return response, healthy

        response, healthy = asyncio.run(run())
        assert response["error"] == "timeout"
        assert response["budget_s"] == 0.0
        assert "stages_completed" in response["partial_stats"]
        assert healthy["ok"]  # one tenant's budget never hurts another

    def test_server_hard_timeout_backstop(self):
        """A query stuck where cooperative checks cannot reach is cut
        off by the server's wait_for backstop."""
        async def run():
            server = make_server()
            server.register_tenant("stuck", time_budget_s=0.05)
            server.service.execute = \
                lambda session, sql: time.sleep(1.0)  # type: ignore
            response = await server.handle(
                {"op": "query", "sql": SQL, "tenant": "stuck"})
            await server.aclose()
            return response

        response = asyncio.run(run())
        assert response["error"] == "timeout"
        assert response["partial_stats"] == {"enforced_by": "server"}
        assert response["elapsed_s"] < 1.0

    def test_fault_counters_surface_in_stats(self):
        async def run():
            server = make_server()
            plan = FaultPlan(seed=5, error_p=1.0, max_injections=1)
            with activate(plan):
                faulted = await server.handle(
                    {"op": "query", "sql": SQL})
            clean = await server.handle(
                {"op": "query", "sql": SQL.replace("c MIN", "c MAX")})
            stats = await server.handle({"op": "stats"})
            await server.aclose()
            return faulted, clean, stats

        faulted, clean, stats = asyncio.run(run())
        assert faulted["ok"] and clean["ok"]
        faults = stats["service"]["faults"]
        assert faults["retries"] >= 1
        assert stats["service"]["faults"]["crash_recoveries"] >= 0
