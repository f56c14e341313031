"""The multi-tenant async serving layer.

:class:`SkylineServer` fronts one :class:`~repro.serve.catalog.CatalogService`
with an asyncio TCP endpoint speaking a JSON-lines protocol: each
request is one JSON object on one line, each response one JSON object
on one line.  Engine work is synchronous, so queries run on a bounded
thread pool; the :class:`~repro.serve.scheduler.AdmissionScheduler`
gates entry to it with per-tenant fairness.

Requests (``op`` selects the operation)::

    {"op": "ping"}
    {"op": "configure", "tenant": "t1", "options": {"num_executors": 4}}
    {"op": "create_table", "table": "hotels",
     "columns": [["name", "STRING"], ["price", "DOUBLE"]],
     "rows": [["A", 120.0]]}
    {"op": "insert", "table": "hotels", "rows": [["B", 90.0]]}
    {"op": "delete", "table": "hotels", "rows": [["A", 120.0]]}
    {"op": "drop", "table": "hotels"}
    {"op": "query", "tenant": "t1", "sql": "SELECT * FROM hotels ..."}
    {"op": "stats"}

Every response carries ``"ok"``; query responses add ``rows``,
``columns``, ``cache_hit``, ``scheduler_wait_s`` and ``elapsed_s``.

Error responses carry a **stable wire error code** in ``error`` plus a
human-readable ``message`` -- never a stack trace or an internal
exception repr.  The codes:

===================  =====================================================
``parse_error``      malformed SQL
``analysis_error``   unresolvable plan (unknown table/column, ...)
``planning_error``   no physical plan
``timeout``          query exceeded ``time_budget_s`` (adds ``elapsed_s``,
                     ``budget_s``, ``partial_stats``)
``worker_crash``     a task was lost to worker crashes past the retry
                     budget (adds ``task_key``, ``attempts``)
``task_error``       a task failed terminally (adds ``task_key``,
                     ``attempts``)
``execution_error``  the engine refused the query's data (e.g. a NULL
                     under ``SKYLINE OF COMPLETE``)
``overloaded``       admission shed the request (adds ``retry_after_s``)
``bad_request``      malformed request envelope (bad JSON, unknown op,
                     missing fields)
``internal``         anything unexpected; the message is generic on
                     purpose
===================  =====================================================
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..api.config import SessionConfig
from ..api.session import QueryResult, SkylineSession
from ..engine.types import BOOLEAN, DOUBLE, INTEGER, STRING
from ..errors import (AnalysisError, ExecutionError, ParseError,
                      PlanningError, QueryTimeout, ReproError,
                      ServerOverloadedError, TaskError, WorkerCrashError)
from .catalog import CatalogService
from .scheduler import AdmissionScheduler

#: Column type names accepted by the ``create_table`` op.
TYPE_NAMES = {"INTEGER": INTEGER, "INT": INTEGER, "DOUBLE": DOUBLE,
              "FLOAT": DOUBLE, "STRING": STRING, "BOOLEAN": BOOLEAN}

#: Exception -> stable wire code, most specific first (order matters:
#: ``WorkerCrashError`` is a ``TaskError``).
_ERROR_CODES: "tuple[tuple[type, str], ...]" = (
    (ParseError, "parse_error"),
    (AnalysisError, "analysis_error"),
    (PlanningError, "planning_error"),
    (QueryTimeout, "timeout"),
    (WorkerCrashError, "worker_crash"),
    (TaskError, "task_error"),
    (ExecutionError, "execution_error"),
    (ServerOverloadedError, "overloaded"),
)


def wire_error(exc: BaseException) -> dict:
    """Map an exception to a stable error payload for the wire.

    Only the taxonomy's message text crosses the boundary -- no stack
    traces, no exception class names, and for *unexpected* exceptions
    not even the message (clients get a generic ``internal``).
    """
    for exc_type, code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            payload = {"ok": False, "error": code, "message": str(exc)}
            if isinstance(exc, QueryTimeout):
                payload["elapsed_s"] = exc.elapsed
                payload["budget_s"] = exc.budget
                payload["partial_stats"] = dict(exc.partial_stats)
            elif isinstance(exc, TaskError):
                payload["task_key"] = exc.task_key
                payload["attempts"] = exc.attempts
            elif isinstance(exc, ServerOverloadedError):
                payload["retry_after_s"] = exc.retry_after_s
            return payload
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        # Request-shaped errors (bad fields, unknown ops, bad types).
        return {"ok": False, "error": "bad_request", "message": str(exc)}
    if isinstance(exc, ReproError):
        # Our own taxonomy: the message is safe, curated text.
        return {"ok": False, "error": "internal", "message": str(exc)}
    return {"ok": False, "error": "internal",
            "message": "internal server error"}


def _swallow(future) -> None:
    """Observe a discarded future so its exception is never 'never
    retrieved' (hard-timed-out queries finish into one of these)."""
    if not future.cancelled():
        future.exception()


@dataclass
class Tenant:
    """One tenant: a name, its config, and its session view."""

    name: str
    config: SessionConfig
    session: SkylineSession


class SkylineServer:
    """Asyncio serving endpoint over a shared :class:`CatalogService`."""

    def __init__(self, service: "CatalogService | None" = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 4,
                 max_queue_per_tenant: int = 16,
                 default_config: "SessionConfig | None" = None) -> None:
        self.service = service if service is not None else CatalogService()
        self.host = host
        self.port = port
        self.scheduler = AdmissionScheduler(max_inflight,
                                            max_queue_per_tenant)
        self.default_config = default_config if default_config is not None \
            else SessionConfig()
        self._tenants: dict[str, Tenant] = {}
        self._pool = ThreadPoolExecutor(max_workers=max_inflight,
                                        thread_name_prefix="repro-serve")
        self._server: "asyncio.AbstractServer | None" = None

    # -- tenants ----------------------------------------------------------

    def register_tenant(self, name: str,
                        config: "SessionConfig | None" = None,
                        **options) -> Tenant:
        """(Re-)register a tenant; options override ``default_config``."""
        config = config if config is not None else self.default_config
        if options:
            config = config.with_options(**options)
        tenant = Tenant(name, config, self.service.session_for(config))
        self._tenants[name] = tenant
        return tenant

    def tenant(self, name: str) -> Tenant:
        """The named tenant, auto-registered with the default config."""
        found = self._tenants.get(name)
        if found is None:
            found = self.register_tenant(name)
        return found

    # -- execution --------------------------------------------------------

    async def execute(self, tenant_name: str, sql: str) -> QueryResult:
        """Run one query for a tenant through admission control.

        ``time_budget_s`` is enforced twice: cooperatively inside the
        engine (precise, with partial-progress stats) and here as a
        hard ``asyncio.wait_for`` backstop with a grace margin --
        catching tasks stuck somewhere the cooperative checks cannot
        reach.  The worker thread of a hard-timed-out query cannot be
        killed; it is left to finish into a discarded future.
        """
        tenant = self.tenant(tenant_name)
        waited = await self.scheduler.admit(tenant.name)
        start = time.perf_counter()
        budget = tenant.config.time_budget_s
        try:
            loop = asyncio.get_running_loop()
            call = loop.run_in_executor(
                self._pool, self.service.execute, tenant.session, sql)
            if budget is None:
                result = await call
            else:
                try:
                    result = await asyncio.wait_for(
                        asyncio.shield(call),
                        timeout=budget + max(0.5, budget))
                except asyncio.TimeoutError:
                    call.add_done_callback(_swallow)
                    raise QueryTimeout(
                        elapsed=time.perf_counter() - start,
                        budget=budget,
                        partial_stats={"enforced_by": "server"}) from None
        finally:
            self.scheduler.release()
            self.scheduler.note_service_time(time.perf_counter() - start)
        result.scheduler_wait_s = waited
        return result

    # -- request dispatch -------------------------------------------------

    async def handle(self, request: dict) -> dict:
        """Dispatch one decoded request to a response payload."""
        try:
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                shm = {name: tenant.session.shm_stats()
                       for name, tenant in self._tenants.items()}
                return {"ok": True,
                        "service": self.service.stats(),
                        "scheduler": self.scheduler.stats.as_dict(),
                        "shm": {name: stats for name, stats in shm.items()
                                if stats is not None},
                        "tenants": sorted(self._tenants)}
            if op == "configure":
                tenant = self.register_tenant(
                    str(request.get("tenant", "default")),
                    **request.get("options", {}))
                return {"ok": True, "tenant": tenant.name,
                        "config": tenant.config.as_dict()}
            if op == "query":
                return await self._op_query(request)
            if op in ("create_table", "insert", "delete", "drop"):
                return self._op_dml(op, request)
            return {"ok": False, "error": "bad_request",
                    "message": f"unknown op {op!r}"}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            return wire_error(exc)

    async def _op_query(self, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ValueError("query op needs a non-empty 'sql' string")
        start = time.perf_counter()
        result = await self.execute(
            str(request.get("tenant", "default")), sql)
        elapsed = time.perf_counter() - start
        return {"ok": True,
                "rows": [list(row) for row in result.as_tuples()],
                "columns": [field.name for field in result.schema],
                "cache_hit": result.cache_hit,
                "scheduler_wait_s": result.scheduler_wait_s,
                "elapsed_s": elapsed}

    def _op_dml(self, op: str, request: dict) -> dict:
        table = request.get("table")
        if not isinstance(table, str) or not table:
            raise ValueError(f"{op} op needs a 'table' name")
        catalog = self.service.catalog
        with self.service.write_lock:
            if op == "create_table":
                columns = []
                for spec in request.get("columns", ()):
                    name, type_name = spec[0], str(spec[1]).upper()
                    if type_name not in TYPE_NAMES:
                        raise ValueError(
                            f"unknown column type {spec[1]!r}; expected "
                            f"one of {sorted(set(TYPE_NAMES))}")
                    nullable = bool(spec[2]) if len(spec) > 2 else True
                    columns.append((name, TYPE_NAMES[type_name], nullable))
                session = self.tenant(
                    str(request.get("tenant", "default"))).session
                session.create_table(
                    table, columns,
                    [tuple(row) for row in request.get("rows", ())],
                    primary_key=tuple(request.get("primary_key", ())))
                return {"ok": True, "table": table,
                        "rows": catalog.lookup(table).num_rows}
            if op == "insert":
                count = catalog.insert_into(
                    table, [tuple(row) for row in request.get("rows", ())])
                return {"ok": True, "inserted": count}
            if op == "delete":
                count = catalog.delete_from(
                    table,
                    rows=[tuple(row) for row in request.get("rows", ())])
                return {"ok": True, "deleted": count}
            catalog.drop(table)
            return {"ok": True, "dropped": table}

    # -- the wire protocol ------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": "bad_request",
                                "message": f"request is not valid JSON: "
                                           f"{exc}"}
                else:
                    if not isinstance(request, dict):
                        response = {"ok": False, "error": "bad_request",
                                    "message": "request must be an object"}
                    else:
                        response = await self.handle(request)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # Shutdown may cancel the handler mid-close; the
                # transport is already closed, so nothing is leaked.
                pass

    async def start(self) -> "tuple[str, int]":
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)
        self.service.close()
