"""Shared catalog, backend pool and result cache for multi-tenant serving.

Historically every :class:`~repro.api.session.SkylineSession` owned its
catalog and worker pool.  A server hosting many tenants wants the
opposite: **one** catalog (so DML is visible to everyone and its plan
cache serves every tenant), **one** worker pool per backend flavour (so 16 tenants
do not spawn 16 process pools), and a cross-session cache of skyline
results.  :class:`CatalogService` owns all of that; tenant sessions
from :meth:`session_for` are thin views over the shared state.
"""

from __future__ import annotations

import threading

from ..api.config import SessionConfig
from ..api.session import QueryResult, SkylineSession
from ..engine.backends import (BackendSpec, FaultStats, SharedBackend,
                               create_backend)
from ..engine.catalog import Catalog
from ..engine.row import Row
from .cache import SkylineResultCache


class CatalogService:
    """Shared engine state behind a serving endpoint.

    Thread-safe for the server's usage: queries run concurrently on a
    thread pool, DML is serialised by :attr:`write_lock`, and the plan
    cache (the catalog's) and the result cache take their own locks.
    """

    def __init__(self, catalog: "Catalog | None" = None, *,
                 result_cache_size: int = 64) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.result_cache = SkylineResultCache(result_cache_size)
        self.catalog.add_listener(self.result_cache.on_catalog_event)
        self._backends: "dict[tuple, SharedBackend]" = {}
        self._backend_lock = threading.Lock()
        #: Serialises catalog DML (queries read without locking; under
        #: CPython the in-place list mutations the catalog performs are
        #: safe against concurrent iteration of a snapshot length).
        self.write_lock = threading.Lock()
        #: Ablation switch: with the result cache off every query
        #: executes the full plan (the benchmark's baseline).
        self.result_cache_enabled = True
        #: Service-lifetime fault-tolerance counters, merged from every
        #: executed query's context (reported by :meth:`stats`).
        self.fault_stats = FaultStats()
        self._fault_lock = threading.Lock()

    # -- tenants ----------------------------------------------------------

    def shared_backend(self, config: SessionConfig) -> SharedBackend:
        """The process-wide backend for ``config``'s flavour."""
        key = (config.backend, config.num_workers)
        with self._backend_lock:
            backend = self._backends.get(key)
            if backend is None:
                backend = SharedBackend(
                    create_backend(config.backend, config.num_workers))
                self._backends[key] = backend
            return backend

    def session_for(self, config: "SessionConfig | None" = None,
                    **options) -> SkylineSession:
        """A tenant session over the shared catalog and worker pool."""
        config = config if config is not None else SessionConfig()
        if options:
            config = config.with_options(**options)
        session = SkylineSession(config=config, catalog=self.catalog)
        session._backend_spec = BackendSpec(self.shared_backend(config))
        return session

    # -- the serving execution path ---------------------------------------

    def execute(self, session: SkylineSession, sql: str) -> QueryResult:
        """Parse and run ``sql`` for a tenant, through the caches.

        The catalog's plan cache is consulted *before* parsing
        (:meth:`SkylineSession.planned`: the SQL text plus the session's
        planning settings and the catalog's schema version), so a hot
        query's latency is the result-cache lookup alone.  Cache-hit
        answers come back with ``cache_hit=True`` and zero simulated
        cost; everything else executes normally and, when the plan has
        the cacheable skyline shape, feeds the result cache.
        """
        prepared = session.planned(sql).prepared
        shape = prepared.cacheable_shape \
            if self.result_cache_enabled else None
        if shape is not None:
            cached = self.result_cache.lookup(
                shape, self.catalog.lookup(shape.table))
            if cached is not None:
                rows = [Row(values, prepared.schema) for values in cached]
                return session.cached_result(rows, prepared.schema)
        version = self.catalog.version
        result = session.execute_prepared(prepared)
        self._note_faults(result)
        if shape is not None:
            # Refused if DML newer than ``version`` was already applied
            # to the cache -- checked atomically with the insertion.
            self.result_cache.store(
                shape, [row.as_tuple() for row in result.rows],
                self.catalog.lookup(shape.table), version=version)
        return result

    def _note_faults(self, result: QueryResult) -> None:
        """Fold one query's fault counters into the service totals."""
        stats = getattr(result.context, "fault_stats", None)
        if stats is not None and stats.any():
            with self._fault_lock:
                self.fault_stats.merge(stats)

    # -- lifecycle --------------------------------------------------------

    def stats(self) -> dict:
        with self._fault_lock:
            faults = self.fault_stats.as_dict()
        return {"catalog_version": self.catalog.version,
                "tables": self.catalog.table_names(),
                "resident_column_bytes":
                    self.catalog.resident_column_bytes(),
                "column_maintenance": self.catalog.column_maintenance(),
                "plan_cache": self.catalog.plans.stats(),
                "result_cache": self.result_cache.stats.as_dict(),
                "faults": faults}

    def close(self) -> None:
        """Detach the result cache from the catalog and shut down the
        shared worker pools (server shutdown only)."""
        self.catalog.remove_listener(self.result_cache.on_catalog_event)
        with self._backend_lock:
            for backend in self._backends.values():
                backend.close_shared()
            self._backends.clear()
