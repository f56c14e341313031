"""The session: configuration, catalog, and the SQL entry point.

:class:`SkylineSession` plays the role of ``SparkSession``: it owns the
catalog, the cluster configuration (number of executors, Section 6.1's
main tuning knob) and the query pipeline (parser -> analyzer -> optimizer
-> planner -> execution, Figure 2 of the paper).

Configuration lives in one frozen :class:`~repro.api.config.SessionConfig`
value object: ``SkylineSession(config=...)`` / :func:`connect` construct
a session, :meth:`SkylineSession.with_options` re-configures one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Iterable, Sequence

from ..engine import expressions as E
from ..engine.backends import Backend, BackendSpec
from ..engine.catalog import Catalog, ForeignKey, Table
from ..engine.cluster import ClusterConfig, ExecutionContext
from ..engine.row import Field, Row, Schema, infer_schema
from ..plan.analyzer import Analyzer
from ..plan.logical import LocalRelation, LogicalPlan, tree_string
from ..plan.optimizer import Optimizer
from ..plan.physical import PhysicalPlan, physical_tree_string
from ..plan.planner import Planner
from ..sql.parser import parse_query
from ..stats import TableStats, collect_table_stats
from .config import SessionConfig

@dataclass
class QueryResult:
    """Rows plus the execution metrics the benchmarks consume.

    ``cache_hit`` and ``scheduler_wait_s`` are filled in by the serving
    layer (:mod:`repro.serve`); for the plain single-session path they
    keep their benign defaults (``False`` / ``0.0``) so benchmarks and
    tests can always assert where time went.
    """

    rows: list[Row]
    schema: Schema
    context: ExecutionContext
    cache_hit: bool = False
    scheduler_wait_s: float = 0.0

    @property
    def simulated_time_s(self) -> float:
        return self.context.simulated_time_s()

    @property
    def real_time_s(self) -> float:
        """Host wall-clock time the execution backend actually spent."""
        return self.context.real_time_s()

    @property
    def peak_memory_mb(self) -> float:
        return self.context.peak_memory_mb()

    def as_tuples(self) -> list[tuple]:
        return [row.as_tuple() for row in self.rows]

    @property
    def global_merge(self) -> None:
        """Always ``None``: the global phase is one ``AllTuples`` task
        with no shape to report.  Readable only because the benchmark
        harness (``perf/rounds.py``) still evaluates it."""
        return None

    @property
    def time_to_first_batch_s(self) -> "float | None":
        """Wall-clock seconds from execution start until the first
        skyline stage finished (the local partials, or the global task
        of a non-distributed plan).  ``None`` when no skyline stage
        ran."""
        return self.context.time_to_first_batch_s

    @property
    def pipeline(self) -> None:
        """Always ``None``: there is one executor and it has no report
        of its own beyond the stage records.  Readable only because the
        benchmark harness (``perf/rounds.py``) still evaluates it."""
        return None

    @property
    def scan(self) -> dict:
        """``{columnized_rows, resident_rows}``: rows this execution's
        scans columnized vs. sliced from tables' resident columns."""
        return dict(self.context.scan)


@dataclass
class PreparedQuery:
    """A logical plan lowered to an executable physical plan.

    Produced by :meth:`SkylineSession.prepare` and consumed by
    :meth:`SkylineSession.execute_prepared`; the catalog's plan cache
    stores these across sessions (the physical plan re-executes against
    the *current* table rows, so catalog DML does not stale it -- the
    plan-cache key holds the catalog's schema version).  Re-executing one
    is safe concurrently: per-execution state lives on the context.
    """

    physical: PhysicalPlan
    schema: Schema
    decisions: list
    #: The optimized logical plan the physical plan was lowered from;
    #: the serving layer's result cache inspects it for cacheable
    #: skyline shapes.
    optimized: "LogicalPlan | None" = None

    @cached_property
    def cacheable_shape(self):
        """The result cache's :class:`~repro.serve.cache.CacheableShape`
        of :attr:`optimized` (``None``: not cacheable), computed once per
        prepared plan."""
        from ..serve.cache import cacheable_shape
        return cacheable_shape(self.optimized)


@dataclass
class CachedPlan:
    """One statement in the catalog's plan cache: what parsing gave and
    what planning gave."""

    parsed: LogicalPlan
    prepared: PreparedQuery


class SkylineSession:
    """Entry point for SQL and DataFrame queries with skyline support.

    >>> import repro
    >>> from repro import DOUBLE, STRING
    >>> session = repro.connect(num_executors=2)
    >>> _ = session.create_table(
    ...     "hotels",
    ...     [("name", STRING, False), ("price", DOUBLE, False),
    ...      ("rating", DOUBLE, False)],
    ...     [("A", 120.0, 4.5), ("B", 90.0, 4.0), ("C", 150.0, 3.0)])
    >>> sorted(session.sql(
    ...     "SELECT name FROM hotels "
    ...     "SKYLINE OF price MIN, rating MAX").to_tuples())
    [('A',), ('B',)]

    Parameters
    ----------
    config:
        A :class:`~repro.api.config.SessionConfig` carrying every
        session-level knob; see its docstring for the field reference.
        Defaults to ``SessionConfig()``.
    catalog:
        An existing :class:`~repro.engine.catalog.Catalog` to attach to
        instead of creating a private one.  The serving layer uses this
        to share one catalog (tables, plan cache) across tenants.
    """

    def __init__(self, *, config: SessionConfig | None = None,
                 catalog: Catalog | None = None) -> None:
        self._apply_config(config or SessionConfig())
        self.catalog = catalog if catalog is not None else Catalog()
        # Validates the name eagerly; the pool itself is lazy.  Clones
        # share this spec by reference so at most one pool exists.
        self._backend_spec = BackendSpec(self.config.backend,
                                         self.config.num_workers)
        # Lazy shared-memory store (process backend + columnar plane +
        # a platform serving segments); owns every exported segment of
        # this session and is destroyed by close().
        self._shm_store = None

    def _apply_config(self, config: SessionConfig) -> None:
        """Mirror the config onto the historical public attributes."""
        self.config = config
        base = config.cluster_config or ClusterConfig()
        self.cluster_config = replace(
            base, num_executors=config.num_executors)
        self.vectorized = config.vectorized
        self.columnar = config.columnar
        self.skyline_algorithm = config.skyline_algorithm
        self.enable_skyline_optimizations = \
            config.enable_skyline_optimizations

    # -- configuration ------------------------------------------------------

    @property
    def backend(self) -> Backend:
        """The execution backend, created lazily so that sessions never
        pay pool start-up cost unless a parallel backend is used."""
        return self._backend_spec.resolve()

    def close(self) -> None:
        """Shut down the backend's worker pool and destroy any
        shared-memory segments (idempotent; the session remains usable
        -- pool and store are recreated on demand)."""
        self._backend_spec.close()
        if self._shm_store is not None:
            self._shm_store.close()
            self._shm_store = None

    def __enter__(self) -> "SkylineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def with_options(self, **overrides) -> "SkylineSession":
        """A session sharing this catalog but with config fields
        replaced -- the one re-configuration entry point.

        Cheap: the catalog -- and, unless ``backend``/``num_workers``
        is overridden, the backend spec, hence any worker pool -- are
        shared by reference with the original session.

        >>> from repro import SkylineSession
        >>> fast = SkylineSession().with_options(num_executors=8)
        >>> fast.cluster_config.num_executors
        8
        """
        new_backend = "backend" in overrides or "num_workers" in overrides
        config = self.config.with_options(**overrides)
        clone = SkylineSession(config=config, catalog=self.catalog)
        if not new_backend:
            clone._backend_spec = self._backend_spec
        return clone

    # -- catalog management ----------------------------------------------------

    def create_table(self, name: str,
                     columns: "Schema | Sequence",
                     rows: Iterable[tuple],
                     primary_key: Sequence[str] = (),
                     foreign_keys: Iterable[ForeignKey] = (),
                     unique_keys: Iterable[Sequence[str]] = ()) -> Table:
        """Register a table.

        ``columns`` is either a :class:`Schema` or a sequence of
        ``(name, dtype, nullable)`` / ``(name, dtype)`` tuples.
        """
        schema = columns if isinstance(columns, Schema) else Schema(
            [self._to_field(c) for c in columns])
        return self.catalog.create_table(
            name, schema, rows, primary_key=primary_key,
            foreign_keys=foreign_keys, unique_keys=unique_keys)

    @staticmethod
    def _to_field(column: Any) -> Field:
        if isinstance(column, Field):
            return column
        if len(column) == 2:
            name, dtype = column
            return Field(name, dtype, True)
        name, dtype, nullable = column
        return Field(name, dtype, nullable)

    def create_dataframe(self, rows: Sequence[tuple],
                         columns: "Schema | Sequence[str]") -> "DataFrame":
        """An in-memory DataFrame (no catalog registration).

        ``columns`` is a Schema or a list of names (types inferred).
        """
        from .dataframe import DataFrame
        schema = columns if isinstance(columns, Schema) else infer_schema(
            list(columns), list(rows))
        output = [E.AttributeReference(f.name, f.dtype, f.nullable)
                  for f in schema]
        return DataFrame(LocalRelation(output, list(rows)), self)

    def read_csv(self, path, schema: "Schema | None" = None,
                 header: bool = True, delimiter: str = ",",
                 table_name: str | None = None) -> "DataFrame":
        """Load a CSV file into a DataFrame.

        With ``table_name`` the data is also registered in the catalog,
        making it queryable via :meth:`sql`.
        """
        from ..engine.io import read_csv
        loaded_schema, rows = read_csv(path, schema=schema, header=header,
                                       delimiter=delimiter)
        if table_name is not None:
            self.create_table(table_name, loaded_schema, rows)
            return self.table(table_name)
        return self.create_dataframe(rows, loaded_schema)

    def table(self, name: str) -> "DataFrame":
        from ..plan.logical import SubqueryAlias, UnresolvedRelation
        from .dataframe import DataFrame
        self.catalog.lookup(name)  # fail fast on unknown tables
        return DataFrame(SubqueryAlias(name, UnresolvedRelation(name)), self)

    # -- statistics ---------------------------------------------------------

    def table_stats(self, name: str) -> TableStats:
        """Statistics of a registered table, collected on each call.

        A columnar session collects them off the table's resident
        columns (building them if they are not current, so its first
        scan finds them); a row-plane session reads those columns only
        if they are current, and otherwise loops over the rows.

        >>> from repro import SkylineSession, INTEGER
        >>> session = SkylineSession()
        >>> _ = session.create_table(
        ...     "t", [("a", INTEGER, False)], [(1,), (2,), (3,)])
        >>> session.table_stats("t").num_rows
        3
        >>> session.table_stats("t").column("a").max_value
        3
        """
        table = self.catalog.lookup(name)
        batch = table.column_batch()[0] if self.columnar \
            else table.resident_batch()
        rows = batch.to_rows() if batch is not None else table.rows
        return collect_table_stats(
            table.name, [f.name for f in table.schema], rows, batch=batch)

    # -- the pipeline -------------------------------------------------------------

    def sql(self, query: str) -> "DataFrame":
        """Parse a SQL statement into a DataFrame.

        Accepts the skyline-extended ``SELECT`` grammar (Listing 5 of
        the paper).

        The DataFrame remembers ``query``: its ``run()`` goes through
        the catalog's plan cache (:meth:`planned`), so repeated SQL
        text is parsed and planned once.  Parsing is skipped here too
        when the statement is cached; a statement that does not parse
        raises here either way.
        """
        from .dataframe import DataFrame
        entry = self.catalog.plans.peek(self._plan_key(query))
        plan = entry.parsed if entry is not None else parse_query(query)
        return DataFrame(plan, self, sql=query)

    def _plan_key(self, sql: str) -> tuple:
        """The plan cache's key of ``sql`` for this session: its text,
        every planning setting, the transport the plan is stamped with
        and the catalog schema version the plan is valid for.  A
        prepared plan holds tables, not snapshots, and no planning
        decision reads the data, so it outlives DML."""
        return (sql, self._planner().settings_key(),
                self.enable_skyline_optimizations, self._transport_mode(),
                self.catalog.schema_version)

    def planned(self, sql: str,
                parsed: "LogicalPlan | None" = None) -> CachedPlan:
        """``sql`` through the catalog's plan cache: the stored entry,
        or -- parsed (unless ``parsed`` is its parse) and prepared -- a
        new one.  Every session on the catalog shares the cache; the
        serving layer's :class:`~repro.serve.catalog.CatalogService`
        goes through here too."""
        key = self._plan_key(sql)
        plans = self.catalog.plans
        entry = plans.get(key)
        if entry is None:
            plan = parsed if parsed is not None else parse_query(sql)
            entry = CachedPlan(plan, self.prepare(plan))
            plans.put(key, entry)
        return entry

    def analyze(self, plan: LogicalPlan) -> LogicalPlan:
        return Analyzer(self.catalog).analyze(plan)

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        optimizer = Optimizer(
            self.catalog,
            enable_skyline_rules=self.enable_skyline_optimizations)
        return optimizer.optimize(plan)

    def _planner(self) -> Planner:
        """A planner wired to this session's settings."""
        return Planner(
            self.skyline_algorithm,
            num_executors=self.cluster_config.num_executors,
            vectorized=self.vectorized,
            columnar=self.columnar)

    # -- shared-memory transport ------------------------------------------

    def _transport_mode(self) -> "str | None":
        """How batch partitions travel to workers on the process
        backend's batch plane: ``"shm"`` where the platform serves
        segments, else ``"pickle"``; ``None`` elsewhere (in-process
        backends never serialise batches)."""
        if self._backend_spec.name != "process" \
                or not self.columnar:
            return None
        from ..engine.shm import shared_memory_available
        return "shm" if shared_memory_available() else "pickle"

    def _mark_transport(self, physical) -> None:
        """Stamp the per-stage transport marker EXPLAIN renders."""
        transport = self._transport_mode()
        if transport is None:
            return
        for node in physical.iter_tree():
            if node.exec_mode == "batch":
                node.transport = transport

    def _shared_store(self):
        """This session's :class:`~repro.engine.shm.SharedColumnStore`
        (created lazily, ``None`` when the transport is not shm)."""
        if self._transport_mode() != "shm":
            return None
        if self._shm_store is None or self._shm_store.closed:
            from ..engine.shm import SharedColumnStore
            self._shm_store = SharedColumnStore()
        return self._shm_store

    def shm_stats(self) -> "dict | None":
        """Counters of this session's shared-memory store (segments,
        handles served, pickle fallbacks by reason); ``None`` while the
        session has none."""
        return None if self._shm_store is None else self._shm_store.stats()

    def prepare(self, plan: LogicalPlan) -> PreparedQuery:
        """Run analysis, optimization, and physical planning only.

        The returned :class:`PreparedQuery` can be executed repeatedly
        via :meth:`execute_prepared`; the catalog's plan cache stores
        prepared queries across sessions with an equal plan key
        (:meth:`planned`).
        """
        analyzed = self.analyze(plan)
        optimized = self.optimize(analyzed)
        planner = self._planner()
        physical = planner.plan(optimized)
        self._mark_transport(physical)
        schema = Schema([Field(a.name, a.dtype, a.nullable)
                         for a in physical.output])
        return PreparedQuery(physical=physical, schema=schema,
                             decisions=planner.decisions,
                             optimized=optimized)

    def execute_prepared(self, prepared: PreparedQuery) -> QueryResult:
        """Execute a prepared physical plan on a fresh context."""
        store = self._shared_store()
        ctx = ExecutionContext(self.cluster_config, backend=self.backend,
                               retry_policy=self.config.retry_policy(),
                               shm_store=store)
        ctx.set_budget(self.config.time_budget_s)
        ctx.mark_execution_start()
        try:
            rdd = prepared.physical.execute(ctx)
            rows = [Row(values, prepared.schema)
                    for values in rdd.collect()]
        finally:
            if store is not None:
                ctx.shm_stats = store.stats()
        return QueryResult(rows=rows, schema=prepared.schema, context=ctx)

    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Run the full pipeline on a logical plan."""
        return self.execute_prepared(self.prepare(plan))

    def cached_result(self, rows: list[Row],
                      schema: Schema) -> QueryResult:
        """A result carrying rows that were *not* produced by executing
        a plan (the serving layer's cache hits): the context records no
        stages, so its time and memory metrics are all zero."""
        ctx = ExecutionContext(self.cluster_config, backend=self.backend)
        return QueryResult(rows=rows, schema=schema, context=ctx,
                           cache_hit=True)

    def explain(self, plan: LogicalPlan) -> str:
        """Analyzed, optimized and physical plans as a printable string.

        Skyline queries additionally get a ``== Skyline Strategy ==``
        section reporting the chosen algorithm and the partitions its
        local stage runs on, each with its reason.
        """
        analyzed = self.analyze(plan)
        optimized = self.optimize(analyzed)
        planner = self._planner()
        physical = planner.plan(optimized)
        self._mark_transport(physical)
        sections = [
            "== Analyzed Logical Plan ==",
            tree_string(analyzed),
            "== Optimized Logical Plan ==",
            tree_string(optimized),
            "== Physical Plan ==",
            physical_tree_string(physical),
        ]
        if planner.decisions:
            sections.append("== Skyline Strategy ==")
            sections.extend(d.describe() for d in planner.decisions)
        return "\n".join(sections)


def connect(config: SessionConfig | None = None,
            **options) -> SkylineSession:
    """Create a :class:`SkylineSession` -- the stable top-level entry
    point (re-exported as :func:`repro.connect`).

    Keyword arguments are :class:`~repro.api.config.SessionConfig`
    fields; pass a pre-built config positionally instead (options then
    override its fields).

    >>> import repro
    >>> repro.connect(num_executors=4).cluster_config.num_executors
    4
    >>> repro.connect(skyline_algorithm="sfs").skyline_algorithm
    'sfs'
    """
    config = config or SessionConfig()
    if options:
        config = config.with_options(**options)
    return SkylineSession(config=config)
