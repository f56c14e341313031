"""Physical operators.

Each operator consumes and produces an :class:`~repro.engine.rdd.RDD`
of row tuples or, on the batch plane, a ``BatchRDD`` of column batches
(``exec_mode``), recording per-partition task metrics in the
:class:`~repro.engine.cluster.ExecutionContext` so the simulated cluster
can derive distributed execution times and memory peaks.

The skyline operators implement the two-node split of Section 5.5: a
*local* node that runs on every partition in parallel and a *global*
node that requires the ``AllTuples`` distribution (one partition).  For
incomplete data the local node uses the null-bitmap distribution of
Section 5.7 and the global node uses flag-based all-pairs testing.

**Stage fusion.**  Scans, filters and projections are narrow
dependencies, so -- like Catalyst putting them into one stage -- they
never open a stage of their own: a maximal ``Scan -> (Filter |
Project)*`` chain compiles into one picklable map body
(:func:`_map_task`).  Under a ``complete``/``sfs`` local skyline the
body runs *inside* the local task (one task per partition: slice in,
local skyline out); where the consumer needs every row first it runs as
one fused map stage, named after the chain's top operator.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Sequence

import numpy as np

from ..core.dominance import BoundDimension
from ..core.vectorized import pack_by_null_bitmap, skyline_task
from ..engine import expressions as E
from ..engine import relational as R
from ..engine.backends import StageTask
from ..engine.batch import F8, Column, ColumnBatch
from ..engine.catalog import table_fingerprint
from ..engine.cluster import ExecutionContext
from ..engine.rdd import RDD, BatchRDD, partition_bounds
from ..errors import ExecutionError
from . import logical as L


def _rows_rdd(result: "RDD | BatchRDD") -> RDD:
    """A row RDD view of an operator's output (no-op for row RDDs): what
    the row-only operators (sort, nested-loop join) and a batch
    operator's row-body fallback read.  The conversion is exact."""
    if isinstance(result, BatchRDD):
        return result.to_row_rdd()
    return result


def _partitions(result: "RDD | BatchRDD") -> list:
    """An operator's output partitions: batches or row lists."""
    return result.batches if isinstance(result, BatchRDD) \
        else result.partitions


_node_ids = itertools.count(1)


class PhysicalScalarSubquery(E.LeafExpression):
    """A scalar subquery lowered to a physical plan.

    The planner substitutes these for
    :class:`~repro.engine.expressions.ScalarSubquery`.  The value is
    per execution, never kept on the plan (a cached plan re-executes
    after DML): :meth:`_NarrowExec.chain_inputs` runs the subplan on
    the execution's context and hands that execution's specs a literal
    in its place (:func:`_bind_subqueries`).
    """

    def __init__(self, plan: "PhysicalPlan") -> None:
        self.plan = plan
        self._dtype = plan.output[0].dtype

    @property
    def resolved(self) -> bool:
        return True

    @property
    def dtype(self):
        return self._dtype

    def value(self, ctx: ExecutionContext) -> Any:
        """The subquery's single value on ``ctx`` (``None`` when empty)."""
        rows = self.plan.execute(ctx).collect()
        if len(rows) > 1:
            raise ExecutionError(
                f"scalar subquery returned {len(rows)} rows")
        return rows[0][0] if rows else None

    def eval(self, row: tuple) -> Any:
        raise ExecutionError(
            "scalar subquery evaluated outside a filter or projection")

    def __repr__(self) -> str:
        return "PhysicalScalarSubquery(...)"


def _has_subquery(spec: tuple) -> bool:
    """True when a narrow operator's ``spec`` reads a scalar subquery."""
    return any(isinstance(node, PhysicalScalarSubquery)
               for expr in spec[1] for node in expr.iter_tree())


def _bind_subqueries(spec: tuple, ctx: ExecutionContext) -> tuple:
    """``spec`` with every scalar subquery replaced by a literal of its
    value on ``ctx``: one execution's copy, the plan's own stays as
    planned."""
    if not _has_subquery(spec):
        return spec

    def step(node: E.Expression) -> E.Expression:
        if isinstance(node, PhysicalScalarSubquery):
            return E.Literal(node.value(ctx), node.dtype)
        return node

    kind, exprs = spec
    return kind, tuple(expr.transform_up(step) for expr in exprs)


class PhysicalPlan:
    """Base class of physical operators."""

    children: tuple["PhysicalPlan", ...] = ()

    #: How this operator's partitions travel to process-backend
    #: workers: ``"shm"`` (shared-memory handles), ``"pickle"`` (by
    #: value), or ``None`` (not applicable / not a process backend).
    #: Stamped onto batch-mode operators by the session before
    #: EXPLAIN/execution; purely informational.
    transport: "str | None" = None

    def __init__(self) -> None:
        self.node_id = next(_node_ids)

    @property
    def output(self) -> list[E.AttributeReference]:
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        raise NotImplementedError

    @property
    def exec_mode(self) -> str:
        """Partition representation this operator emits.

        ``batch`` operators exchange :class:`ColumnBatch`es (the
        columnar data plane), ``row`` operators exchange row-tuple
        lists.  Reported per operator by ``EXPLAIN``.
        """
        return "row"

    def _mode_tag(self) -> str:
        tag = f" [{self.exec_mode}]"
        if self.transport is not None and self.exec_mode == "batch":
            tag += f" [{self.transport}]"
        return tag

    @property
    def fuses_child(self) -> bool:
        """True when this operator executes in the same stage as its
        first child (stage fusion); ``EXPLAIN`` numbers stages by it
        and ``execute`` follows it, so the two cannot drift."""
        return False

    def stage_name(self, suffix: str = "") -> str:
        base = f"{type(self).__name__}-{self.node_id}"
        return f"{base}{suffix}"

    def iter_tree(self):
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def __repr__(self) -> str:
        return physical_tree_string(self)

    def node_description(self) -> str:
        return type(self).__name__


def stage_numbers(plan: PhysicalPlan) -> dict[int, int]:
    """``node_id`` -> number of the stage the operator executes in,
    counted in execution order (children first); operators fused into
    one stage share a number."""
    numbers: dict[int, int] = {}
    fresh = itertools.count(1)

    def visit(node: PhysicalPlan) -> None:
        for child in node.children:
            visit(child)
        numbers[node.node_id] = numbers[node.children[0].node_id] \
            if node.fuses_child else next(fresh)

    visit(plan)
    return numbers


def physical_tree_string(plan: PhysicalPlan) -> str:
    """The operator tree, each node marked ``*(N)`` with the stage it
    executes in -- the way Spark marks whole-stage chains."""
    numbers = stage_numbers(plan)

    def render(node: PhysicalPlan, indent: int) -> list[str]:
        lines = ["  " * indent + f"*({numbers[node.node_id]}) "
                 + node.node_description()]
        for child in node.children:
            lines.extend(render(child, indent + 1))
        return lines

    return "\n".join(render(plan, 0))


# ---------------------------------------------------------------------------
# Narrow operators: scan, filter, project -- fused into one map body
# ---------------------------------------------------------------------------


def _true_rows(verdict: Column):
    """Where a predicate's verdict is TRUE (not FALSE, not NULL)."""
    if verdict.is_array:
        return verdict.data if verdict.mask is None \
            else (verdict.data & ~verdict.mask)
    return [v is True for v in verdict.data]


def _filter_batch(batch: ColumnBatch,
                  condition: E.Expression) -> ColumnBatch:
    """One batch filtered to the rows where ``condition`` is TRUE."""
    return batch.compress(_true_rows(condition.eval_batch(batch)))


def _map_task(partition, specs):
    """Apply a fused filter/project chain to one partition (a batch or
    a row list).  ``specs`` are ``(kind, expressions)`` pairs, bottom
    up: a ``"filter"`` carries its one condition, a ``"project"`` its
    projection list.  Top-level and plain-data, hence shippable to
    process-pool workers."""
    on_batches = isinstance(partition, ColumnBatch)
    for kind, exprs in specs:
        if kind == "filter" and on_batches:
            partition = _filter_batch(partition, exprs[0])
        elif kind == "filter":
            predicate = exprs[0].eval
            partition = [row for row in partition
                         if predicate(row) is True]
        elif on_batches:
            partition = ColumnBatch([e.eval_batch(partition) for e in exprs],
                                    num_rows=partition.num_rows)
        else:
            evaluators = [e.eval for e in exprs]
            partition = [tuple(ev(row) for ev in evaluators)
                         for row in partition]
    return partition


def _local_skyline_task(partition, specs, dims, mode, distinct, vectorized,
                         check_deadline=None):
    """One partition's local skyline, computed where the partition is:
    the fused filter/project chain (``specs``, possibly empty) and then
    :func:`~repro.core.vectorized.skyline_task` over what it lets
    through.  A scalar operator drops to rows first (honouring
    ``vectorized=False`` even in a columnar session)."""
    partition = _map_task(partition, specs)
    if not vectorized and isinstance(partition, ColumnBatch):
        partition = partition.to_rows()
    return skyline_task(partition, dims, mode, distinct, vectorized,
                        check_deadline=check_deadline)


def _read_columns(specs: tuple, width: int) -> "list[int] | None":
    """Ordinals of the scan columns a chain reads, or ``None`` when
    narrowing the scan would not pay or is not possible: a chain
    without a projection emits the scan's own schema (every column is
    output), and one that reads every column has nothing to drop."""
    exprs: list[E.Expression] = []
    for kind, payload in specs:
        exprs.extend(payload)
        if kind == "project":
            break
    else:
        return None
    read = sorted({node.index for expr in exprs for node in expr.iter_tree()
                   if isinstance(node, E.BoundReference)})
    return read if len(read) < width else None


def _rebind(specs: tuple, columns: list[int]) -> tuple:
    """``specs`` reading a batch narrowed to ``columns``: the
    ``BoundReference``s up to and including the first projection (the
    ones that index the scan's schema) move to the narrowed ordinals."""
    position = {old: new for new, old in enumerate(columns)}

    def rebind(node: E.Expression) -> E.Expression:
        if isinstance(node, E.BoundReference):
            return E.BoundReference(position[node.index], node.dtype,
                                    node.nullable, node.name)
        return node

    rebound = []
    for i, (kind, exprs) in enumerate(specs):
        rebound.append((kind, tuple(e.transform_up(rebind) for e in exprs)))
        if kind == "project":
            return tuple(rebound) + specs[i + 1:]
    return tuple(rebound)


def _resident(holder, store, token) -> "list | None":
    """The batches ``holder`` (an operator of a prepared plan) keeps
    under ``token``, pinned in ``store`` when there is one; ``None``
    when it holds none or they are stale."""
    kept = holder._kept  # one read: a concurrent run may replace it
    if kept is None or kept[0] != token:
        return None
    if store is not None:
        store.pin(kept[1])  # idempotent; re-pins after a close
    return kept[1]


def _keep_resident(holder, store, token, batches: list) -> None:
    """Keep ``batches`` on ``holder`` under ``token``, pinned in
    ``store`` when there is one, releasing there what it held before
    (stale after DML; a stage still shipping them keeps them until it
    ends, another session's store once they are garbage collected)."""
    previous = holder._kept
    if store is not None:
        store.pin(batches)
    holder._kept = (token, batches)
    if previous is not None and store is not None:
        store.unpin(previous[1])


class _NarrowExec(PhysicalPlan):
    """Scan, filter and project: per-partition operators without a
    stage of their own.

    ``execute`` on any of them runs the whole chain beneath it -- down
    to its *source*, the first operator that is not a filter or a
    projection -- as ONE map stage of :func:`_map_task` tasks, named
    after the operator it was called on.  A consumer that can fuse the
    chain into its own tasks (:class:`SkylineLocalExec`) takes
    :meth:`chain_inputs` instead and opens no stage for it at all.
    """

    #: ``(kind, expressions)`` this operator contributes to the fused
    #: map body; ``None`` for the scan (it *is* the input).
    spec: "tuple | None" = None

    @property
    def fuses_child(self) -> bool:
        return bool(self.children) and \
            isinstance(self.children[0], _NarrowExec)

    def chain_inputs(self, ctx: ExecutionContext, resident: bool = False
                     ) -> "tuple[list, tuple]":
        """``(partitions, specs)`` of the chain topped by this operator.

        Scalar subqueries are evaluated here, in the driver, before any
        task ships, into this execution's ``specs``.  A columnar scan
        source is cut into zero-copy slices of the table's resident
        columns, narrowed to the columns the chain reads with ``specs``
        rebound to match (``resident``: see :meth:`ScanExec.slices`).
        Any other source is executed and hands over its partitions.
        """
        specs = []
        source: PhysicalPlan = self
        while isinstance(source, _NarrowExec) and source.spec is not None:
            specs.append(_bind_subqueries(source.spec, ctx))
            source = source.children[0]
        specs = tuple(reversed(specs))
        if not isinstance(source, ScanExec):
            return _partitions(source.execute(ctx)), specs
        if not source.columnar:
            rows = list(source.rows)  # an atomic snapshot
            return [rows[start:stop] for start, stop in partition_bounds(
                len(rows), ctx.config.default_parallelism)], specs
        columns = _read_columns(specs, len(source.output))
        if columns is not None:
            specs = _rebind(specs, columns)
        return source.slices(ctx, columns, resident), specs

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        partitions, specs = self.chain_inputs(ctx)
        on_batches = self.exec_mode == "batch"
        # Closure-only tasks: a process backend runs them in the driver.
        # Everything a standalone map lets through would have to come
        # back by value, which costs more than the map itself (a plain
        # filter/project query measured 1.2-1.5x slower shipped).
        tasks = [StageTask(
            partition=i, rows_in=len(partition),
            bytes_in=partition.nbytes if on_batches else 0,
            fn=functools.partial(_map_task, partition, specs))
            for i, partition in enumerate(partitions)]
        results = ctx.run_stage(self.stage_name(), tasks)
        return BatchRDD(results) if on_batches else RDD(results)


class ScanExec(_NarrowExec):
    """Read a catalog table, split over the default parallelism.

    With ``columnar=True`` (the session's batch data plane) the scan
    emits zero-copy slices of the table's resident :class:`ColumnBatch`
    (:meth:`~repro.engine.catalog.Table.column_batch`: columnized once
    per data version, not per query) at the
    :func:`~repro.engine.rdd.partition_bounds` a row scan cuts at, and
    downstream batch-capable operators exchange batches.
    """

    def __init__(self, rows: list[tuple],
                 output: list[E.AttributeReference],
                 description: str = "scan",
                 columnar: bool = False,
                 table=None) -> None:
        super().__init__()
        self.rows = rows
        self._output = output
        self.description = description
        self.columnar = columnar
        #: The catalog :class:`~repro.engine.catalog.Table` behind
        #: ``rows`` (``None``: a literal relation, columnized per run).
        self.table = table
        #: ``(token, slices)`` kept for re-executions; see :meth:`slices`.
        self._kept: "tuple | None" = None

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    @property
    def exec_mode(self) -> str:
        return "batch" if self.columnar else "row"

    def token(self, ctx: ExecutionContext) -> tuple:
        """What the scan's partitions -- and anything deterministically
        derived from them -- are valid for: one
        :func:`table_fingerprint` (the resident columns' own token, so
        catalog DML invalidates both together) plus the parallelism."""
        return (table_fingerprint(self.table or self),
                ctx.config.default_parallelism)

    def slices(self, ctx: ExecutionContext,
               columns: "list[int] | None" = None,
               resident: bool = False) -> list[ColumnBatch]:
        """One zero-copy slice of the scanned columns per partition
        (only ``columns``, when given), counted into ``ctx.scan``.

        ``resident`` is asked for by a consumer whose tasks ship these
        slices to process workers.  When the context has a shm store
        (:class:`~repro.engine.shm.SharedColumnStore`) the slices are then
        pinned in the store and kept on the plan, so re-executions of a
        prepared query hand out the *same* objects and ship handles to
        the same segments instead of copying them again -- for as long
        as :meth:`token` holds (DML releases the stale segments).
        """
        store = ctx.shm_store if resident else None
        if store is not None and store.closed:
            store = None
        token = self.token(ctx)
        slices = _resident(self, store, token)
        if slices is not None:
            ctx.scan["resident_rows"] += sum(map(len, slices))
            return slices
        if self.table is not None:
            whole, built = self.table.column_batch()
        else:
            whole = ColumnBatch.from_rows(list(self.rows),
                                          len(self._output))
            built = True
        ctx.scan["columnized_rows" if built
                 else "resident_rows"] += len(whole)
        if columns is not None:
            whole = whole.select(columns)
        slices = [whole.slice(start, stop) for start, stop in
                  partition_bounds(whole.num_rows,
                                   ctx.config.default_parallelism)]
        if store is not None:
            _keep_resident(self, store, token, slices)
        return slices

    def node_description(self) -> str:
        return f"Scan({self.description}, {len(self.rows)} rows)" \
            + self._mode_tag()


class FilterExec(_NarrowExec):
    def __init__(self, condition: E.Expression, child: PhysicalPlan) -> None:
        super().__init__()
        self.children = (child,)
        self.condition = E.bind_expression(condition, child.output)
        self.spec = ("filter", (self.condition,))

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.children[0].output

    @property
    def exec_mode(self) -> str:
        return self.children[0].exec_mode

    def node_description(self) -> str:
        return f"Filter({self.condition!r})" + self._mode_tag()


class ProjectExec(_NarrowExec):
    def __init__(self, projections: Sequence[E.Expression],
                 child: PhysicalPlan) -> None:
        super().__init__()
        self.children = (child,)
        self._output = [E.named_output(p) for p in projections]
        self.projections = [E.bind_expression(p, child.output)
                            for p in projections]
        self.spec = ("project", tuple(self.projections))

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    @property
    def exec_mode(self) -> str:
        return self.children[0].exec_mode

    def node_description(self) -> str:
        return "Project" + self._mode_tag()


def _relational_mode(self: PhysicalPlan) -> str:
    """``exec_mode`` of the operators with array kernels (join,
    aggregate, distinct, limit).  Static: batch children mean batch
    output, also when a kernel turns out ``Inexact`` at run time -- the
    operator then runs its row body and re-columnizes the result."""
    if all(c.exec_mode == "batch" for c in self.children):
        return "batch"
    return "row"


class LimitExec(PhysicalPlan):
    exec_mode = property(_relational_mode)

    def __init__(self, limit: int, child: PhysicalPlan) -> None:
        super().__init__()
        self.children = (child,)
        self.limit = limit

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.children[0].output

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        child_out = self.children[0].execute(ctx)
        on_batches = self.exec_mode == "batch"
        if on_batches:
            # Slices of the leading partitions, in order.
            pieces, wanted = [], self.limit
            for batch in child_out.batches:
                pieces.append(batch.slice(0, wanted))
                wanted -= len(pieces[-1])
                if wanted <= 0:
                    break
            rows = ColumnBatch.concat(pieces)
        else:
            rows = _rows_rdd(child_out).collect()[:self.limit]
        stage = self.stage_name()
        ctx.stage(stage, parallelizable=False)
        ctx.run_task(stage, 0, lambda: rows, len(rows), parallelizable=False,
                     kernel="vectorized" if on_batches else "scalar")
        return BatchRDD([rows]) if on_batches else RDD([rows])

    def node_description(self) -> str:
        return f"Limit({self.limit})" + self._mode_tag()


class SortExec(PhysicalPlan):
    def __init__(self, order: Sequence[L.SortOrder],
                 child: PhysicalPlan) -> None:
        super().__init__()
        self.children = (child,)
        self.order = [o.copy(child=E.bind_expression(o.child, child.output))
                      for o in order]

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.children[0].output

    def execute(self, ctx: ExecutionContext) -> RDD:
        child_rdd = _rows_rdd(self.children[0].execute(ctx))
        stage = self.stage_name()
        ctx.record_shuffle(stage, child_rdd.count())
        comparator = _build_comparator(self.order)

        def task():
            return sorted(child_rdd.collect(),
                          key=functools.cmp_to_key(comparator))

        rows = ctx.run_task(stage, 0, task, child_rdd.count(),
                            parallelizable=False)
        return RDD([rows])

    def node_description(self) -> str:
        return "SortExec" + self._mode_tag()


def _compare_values(a: Any, b: Any) -> int:
    """Ascending order of two non-null values, Spark's NaN rule
    included: NaN equals NaN and is greater than every other number, so
    the order stays total on DOUBLE columns that hold NaN."""
    a_nan, b_nan = a != a, b != b
    if a_nan or b_nan:
        return a_nan - b_nan
    return 0 if a == b else (-1 if a < b else 1)


def _build_comparator(order: Sequence[L.SortOrder]
                      ) -> Callable[[tuple, tuple], int]:
    def comparator(a: tuple, b: tuple) -> int:
        for spec in order:
            av = spec.child.eval(a)
            bv = spec.child.eval(b)
            if av is None and bv is None:
                continue
            if av is None:
                return -1 if spec.nulls_first else 1
            if bv is None:
                return 1 if spec.nulls_first else -1
            result = _compare_values(av, bv)
            if result:
                return result if spec.ascending else -result
        return 0

    return comparator


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class HashAggregateExec(PhysicalPlan):
    """Hash aggregation over grouping keys.

    The output expressions may be arbitrary trees over grouping
    expressions and aggregate functions; they are rewritten onto an
    internal layout ``(grouping values..., aggregate results...)`` and
    evaluated per group.
    """

    exec_mode = property(_relational_mode)

    def __init__(self, grouping: Sequence[E.Expression],
                 aggregates: Sequence[E.Expression],
                 child: PhysicalPlan) -> None:
        super().__init__()
        self.children = (child,)
        self._output = [E.named_output(a) for a in aggregates]
        self.grouping = [E.bind_expression(g, child.output)
                         for g in grouping]
        self._grouping_sql = [g.sql() for g in grouping]

        # Collect distinct aggregate functions appearing in the output.
        agg_functions: list[E.AggregateFunction] = []
        agg_sql: list[str] = []
        for expr in aggregates:
            for node in expr.iter_tree():
                if isinstance(node, E.AggregateFunction) and \
                        node.sql() not in agg_sql:
                    agg_sql.append(node.sql())
                    agg_functions.append(node)
        self.agg_functions = [
            type(f)(E.bind_expression(f.child, child.output), f.is_distinct)
            for f in agg_functions]
        self._agg_sql = agg_sql

        # Rewrite output expressions onto the internal layout.
        internal_width = len(grouping) + len(agg_sql)
        self.result_exprs = [
            self._rewrite_output(expr, grouping, internal_width)
            for expr in aggregates]

    def _rewrite_output(self, expr: E.Expression,
                        grouping: Sequence[E.Expression],
                        width: int) -> E.Expression:
        grouping_sql = self._grouping_sql
        agg_sql = self._agg_sql

        def step(node: E.Expression) -> E.Expression:
            if isinstance(node, E.AggregateFunction):
                index = len(grouping_sql) + agg_sql.index(node.sql())
                return E.BoundReference(index, node.dtype, True)
            if isinstance(node, E.AttributeReference):
                # Must be a grouping column.
                for i, g in enumerate(grouping):
                    if isinstance(g, E.AttributeReference) and \
                            g.expr_id == node.expr_id:
                        return E.BoundReference(i, node.dtype, node.nullable)
                raise ExecutionError(
                    f"non-grouping attribute {node!r} in aggregate output")
            if node.sql() in grouping_sql:
                index = grouping_sql.index(node.sql())
                return E.BoundReference(index, node.dtype, True)
            return node

        def rewrite(node: E.Expression) -> E.Expression:
            replaced = step(node)
            if replaced is not node:
                return replaced
            if node.children:
                return node.with_children(
                    [rewrite(c) for c in node.children])
            return node

        return rewrite(expr)

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        child_out = self.children[0].execute(ctx)
        stage = self.stage_name()
        ctx.record_shuffle(stage, child_out.count())
        on_batches = self.exec_mode == "batch"
        fell_back = []

        def task():
            if on_batches:
                try:
                    return self._aggregate_batches(child_out.batches)
                except R.Inexact as exc:
                    fell_back.append(exc.reason)
            rows = self._aggregate_rows(_rows_rdd(child_out).iter_rows())
            return ColumnBatch.from_rows(rows, len(self._output)) \
                if on_batches else rows

        out = ctx.run_task(stage, 0, task, child_out.count(),
                           parallelizable=False,
                           kernel="vectorized" if on_batches else "scalar")
        if fell_back:
            ctx.note_fallback(stage, fell_back[0])
        return BatchRDD([out]) if on_batches else RDD([out])

    def _aggregate_rows(self, rows) -> list[tuple]:
        grouping_evals = [g.eval for g in self.grouping]
        functions = self.agg_functions
        groups: dict[tuple, list[Any]] = {}
        #: (group key, function) -> values a DISTINCT function has seen.
        seen: dict[tuple, set] = {}
        for row in rows:
            key = tuple(ev(row) for ev in grouping_evals)
            state = groups.get(key)
            if state is None:
                state = [f.initial() for f in functions]
                groups[key] = state
            for i, f in enumerate(functions):
                value = f.child.eval(row)
                if f.is_distinct and value is not None:
                    values = seen.setdefault((key, i), set())
                    if value in values:
                        continue
                    values.add(value)
                state[i] = f.update(state[i], value)
        if not groups and not self.grouping:
            # Global aggregate over the empty input: one null row
            # (count() handles its own zero via initial()).
            groups[()] = [f.initial() for f in functions]
        result = []
        for key, state in groups.items():
            internal = key + tuple(
                f.result(acc) for f, acc in zip(functions, state))
            result.append(tuple(expr.eval(internal)
                                for expr in self.result_exprs))
        return result

    def _aggregate_batches(self, batches: list[ColumnBatch]) -> ColumnBatch:
        """Factorised group ids (first-seen order), one grouped reduction
        per function, then the output expressions over the internal batch."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return ColumnBatch.from_rows(self._aggregate_rows(()),
                                         len(self._output))

        def evaluated(expr: E.Expression) -> Column:
            return Column.concat([expr.eval_batch(b) for b in batches])

        keys = [evaluated(g) for g in self.grouping]
        ids, first = R.group_ids([R.key_array(k) for k in keys],
                                 sum(map(len, batches)))
        internal = ColumnBatch(
            [k.take(first) for k in keys]
            + [R.aggregate(f.name, f.is_distinct, evaluated(f.child), ids,
                           len(first)) for f in self.agg_functions],
            num_rows=len(first))
        return ColumnBatch([expr.eval_batch(internal)
                            for expr in self.result_exprs],
                           num_rows=len(first))

    def node_description(self) -> str:
        keys = ", ".join(self._grouping_sql)
        return f"HashAggregate(keys=[{keys}])" + self._mode_tag()


class DistinctExec(HashAggregateExec):
    """``SELECT DISTINCT``: a grouping on every column with no aggregate
    function -- first occurrences, in first-seen order."""

    def __init__(self, child: PhysicalPlan) -> None:
        super().__init__(child.output, child.output, child)

    def node_description(self) -> str:
        return "Distinct" + self._mode_tag()


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


_OUTER_JOINS = (L.JoinType.LEFT_OUTER, L.JoinType.RIGHT_OUTER,
                L.JoinType.FULL_OUTER)


class HashJoinExec(PhysicalPlan):
    """Equi-join via a broadcast hash table on the right side."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan,
                 join_type: str,
                 left_keys: Sequence[E.Expression],
                 right_keys: Sequence[E.Expression],
                 residual: E.Expression | None,
                 output: list[E.AttributeReference]) -> None:
        super().__init__()
        self.children = (left, right)
        self.join_type = join_type
        self.left_keys = [E.bind_expression(k, left.output)
                          for k in left_keys]
        self.right_keys = [E.bind_expression(k, right.output)
                           for k in right_keys]
        combined = list(left.output) + list(right.output)
        self.residual = E.bind_expression(residual, combined) \
            if residual is not None else None
        self._output = output

    exec_mode = property(_relational_mode)

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        left_out = self.children[0].execute(ctx)
        right_out = self.children[1].execute(ctx)
        stage = self.stage_name()
        ctx.record_shuffle(stage, right_out.count())
        reason = None
        if self.exec_mode == "batch":
            try:
                return BatchRDD(self._join_batches(
                    ctx, stage, left_out.batches, right_out.concat()))
            except R.Inexact as exc:
                # Raised while the keys are prepared: no task has run.
                reason = exc.reason
        partitions = self._join_rows(
            ctx, stage, _rows_rdd(left_out).partitions, right_out.collect())
        if reason is None:
            return RDD(partitions)
        ctx.note_fallback(stage, reason)
        return BatchRDD([ColumnBatch.from_rows(rows, len(self._output))
                         for rows in partitions])

    # -- batch plane: key arrays -> codes -> index arrays -> gathers -------

    def _join_batches(self, ctx: ExecutionContext, stage: str,
                      lefts: list[ColumnBatch], right: ColumnBatch
                      ) -> list[ColumnBatch]:
        """The row join's partitions, as batches: one probe task per left
        batch against the build side prepared here; FULL OUTER's unmatched
        right rows trail; RIGHT OUTER is one task probing from the right."""
        from_right = self.join_type == L.JoinType.RIGHT_OUTER
        if from_right:
            lefts = [ColumnBatch.concat(lefts)]
        keys = []  # per key column: one (data, null) per batch, right last
        for left_key, right_key in zip(self.left_keys, self.right_keys):
            columns = [left_key.eval_batch(batch) for batch in lefts] \
                + [right_key.eval_batch(right)]
            as_float = any(c.kind == F8 for c in columns if len(c))
            keys.append([R.key_array(c, as_float) for c in columns])
        codes, size = R.join_codes(
            keys[0] if len(keys) == 1 else R.joint_codes(keys),
            build=0 if from_right else -1)
        *left_codes, right_codes = codes
        if from_right:
            task = functools.partial(
                self._probe, right, right_codes, R.with_null_row(lefts[0]),
                R.join_build(left_codes[0], size), None)
            return [ctx.run_task(stage, 0, task, len(right),
                                 parallelizable=False, kernel="vectorized")]
        build = R.join_build(right_codes, size)
        build_side = R.with_null_row(right) \
            if self.join_type in _OUTER_JOINS else right
        matched = np.zeros(len(right), dtype=bool) \
            if self.join_type == L.JoinType.FULL_OUTER else None
        results = ctx.run_stage(stage, [
            StageTask(partition=i, rows_in=len(batch), kernel="vectorized",
                      fn=functools.partial(self._probe, batch, batch_codes,
                                           build_side, build, matched))
            for i, (batch, batch_codes) in enumerate(zip(lefts, left_codes))])
        if matched is not None and not matched.all():
            tail = right.compress(~matched)
            results.append(ColumnBatch(
                [Column.nulls(len(tail)) for _ in self.children[0].output]
                + tail.columns, num_rows=len(tail)))
        return results

    def _probe(self, probe: ColumnBatch, codes, build_side: ColumnBatch,
               build: tuple, matched) -> ColumnBatch:
        """One probe task.  As in the row loop, the residual predicate
        runs over the candidate pairs before the outer-null fill and the
        semi/anti verdicts; ``matched`` collects FULL OUTER's paired rows."""
        join_type = self.join_type

        def combined(probe_rows: ColumnBatch, build_rows: ColumnBatch):
            left, right = (build_rows, probe_rows) \
                if join_type == L.JoinType.RIGHT_OUTER \
                else (probe_rows, build_rows)
            return ColumnBatch(left.columns + right.columns,
                               num_rows=len(probe_rows))

        rows, others = R.join_indices(codes, build)
        if self.residual is not None:
            keep = np.asarray(_true_rows(self.residual.eval_batch(combined(
                probe.take(rows), build_side.take(others)))), dtype=bool)
            rows, others = rows[keep], others[keep]
        if matched is not None:
            matched[others] = True
        if join_type in (L.JoinType.LEFT_SEMI, L.JoinType.LEFT_ANTI):
            hit = np.bincount(rows, minlength=len(probe)) > 0
            return probe.compress(
                hit if join_type == L.JoinType.LEFT_SEMI else ~hit)
        if join_type in _OUTER_JOINS:
            rows, others = R.pad_unmatched(rows, others, len(probe),
                                           len(build_side) - 1)
        return combined(probe.take(rows), build_side.take(others))

    # -- row plane (and the batch plane's fallback) ------------------------

    def _join_rows(self, ctx: ExecutionContext, stage: str,
                   left_partitions: list[list[tuple]],
                   right_rows: list[tuple]) -> list[list[tuple]]:
        """The row join: one probe task per left partition against a
        hash table on the right rows; FULL OUTER's unmatched right rows
        trail; RIGHT OUTER is one task probing from the right."""
        join_type = self.join_type
        from_right = join_type == L.JoinType.RIGHT_OUTER
        if from_right:
            build_rows = [row for rows in left_partitions for row in rows]
            build_keys, probe_keys = self.left_keys, self.right_keys
            null_fill = (None,) * len(self.children[0].output)
        else:
            build_rows = right_rows
            build_keys, probe_keys = self.right_keys, self.left_keys
            null_fill = (None,) * len(self.children[1].output)
        # Entries carry the build row's position: FULL OUTER tracks it,
        # never id(row) (a table may hold one tuple object many times).
        table: dict[tuple, list[tuple]] = {}
        for position, row in enumerate(build_rows):
            key = tuple(k.eval(row) for k in build_keys)
            if any(v is None for v in key):
                continue  # null keys never match
            table.setdefault(key, []).append((position, row))
        residual = self.residual
        matched_right: set[int] = set()

        def probe(rows: list[tuple]) -> list[tuple]:
            out = []
            for probe_row in rows:
                key = tuple(k.eval(probe_row) for k in probe_keys)
                matches = [] if any(v is None for v in key) \
                    else table.get(key, [])
                kept = []
                for position, build_row in matches:
                    combined = build_row + probe_row if from_right \
                        else probe_row + build_row
                    if residual is not None and \
                            residual.eval(combined) is not True:
                        continue
                    kept.append(combined)
                    if join_type == L.JoinType.FULL_OUTER:
                        matched_right.add(position)
                if join_type == L.JoinType.LEFT_SEMI:
                    if kept:
                        out.append(probe_row)
                elif join_type == L.JoinType.LEFT_ANTI:
                    if not kept:
                        out.append(probe_row)
                elif kept:
                    out.extend(kept)
                elif join_type in _OUTER_JOINS:
                    out.append(null_fill + probe_row if from_right
                               else probe_row + null_fill)
            return out

        if from_right:
            return [ctx.run_task(stage, 0,
                                 functools.partial(probe, right_rows),
                                 len(right_rows), parallelizable=False)]
        result_partitions = ctx.run_stage(stage, [
            StageTask(partition=i, rows_in=len(partition),
                      fn=functools.partial(probe, partition))
            for i, partition in enumerate(left_partitions)])
        if join_type == L.JoinType.FULL_OUTER:
            null_left = (None,) * len(self.children[0].output)
            tail = [null_left + row for i, row in enumerate(right_rows)
                    if i not in matched_right]
            if tail:
                result_partitions.append(tail)
        return result_partitions

    def node_description(self) -> str:
        return f"HashJoin({self.join_type})" + self._mode_tag()


class BroadcastNestedLoopJoinExec(PhysicalPlan):
    """Nested-loop join for non-equi conditions.

    This is the operator Spark falls back to for the correlated
    ``NOT EXISTS`` dominance predicate of the plain-SQL skyline rewrite:
    every left row scans the broadcast right side -- quadratic work, the
    root cause of the reference algorithm's poor scaling.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan,
                 join_type: str, condition: E.Expression | None,
                 output: list[E.AttributeReference]) -> None:
        super().__init__()
        self.children = (left, right)
        self.join_type = join_type
        combined = list(left.output) + list(right.output)
        self.condition = E.bind_expression(condition, combined) \
            if condition is not None else None
        self._output = output

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    def execute(self, ctx: ExecutionContext) -> RDD:
        left_rdd = _rows_rdd(self.children[0].execute(ctx))
        right_rdd = _rows_rdd(self.children[1].execute(ctx))
        stage = self.stage_name()
        right_rows = right_rdd.collect()
        ctx.record_shuffle(stage, len(right_rows) * max(
            1, left_rdd.num_partitions))
        condition = self.condition
        join_type = self.join_type
        null_right = (None,) * len(self.children[1].output)

        tasks = []
        for i, partition in enumerate(left_rdd.partitions):
            def task(rows=partition):
                out = []
                tick = 0
                for left_row in rows:
                    tick += 1
                    if tick % 64 == 0:
                        ctx.check_deadline()
                    matched = False
                    collected = []
                    for right_row in right_rows:
                        if condition is None:
                            passes = True
                        else:
                            passes = condition.eval(
                                left_row + right_row) is True
                        if passes:
                            matched = True
                            if join_type in (L.JoinType.LEFT_SEMI,
                                             L.JoinType.LEFT_ANTI):
                                break
                            collected.append(left_row + right_row)
                    if join_type == L.JoinType.LEFT_SEMI:
                        if matched:
                            out.append(left_row)
                    elif join_type == L.JoinType.LEFT_ANTI:
                        if not matched:
                            out.append(left_row)
                    elif collected:
                        out.extend(collected)
                    elif join_type == L.JoinType.LEFT_OUTER:
                        out.append(left_row + null_right)
                return out

            tasks.append(StageTask(partition=i, rows_in=len(partition),
                                   fn=task))
        return RDD(ctx.run_stage(stage, tasks))

    def node_description(self) -> str:
        return f"BroadcastNestedLoopJoin({self.join_type})" + self._mode_tag()


# ---------------------------------------------------------------------------
# Skyline operators (Section 5.5 - 5.7)
# ---------------------------------------------------------------------------


def _bind_dimensions(items: Sequence[E.SkylineDimension],
                     input_attributes: Sequence[E.AttributeReference]
                     ) -> list[BoundDimension]:
    """Bind skyline dimensions to tuple ordinals.

    Every dimension must resolve to a direct attribute of the child
    output; the analyzer guarantees this by materialising computed
    dimensions (aggregates etc.) as child columns first.
    """
    index_by_id = {a.expr_id: i for i, a in enumerate(input_attributes)}
    dims: list[BoundDimension] = []
    for item in items:
        child = item.child
        if isinstance(child, E.Alias):
            child = child.to_attribute()
        if not isinstance(child, E.AttributeReference):
            raise ExecutionError(
                f"skyline dimension {item.sql()} did not resolve to a "
                f"column; the analyzer should have materialised it")
        try:
            index = index_by_id[child.expr_id]
        except KeyError:
            raise ExecutionError(
                f"skyline dimension {item.sql()} not present in child "
                f"output") from None
        dims.append(BoundDimension(index, item.kind, item.sql()))
    return dims


class _SkylineExec(PhysicalPlan):
    """Shared plumbing of the two skyline operators.

    Both run :func:`~repro.core.vectorized.skyline_task` in the ``mode``
    the planner chose (Listing 8: the variants differ only in the
    dominance predicate and the deletion rule).  ``vectorized=True``
    selects the columnar NumPy kernels (which fall back to the scalar
    reference per partition when the data cannot be columnized); the
    default keeps the pure-Python kernels.

    Under the batch data plane (a :class:`BatchRDD` child) a vectorized
    operator hands the task :class:`ColumnBatch` partitions -- no
    per-partition re-columnization -- and gets filtered batches back.
    A scalar operator always drops to rows first (honouring
    ``vectorized=False`` even in a columnar session).
    """

    #: ``mode`` -> (EXPLAIN operator name, algorithm label).
    LABELS: dict[str, tuple[str, str]] = {}

    def __init__(self, items: Sequence[E.SkylineDimension], distinct: bool,
                 child: PhysicalPlan, mode: str,
                 vectorized: bool = False) -> None:
        super().__init__()
        self.children = (child,)
        self.items = list(items)
        self.distinct = distinct
        self.dims = _bind_dimensions(items, child.output)
        self.mode = mode
        self.vectorized = bool(vectorized)
        #: Kernel-family label of this operator's tasks.
        self.kernel = "vectorized" if vectorized else "scalar"

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.children[0].output

    @property
    def exec_mode(self) -> str:
        if self.children[0].exec_mode == "batch" and self.vectorized:
            return "batch"
        return "row"

    def node_description(self) -> str:
        name, algorithm = self.LABELS[self.mode]
        if self.vectorized:
            algorithm = f"vectorized {algorithm}"
        dims = ", ".join(i.sql() for i in self.items)
        return f"{name}({algorithm}, [{dims}])" + self._mode_tag()


class SkylineLocalExec(_SkylineExec):
    """Local (per-partition) skyline -- the distributed stage.

    ``complete`` (BNL) and ``sfs`` (Sort-Filter-Skyline, the Section 7
    future-work algorithm behind ``skyline.algorithm=sfs``) keep the
    child's partitioning ("to avoid unnecessary communication cost, we
    refrain from overriding Spark's partitioning mechanism", Section 2).
    ``bitmap-local`` first re-distributes the child's rows so that all
    tuples sharing a bitmap of null skyline dimensions land in the same
    partition (Section 5.7: crafted "via the integrated distribution of
    the nodes ... using the predefined IsNull() method"), packing whole
    bitmap groups into at most ``default_parallelism`` partitions; the
    mode runs BNL with the incomplete dominance test per group, where
    it is safe.  Each partition's survivors feed the global node.

    Keeping the child's partitioning is what lets the operator share a
    stage with a scan/filter/project chain beneath it (stage fusion,
    see the module docstring): its tasks are then
    :func:`_local_skyline_task` over scan slices, and the chain opens no
    stage at all.
    """

    LABELS = {
        "complete": ("SkylineLocal", "BNL"),
        "bitmap-local": ("SkylineLocalIncomplete",
                         "bitmap-partitioned BNL"),
        "sfs": ("SkylineLocalSFS", "SFS"),
    }

    @property
    def fuses_child(self) -> bool:
        """``complete``/``sfs`` keep the child's partitioning, so a
        scan/filter/project chain beneath runs inside the local tasks;
        ``bitmap-local`` regroups every row first."""
        return self.mode != "bitmap-local" and \
            isinstance(self.children[0], _NarrowExec)

    def __init__(self, items: Sequence[E.SkylineDimension], distinct: bool,
                 child: PhysicalPlan, mode: str,
                 vectorized: bool = False) -> None:
        super().__init__(items, distinct, child, mode, vectorized)
        #: ``(token, batches)`` kept for re-executions; see
        #: :meth:`_child_partitions`.
        self._kept: "tuple | None" = None

    def _child_partitions(self, ctx: ExecutionContext, stage: str) -> list:
        """The partitions the local tasks read, for a child that does
        not fuse (the ``bitmap-local`` regroup's chain, a join):
        ``bitmap-local`` packs the executed child's rows into at most
        ``default_parallelism`` partitions of whole null-bitmap groups
        (:func:`~repro.core.vectorized.pack_by_null_bitmap`) -- on
        either data plane.

        On the batch plane, when everything beneath is deterministic
        data preparation over one scan (filter, project, no scalar
        subquery: its value can follow other tables), those partitions
        depend only on :meth:`ScanExec.token`, so the plan keeps them
        -- on every backend: the catalog's plan cache is shared by
        sessions on different ones -- and a re-execution skips the
        chain and the regroup.  A context with a shm store also pins
        them there and ships handles to the same segments.
        """
        child = self.children[0]
        token = None
        if self.exec_mode == "batch":
            scan = child
            while isinstance(scan, (FilterExec, ProjectExec)) \
                    and not _has_subquery(scan.spec):
                scan = scan.children[0]
            if isinstance(scan, ScanExec):
                token = scan.token(ctx)
        store = ctx.shm_store  # a closed store pins nothing
        partitions = _resident(self, store, token)
        if partitions is not None:
            # The scan beneath is served from what the plan keeps.
            ctx.scan["resident_rows"] += len(scan.rows)
            return partitions
        child_out = child.execute(ctx)
        if self.exec_mode != "batch":
            # A scalar operator reads (and regroups) rows.
            child_out = _rows_rdd(child_out)
        partitions = _partitions(child_out)
        if self.mode == "bitmap-local":
            ctx.record_shuffle(stage, sum(map(len, partitions)))
            partitions = pack_by_null_bitmap(
                partitions, self.dims, ctx.config.default_parallelism)
        if token is not None:
            _keep_resident(self, store, token, partitions)
        return partitions

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        stage = self.stage_name()
        specs: tuple = ()
        if self.fuses_child:
            partitions, specs = self.children[0].chain_inputs(
                ctx, resident=True)
        else:
            partitions = self._child_partitions(ctx, stage)
        # ``fn`` is a deadline-aware in-process closure (used by the
        # local backend); ``func``/``args`` is the picklable
        # payload process backends ship to workers (workers cannot see
        # the driver's deadline clock, so the budget is checked between
        # stages instead).
        tasks = []
        for i, partition in enumerate(partitions):
            args = (partition, specs, self.dims, self.mode, self.distinct,
                    self.vectorized)
            tasks.append(StageTask(
                partition=i, rows_in=len(partition),
                bytes_in=partition.nbytes
                if isinstance(partition, ColumnBatch) else 0,
                fn=functools.partial(_local_skyline_task, *args,
                                     check_deadline=ctx.check_deadline),
                func=_local_skyline_task, args=args, kernel=self.kernel))
        results = ctx.run_stage(stage, tasks)
        return BatchRDD(results) if self.exec_mode == "batch" \
            else RDD(results)


class SkylineGlobalExec(_SkylineExec):
    """Global skyline under the ``AllTuples`` distribution.

    One task over the union of the local skylines, in every mode (the
    paper's global node, Section 5.6).  ``flagged`` is the flag-based
    all-pairs test for incomplete data: it cannot delete dominated
    tuples early (cyclic dominance, Appendix A), so it compares all
    pairs, flags, and deletes at the end.
    """

    LABELS = {
        "complete": ("SkylineGlobalComplete", "BNL"),
        "flagged": ("SkylineGlobalIncomplete", "all-pairs flagged"),
        "sfs": ("SkylineGlobalSFS", "SFS"),
    }

    def execute(self, ctx: ExecutionContext) -> "RDD | BatchRDD":
        child_out = self.children[0].execute(ctx)
        on_batches = self.exec_mode == "batch"
        if not on_batches:
            child_out = _rows_rdd(child_out)
        stage = self.stage_name()
        whole = child_out.concat() if on_batches else child_out.collect()
        ctx.record_shuffle(stage, len(whole))
        task = functools.partial(skyline_task, whole, self.dims,
                                 self.mode, self.distinct, self.vectorized,
                                 check_deadline=ctx.check_deadline)
        merged = ctx.run_task(stage, 0, task, len(whole),
                              parallelizable=False, kernel=self.kernel)
        return BatchRDD([merged]) if on_batches else RDD([merged])
