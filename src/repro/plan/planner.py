"""Physical planning: lower an optimized logical plan onto executors.

The skyline strategy implements Listing 8 of the paper:

.. code-block:: text

    skylineNullable <- exists d in D_SKY : isnullable(d)
    if COMPLETE is set OR not skylineNullable:
        local  <- local_node()            # distributed BNL
        global <- complete_global_node()  # BNL, AllTuples
    else:
        local  <- local_node()            # null-bitmap partitioned BNL
        global <- incomplete_global_node()# flagged all-pairs, AllTuples

plus a session-level override (``skyline.algorithm``) that the benchmark
harness uses to force each of the evaluated strategies, and an ``sfs``
option for the sorting-based future-work algorithm.  The kernel modes
each strategy runs come from
:data:`repro.core.algorithms.STRATEGY_MODES`, the table
:func:`repro.core.skyline` runs too.  No choice reads
statistics: a cost-based one (the paper's Section 7 future work) did
not beat this rule on any benchmark workload (``docs/benchmarks.md``,
"Planner regret").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.algorithms import STRATEGY_MODES
from ..engine import expressions as E
from ..errors import PlanningError
from . import logical as L
from . import physical as P

#: Valid values of the ``skyline.algorithm`` session option.
SKYLINE_STRATEGIES = ("auto", *STRATEGY_MODES)

#: What each algorithm's local stage runs on, and why: the scan's
#: partitioning, or -- incomplete data -- whole null-bitmap groups.
_KEPT = ("inherited", "the scan's partitioning is kept (scan parallelism)")
_PARTITIONS = {
    "distributed-complete": _KEPT,
    "sfs": _KEPT,
    "non-distributed-complete": ("1", "single global task"),
    "distributed-incomplete": ("bitmap-packed", "whole null-bitmap groups "
                               "in <= num_executors partitions"),
}


@dataclass(frozen=True)
class PlanDecision:
    """The algorithm chosen for one skyline operator and why, for
    EXPLAIN's ``== Skyline Strategy ==`` section."""

    algorithm: str
    reason: str

    def describe(self) -> str:
        count, why = _PARTITIONS[self.algorithm]
        return (f"algorithm    = {self.algorithm:<26} -- {self.reason}\n"
                f"partitions   = {count:<26} -- {why}")


class Planner:
    """Lowers logical plans to physical plans.

    Every skyline operator keeps its child's partitioning (the paper's
    default, Section 2) -- the incomplete local node packs whole
    null-bitmap groups instead -- and leaves a :class:`PlanDecision` in
    :attr:`decisions`, which ``EXPLAIN`` renders.
    """

    def __init__(self, skyline_strategy: str = "auto", *,
                 num_executors: int = 2,
                 vectorized: bool = False,
                 columnar: bool = False) -> None:
        if skyline_strategy not in SKYLINE_STRATEGIES:
            raise PlanningError(
                f"unknown skyline strategy {skyline_strategy!r}; expected "
                f"one of {SKYLINE_STRATEGIES}")
        self.skyline_strategy = skyline_strategy
        #: The scan parallelism; part of :meth:`settings_key` because a
        #: prepared plan pins its scan slices cut at it, and sessions of
        #: different parallelism sharing one plan would keep re-pinning.
        self.num_executors = num_executors
        #: True when the skyline operators should run the columnar
        #: NumPy kernels (:mod:`repro.core.vectorized`).
        self.vectorized = vectorized
        #: True when the plan should execute on the batch data plane:
        #: scans columnize their partitions and the batch-capable
        #: operators exchange :class:`~repro.engine.batch.ColumnBatch`es.
        self.columnar = columnar
        #: One entry per planned skyline operator, in plan order.
        self.decisions: list[PlanDecision] = []

    def settings_key(self) -> tuple:
        """Hashable snapshot of every planning-relevant setting.

        Two planners with equal keys (over the same catalog state)
        lower identical logical plans to identical physical plans --
        the contract the catalog's plan cache relies on (its full key,
        :meth:`~repro.api.session.SkylineSession._plan_key`, adds the
        SQL text, the transport and the catalog's schema version).
        """
        return (self.skyline_strategy, self.num_executors,
                self.vectorized, self.columnar)

    # -- entry point ------------------------------------------------------

    def plan(self, node: L.LogicalPlan) -> P.PhysicalPlan:
        if isinstance(node, L.LogicalRelation):
            return P.ScanExec(node.table.rows, node.output,
                              node.table.name, columnar=self.columnar,
                              table=node.table)
        if isinstance(node, L.LocalRelation):
            return P.ScanExec(node.rows, node.output, "local",
                              columnar=self.columnar)
        if isinstance(node, L.SubqueryAlias):
            # Normally eliminated by the optimizer; harmless passthrough.
            child = self.plan(node.child)
            return _RenameExec(node.output, child)
        if isinstance(node, L.Project):
            child = self.plan(node.child)
            projections = [self._lower_expr(p) for p in node.projections]
            return P.ProjectExec(projections, child)
        if isinstance(node, L.Filter):
            child = self.plan(node.child)
            return P.FilterExec(self._lower_expr(node.condition), child)
        if isinstance(node, L.Distinct):
            return P.DistinctExec(self.plan(node.child))
        if isinstance(node, L.Limit):
            return P.LimitExec(node.limit, self.plan(node.child))
        if isinstance(node, L.Sort):
            child = self.plan(node.child)
            order = [o.copy(child=self._lower_expr(o.child))
                     for o in node.order]
            return P.SortExec(order, child)
        if isinstance(node, L.Aggregate):
            child = self.plan(node.child)
            grouping = [self._lower_expr(g)
                        for g in node.grouping_expressions]
            aggregates = [self._lower_expr(a)
                          for a in node.aggregate_expressions]
            return P.HashAggregateExec(grouping, aggregates, child)
        if isinstance(node, L.Join):
            return self._plan_join(node)
        if isinstance(node, L.SkylineOperator):
            return self._plan_skyline(node)
        raise PlanningError(
            f"no physical strategy for {node.node_description()}")

    # -- expressions ----------------------------------------------------------

    def _lower_expr(self, expr: E.Expression) -> E.Expression:
        """Replace logical subquery expressions with physical ones."""

        def step(node: E.Expression) -> E.Expression:
            if isinstance(node, E.ScalarSubquery):
                return P.PhysicalScalarSubquery(self.plan(node.plan))
            if isinstance(node, E.Exists):
                raise PlanningError(
                    "EXISTS subquery survived optimization; it should have "
                    "been rewritten to a semi/anti join")
            return node

        return expr.transform_up(step)

    # -- joins ------------------------------------------------------------------

    def _plan_join(self, node: L.Join) -> P.PhysicalPlan:
        left = self.plan(node.left)
        right = self.plan(node.right)
        condition = self._lower_expr(node.condition) \
            if node.condition is not None else None
        left_ids = {a.expr_id for a in node.left.output}
        right_ids = {a.expr_id for a in node.right.output}
        left_keys: list[E.Expression] = []
        right_keys: list[E.Expression] = []
        residual: list[E.Expression] = []
        if condition is not None:
            for conjunct in E.split_conjuncts(condition):
                if isinstance(conjunct, E.EqualTo):
                    l_refs = {r.expr_id for r in conjunct.left.references()}
                    r_refs = {r.expr_id for r in conjunct.right.references()}
                    if l_refs and r_refs and l_refs <= left_ids and \
                            r_refs <= right_ids:
                        left_keys.append(conjunct.left)
                        right_keys.append(conjunct.right)
                        continue
                    if l_refs and r_refs and l_refs <= right_ids and \
                            r_refs <= left_ids:
                        left_keys.append(conjunct.right)
                        right_keys.append(conjunct.left)
                        continue
                residual.append(conjunct)
        if left_keys:
            residual_expr = E.conjunction(residual) if residual else None
            return P.HashJoinExec(left, right, node.join_type, left_keys,
                                  right_keys, residual_expr, node.output)
        return P.BroadcastNestedLoopJoinExec(left, right, node.join_type,
                                             condition, node.output)

    # -- skyline (Listing 8) -------------------------------------------------------

    def _plan_skyline(self, node: L.SkylineOperator) -> P.PhysicalPlan:
        child = self.plan(node.child)
        items = node.skyline_items
        strategy = self.skyline_strategy
        if strategy == "auto":
            # Listing 8: COMPLETE keyword or non-nullable dimensions
            # allow the (faster) complete algorithm.
            use_complete = node.complete or not node.dimensions_nullable
            strategy = "distributed-complete" if use_complete \
                else "distributed-incomplete"
            reason = ("selected by the Listing 8 rule (COMPLETE keyword / "
                      "dimension nullability)")
        else:
            reason = "forced by session configuration"
        self.decisions.append(PlanDecision(strategy, reason))

        vectorized = self.vectorized
        local_mode, global_mode = STRATEGY_MODES[strategy]
        if local_mode is not None:
            child = P.SkylineLocalExec(
                items, node.distinct, child, local_mode,
                vectorized=vectorized)
        return P.SkylineGlobalExec(items, node.distinct, child, global_mode,
                                   vectorized=vectorized)


class _RenameExec(P.PhysicalPlan):
    """Passthrough that re-labels output attributes (SubqueryAlias)."""

    def __init__(self, output, child: P.PhysicalPlan) -> None:
        super().__init__()
        self.children = (child,)
        self._output = output

    @property
    def output(self):
        return list(self._output)

    @property
    def exec_mode(self) -> str:
        return self.children[0].exec_mode

    #: Runs no task of its own: it is part of whatever stage its child
    #: executes in.
    fuses_child = True

    def execute(self, ctx):
        return self.children[0].execute(ctx)
