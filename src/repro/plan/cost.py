"""Statistics-driven choice of the skyline algorithm.

Section 7 of the paper asks for a light-weight optimizer "that selects
the best-suited skyline algorithm for a particular query".
:class:`CostModel` reads the persistent statistics subsystem
(:mod:`repro.stats`) and chooses the *algorithm* only: BNL (distributed
or not), SFS, or the incomplete variant forced by nullable dimensions
without ``COMPLETE``.  Like the paper, it keeps the scan's partitioning
(Section 2); the grid/angle schemes the paper lists as future work were
measured and removed (``docs/benchmarks.md``, "Planner regret").

Every choice is recorded with the statistic that drove it and surfaced
through ``DataFrame.explain()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.dominance import BoundDimension, DimensionKind
from ..engine import expressions as E
from ..stats import TableStats, collect_table_stats
from . import logical as L

#: Inputs at most this large run the plain non-distributed algorithm.
SMALL_INPUT_ROWS = 512
#: Sampled skyline density from which the scalar kernels prefer SFS:
#: presorting spares BNL's quadratic window scans.
DENSE_SKYLINE_FRACTION = 0.25
#: The same crossover on the vectorized kernels, where BNL and SFS are
#: one block kernel (SFS only re-orders the survivors): beyond it a
#: local stage keeps most rows and only adds a pass, so the model skips
#: it and runs the non-distributed algorithm.
DENSE_SKYLINE_FRACTION_VECTORIZED = 0.5
#: Selectivity assumed for filter conjuncts the model cannot estimate.
DEFAULT_SELECTIVITY = 1.0
#: Row bound for profiling uncached leaves (LocalRelation): catalog
#: tables get cached statistics, detached data gets a strided sample so
#: planning never scans an unbounded input.
LOCAL_STATS_MAX_ROWS = 4096

#: Operators that preserve (or only shrink) cardinality on the way from
#: a skyline operator down to its leaf.
_PRESERVING = (L.Filter, L.Distinct, L.Sort, L.SubqueryAlias, L.Limit,
               L.Project)

#: What each algorithm's local stage runs on, and why: the scan's
#: partitioning is never overridden.
_KEPT = ("inherited", "the scan's partitioning is kept (scan parallelism)")
_PARTITIONS = {
    "distributed-complete": _KEPT,
    "sfs": _KEPT,
    "non-distributed-complete": ("1", "single global task"),
    "distributed-incomplete": ("per bitmap", "one partition per distinct "
                                             "null bitmap"),
}


@dataclass(frozen=True)
class PlanDecision:
    """The chosen algorithm plus the reasoning, for EXPLAIN."""

    algorithm: str
    algorithm_reason: str
    estimated_rows: int | None = None
    skyline_density: float | None = None
    stats_lines: tuple[str, ...] = ()

    def describe(self) -> str:
        count, reason = _PARTITIONS[self.algorithm]
        lines = [
            f"algorithm    = {self.algorithm:<26} -- "
            f"{self.algorithm_reason}",
            f"partitions   = {count:<26} -- {reason}",
        ]
        if self.stats_lines:
            lines.append("statistics:")
            lines.extend("  " + line for line in self.stats_lines)
        return "\n".join(lines)


def forced_decision(strategy: str, auto: bool = False) -> PlanDecision:
    """The :class:`PlanDecision` of a strategy the model did not choose,
    so ``EXPLAIN`` always reports the same shape of information.

    ``auto=True`` marks the default Listing 8 selection (COMPLETE /
    nullability rule) as opposed to an explicit session override.
    """
    reason = ("selected by the Listing 8 rule (COMPLETE keyword / "
              "dimension nullability)") if auto \
        else "forced by session configuration"
    return PlanDecision(algorithm=strategy, algorithm_reason=reason)


# ---------------------------------------------------------------------------
# Plan walking
# ---------------------------------------------------------------------------


def estimate_input_rows(plan: L.LogicalPlan) -> int | None:
    """Upper-bound row estimate by walking to the leaves.

    Filters and skylines only shrink; projections/sorts preserve; joins
    and aggregates change cardinality unpredictably -> None (unknown).
    """
    if isinstance(plan, L.LogicalRelation):
        return plan.table.num_rows
    if isinstance(plan, L.LocalRelation):
        return len(plan.rows)
    if isinstance(plan, (L.Project, L.Filter, L.Distinct, L.Sort,
                         L.SubqueryAlias, L.SkylineOperator)):
        return estimate_input_rows(plan.children[0])
    if isinstance(plan, L.Limit):
        below = estimate_input_rows(plan.children[0])
        return plan.limit if below is None else min(plan.limit, below)
    return None


def _leaf_plan(plan: L.LogicalPlan) -> L.LogicalPlan | None:
    """The single leaf under cardinality-preserving operators, if any."""
    while isinstance(plan, _PRESERVING):
        plan = plan.children[0]
    if isinstance(plan, (L.LogicalRelation, L.LocalRelation)):
        return plan
    return None


def _operators_above_leaf(plan: L.LogicalPlan) -> list[L.LogicalPlan]:
    """The preserving operators between ``plan`` and its leaf, in order."""
    chain = []
    while isinstance(plan, _PRESERVING):
        chain.append(plan)
        plan = plan.children[0]
    return chain


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------


class CostModel:
    """Chooses the skyline algorithm from statistics.

    ``catalog`` supplies cached :class:`~repro.stats.TableStats` for
    registered tables; unregistered leaves (``LocalRelation``, detached
    tables) fall back to an uncached one-shot collection over the leaf
    rows, so the model degrades gracefully rather than guessing blind.
    ``vectorized`` selects the kernel family's density crossover;
    ``columnar`` lets catalog statistics read the resident columns.
    """

    def __init__(self, catalog=None, vectorized: bool = False,
                 columnar: bool = False) -> None:
        self.catalog = catalog
        self.vectorized = vectorized
        self.columnar = columnar
        self.dense_fraction = DENSE_SKYLINE_FRACTION_VECTORIZED \
            if vectorized else DENSE_SKYLINE_FRACTION

    # -- statistics plumbing ----------------------------------------------

    def _table_stats(self, leaf: L.LogicalPlan) -> TableStats | None:
        if isinstance(leaf, L.LogicalRelation):
            table = leaf.table
            if self.catalog is not None and \
                    self.catalog.exists(table.name) and \
                    self.catalog.lookup(table.name) is table:
                return self.catalog.statistics(
                    table.name, columnar=self.columnar)
            # Detached table (dropped/replaced in the catalog, or no
            # catalog at all): bounded one-shot profiling.
            return self._bounded_stats(
                table.name, [f.name for f in table.schema], table.rows)
        if isinstance(leaf, L.LocalRelation):
            names = [a.name for a in leaf.output]
            return self._bounded_stats("local", names, leaf.rows)
        return None

    @staticmethod
    def _bounded_stats(name: str, names: list[str],
                       rows: list[tuple]) -> TableStats:
        """Uncached profiling bounded by a strided sample, so planning
        over detached data never scans an unbounded input."""
        if len(rows) <= LOCAL_STATS_MAX_ROWS:
            return collect_table_stats(name, names, rows)
        step = math.ceil(len(rows) / LOCAL_STATS_MAX_ROWS)
        stats = collect_table_stats(name, names, rows[::step])
        stats.num_rows = len(rows)
        return stats

    def _bound_dimensions(self, node: L.SkylineOperator,
                          leaf: L.LogicalPlan
                          ) -> list[BoundDimension] | None:
        """Skyline dimensions as leaf-tuple ordinals, or ``None`` when a
        dimension is computed (not a direct leaf column)."""
        index_by_id = {a.expr_id: i for i, a in enumerate(leaf.output)}
        dims = []
        for item in node.skyline_items:
            child = item.child
            if isinstance(child, E.Alias):
                child = child.to_attribute()
            if not isinstance(child, E.AttributeReference):
                return None
            if child.expr_id not in index_by_id:
                return None
            dims.append(BoundDimension(index_by_id[child.expr_id],
                                       item.kind))
        return dims

    def _filter_selectivity(self, node: L.SkylineOperator,
                            leaf: L.LogicalPlan,
                            stats: TableStats) -> float:
        """Combined selectivity of the filters between node and leaf.

        Conjuncts of the form ``column <cmp> literal`` (either side) are
        estimated from the column histogram / distinct count; anything
        else is assumed non-reducing (conservative upper bound).
        """
        name_by_id = {a.expr_id: a.name for a in leaf.output}
        selectivity = 1.0
        for op in _operators_above_leaf(node.child):
            if isinstance(op, L.Filter):
                for conjunct in E.split_conjuncts(op.condition):
                    selectivity *= self._conjunct_selectivity(
                        conjunct, name_by_id, stats)
        return selectivity

    def _conjunct_selectivity(self, conjunct: E.Expression,
                              name_by_id: dict, stats: TableStats
                              ) -> float:
        column, op, value = _comparison_parts(conjunct, name_by_id)
        if column is None:
            return DEFAULT_SELECTIVITY
        column_stats = stats.column(column)
        if column_stats is None:
            return DEFAULT_SELECTIVITY
        if op == "=":
            distinct = column_stats.num_distinct
            return 1.0 / distinct if distinct else DEFAULT_SELECTIVITY
        histogram = column_stats.histogram
        if histogram is None or not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            return DEFAULT_SELECTIVITY
        if op in ("<", "<="):
            return histogram.selectivity_below(float(value))
        if op in (">", ">="):
            return histogram.selectivity_above(float(value))
        return DEFAULT_SELECTIVITY

    # -- the decision -----------------------------------------------------

    def decide(self, node: L.SkylineOperator) -> PlanDecision:
        """The algorithm for one skyline operator, in rule order."""
        leaf = _leaf_plan(node.child)
        stats = self._table_stats(leaf) if leaf is not None else None
        dims = self._bound_dimensions(node, leaf) \
            if leaf is not None else None

        # Estimated input rows: table stats scaled by filter selectivity,
        # falling back to the plain plan walk.
        estimated = estimate_input_rows(node.child)
        if stats is not None and leaf is not None:
            selectivity = self._filter_selectivity(node, leaf, stats)
            refined = int(math.ceil(stats.num_rows * selectivity))
            estimated = refined if estimated is None \
                else min(estimated, refined)

        density = stats.skyline_density(dims) \
            if stats is not None and dims is not None else None

        stats_lines: tuple[str, ...] = ()
        if stats is not None:
            dim_names = None
            if dims is not None and leaf is not None:
                output = leaf.output
                dim_names = [output[d.index].name for d in dims]
            stats_lines = tuple(stats.summary_lines(dim_names))
            if density is not None:
                stats_lines += (
                    f"sampled skyline density = {density:.2f}",)
            if estimated is not None:
                stats_lines += (f"estimated input rows = {estimated}",)

        def decision(algorithm: str, reason: str) -> PlanDecision:
            return PlanDecision(algorithm, reason, estimated, density,
                                stats_lines)

        # (1) Correctness first: Listing 8's nullability rule.
        if not node.complete and node.dimensions_nullable:
            return decision("distributed-incomplete",
                            "nullable dimensions without COMPLETE "
                            "require the incomplete algorithm")

        # (2) Tiny inputs: distribution overhead cannot pay off.
        if estimated is not None and estimated <= SMALL_INPUT_ROWS:
            return decision("non-distributed-complete",
                            f"input of ~{estimated} rows is below the "
                            f"distribution threshold ({SMALL_INPUT_ROWS})")

        # (3) Dense skylines: the scalar kernels presort (SFS); on the
        # vectorized kernels, where BNL and SFS are the same block
        # kernel, the win is skipping a local stage that keeps most rows.
        kernels = "vectorized" if self.vectorized else "scalar"
        value_dims = [] if dims is None else \
            [d for d in dims if d.kind is not DimensionKind.DIFF]
        if density is not None and density >= self.dense_fraction \
                and len(value_dims) >= 2:
            dense = (f"dense skyline (sampled density {density:.2f} >= "
                     f"{self.dense_fraction}, {kernels} kernels)")
            if self.vectorized:
                return decision("non-distributed-complete",
                                f"{dense}: a local stage would keep most "
                                f"rows, so one global task")
            return decision("sfs", f"{dense} favours presorting")

        # (4) Everything else: the paper's distributed BNL.
        if density is None:
            return decision("distributed-complete",
                            "no density estimate; distributed BNL is the "
                            "robust default")
        return decision("distributed-complete",
                        f"sampled density {density:.2f} is below the "
                        f"{kernels}-kernel crossover "
                        f"({self.dense_fraction}): distributed BNL")


def _comparison_parts(conjunct: E.Expression, name_by_id: dict
                      ) -> tuple[str | None, str | None, object]:
    """Decompose ``column <cmp> literal`` conjuncts (either order)."""
    operators = {E.EqualTo: "=", E.LessThan: "<",
                 E.LessThanOrEqual: "<=", E.GreaterThan: ">",
                 E.GreaterThanOrEqual: ">="}
    op = operators.get(type(conjunct))
    if op is None:
        return None, None, None
    left, right = conjunct.left, conjunct.right
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(left, E.AttributeReference) and \
            isinstance(right, E.Literal):
        name = name_by_id.get(left.expr_id)
        return name, op, right.value
    if isinstance(right, E.AttributeReference) and \
            isinstance(left, E.Literal):
        name = name_by_id.get(right.expr_id)
        return name, flipped[op], left.value
    return None, None, None
