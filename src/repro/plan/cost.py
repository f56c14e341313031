"""Statistics-driven cost model for skyline strategy selection.

Section 7 of the paper: "as soon as further skyline algorithms are
implemented, a light-weight form of cost-based optimization should be
implemented that selects the best-suited skyline algorithm for a
particular query".  The original cut of this module re-sampled leaf rows
on every query and only picked the algorithm; :class:`CostModel` now
consumes the persistent statistics subsystem (:mod:`repro.stats`) and
decides the *whole* physical shape of a skyline query:

(a) the algorithm -- BNL (distributed or not), SFS, or the incomplete
    variant forced by nullable dimensions without ``COMPLETE``;
(b) the partitioning scheme for the local stage -- random, grid (cell
    counts sized from the column histograms, with cell-dominance
    pruning), or angle (only for uniformly-oriented all-MIN/all-MAX
    dimension sets, where the angular transform is meaningful);
(c) the partition count handed to the execution backends.

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
#: Skyline density beyond which SFS is preferred over BNL.
DENSE_SKYLINE_FRACTION = 0.25
#: The same crossover when the vectorized kernels run.  Vectorized BNL
#: and SFS select survivors with the same sort-first kernel
#: (``core/vectorized.py``); SFS only adds a re-rank of the survivors
#: by monotone score, so the choice matters for partitions that fall
#: back to the scalar kernels and for the output order -- BNL stays the
#: default on considerably denser skylines.
DENSE_SKYLINE_FRACTION_VECTORIZED = 0.5
#: Rows an adaptive partition should aim to hold.
TARGET_ROWS_PER_PARTITION = 1024
#: Hard cap on adaptively chosen partition counts.
MAX_ADAPTIVE_PARTITIONS = 64
#: Expected local-stage window size (density x partition rows) below
#: which a repartition shuffle cannot pay for itself and the child's
#: partitioning is kept.  Deliberately high: on sparse data BNL's
#: window scans terminate at the first dominator, so the per-row work
#: saved by cell pruning is far smaller than the window size suggests,
#: while the repartition pass costs a full non-parallelizable scan.
REPARTITION_BREAK_EVEN_WINDOW = 512
#: The same break-even under the vectorized kernels, whose block-wise
#: window scans are an order of magnitude cheaper per row -- the
#: repartition pass stays a full non-parallelizable scan, so it only
#: pays off on far larger expected windows.
REPARTITION_BREAK_EVEN_WINDOW_VECTORIZED = 8192
#: Measured cost of evaluating one filter predicate row on the batch
#: data plane relative to the row-at-a-time interpreter (columnar
#: ablation, `python -m repro.bench --columnar`): one vectorized pass
#: over the column replaces a per-row expression-tree walk.  A
#: calibration constant surfaced in EXPLAIN's statistics lines -- it
#: documents the measured plane gap and does not steer plan choice
#: (the behavioural knob is :data:`COLUMNAR_REPARTITION_PENALTY`).
COLUMNAR_FILTER_COST_FACTOR = 0.05
#: The same ratio for projection expressions (slightly higher: each
#: output column still pays one kernel dispatch per expression node).
COLUMNAR_PROJECT_COST_FACTOR = 0.10
#: Extra multiplier on the repartition break-even when the plan runs on
#: the batch data plane: a grid/angle/random repartition is
#: row-oriented, so inserting one additionally materialises the
#: batches and drops the rest of the skyline stage off the batch plane
#: -- the shuffle must save that much more window work to pay off.
COLUMNAR_REPARTITION_PENALTY = 2
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


@dataclass(frozen=True)
class CostDecision:
    """Algorithm-only decision (the legacy ``cost-based`` strategy)."""

    strategy: str
    estimated_rows: int | None
    sample_skyline_fraction: float | None
    reason: str


@dataclass(frozen=True)
class PlanDecision:
    """The full adaptive decision plus the reasoning, for EXPLAIN."""

    algorithm: str
    algorithm_reason: str
    partitioning: str
    partitioning_reason: str
    num_partitions: int | None
    partitions_reason: str
    grid_cells_per_dim: int | None
    estimated_rows: int | None
    skyline_density: float | None
    stats_lines: tuple[str, ...]

    def describe(self) -> str:
        count = "inherited" if self.num_partitions is None \
            else str(self.num_partitions)
        lines = [
            f"algorithm    = {self.algorithm:<26} -- "
            f"{self.algorithm_reason}",
            f"partitioning = {self.partitioning:<26} -- "
            f"{self.partitioning_reason}",
            f"partitions   = {count:<26} -- {self.partitions_reason}",
        ]
        if self.stats_lines:
            lines.append("statistics:")
            lines.extend("  " + line for line in self.stats_lines)
        return "\n".join(lines)


def forced_decision(strategy: str, partitioning: str,
                    num_partitions: int | None,
                    auto: bool = False) -> PlanDecision:
    """A :class:`PlanDecision` record for non-adaptive strategies, so
    ``EXPLAIN`` always reports the same shape of information.

    ``auto=True`` marks the default Listing 8 selection (COMPLETE /
    nullability rule) as opposed to an explicit session override.
    """
    reason = "forced by session configuration"
    algorithm_reason = ("selected by the Listing 8 rule (COMPLETE "
                        "keyword / dimension nullability)") if auto \
        else reason
    return PlanDecision(
        algorithm=strategy, algorithm_reason=algorithm_reason,
        partitioning=partitioning, partitioning_reason=reason
        if partitioning != "keep" else "child partitioning kept",
        num_partitions=num_partitions,
        partitions_reason=reason if num_partitions is not None
        else "scan parallelism (num_executors)",
        grid_cells_per_dim=None, estimated_rows=None,
        skyline_density=None, stats_lines=())


def applied_decision(model: "PlanDecision | None", algorithm: str,
                     partitioning: str, num_partitions: int | None,
                     auto: bool = False) -> PlanDecision:
    """The decision as *applied* by the planner.

    ``model`` is the cost model's proposal (``None`` for forced/auto
    strategies).  The planner does not always apply the proposed
    partitioning -- ``cost-based`` selects the algorithm only, a
    session-forced scheme overrides the adaptive choice, and
    non-partitionable strategies take no scheme -- so EXPLAIN must
    report the applied values, never an unapplied proposal.
    """
    if model is None:
        return forced_decision(algorithm, partitioning, num_partitions,
                               auto=auto)
    if partitioning == model.partitioning and (
            partitioning == "keep"
            or num_partitions == model.num_partitions):
        return model
    if partitioning == "keep":
        # Only reachable for cost-based sessions: the model proposed a
        # scheme, but cost-based applies the algorithm choice alone.
        scheme_reason = ("cost-based selects the algorithm only; "
                         "child partitioning kept")
        count_reason = "inherited from the scan parallelism"
    else:
        scheme_reason = "forced by session configuration"
        count_reason = "forced by session configuration"
    return PlanDecision(
        algorithm=algorithm, algorithm_reason=model.algorithm_reason,
        partitioning=partitioning, partitioning_reason=scheme_reason,
        num_partitions=num_partitions, partitions_reason=count_reason,
        grid_cells_per_dim=None, estimated_rows=model.estimated_rows,
        skyline_density=model.skyline_density,
        stats_lines=model.stats_lines)


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
    """Chooses algorithm, partitioning and parallelism from statistics.

    ``catalog`` supplies cached :class:`~repro.stats.TableStats` for
    registered tables; unregistered leaves (``LocalRelation``, detached
    tables) fall back to an uncached one-shot collection over the leaf
    rows, so the model degrades gracefully rather than guessing blind.
    """

    def __init__(self, catalog=None, num_executors: int = 2,
                 max_workers: int | None = None,
                 vectorized: bool = False,
                 columnar: bool = False) -> None:
        self.catalog = catalog
        self.num_executors = num_executors
        self.max_workers = max_workers
        #: Vectorized kernels shift the BNL-vs-SFS crossover: block-BNL
        #: absorbs dense windows far more cheaply than scalar BNL.
        self.vectorized = vectorized
        #: The batch data plane makes the non-skyline pipeline cheap
        #: (:data:`COLUMNAR_FILTER_COST_FACTOR` /
        #: :data:`COLUMNAR_PROJECT_COST_FACTOR`) and makes row-oriented
        #: repartition shuffles comparatively more expensive.
        self.columnar = columnar
        self.dense_fraction = DENSE_SKYLINE_FRACTION_VECTORIZED \
            if vectorized else DENSE_SKYLINE_FRACTION
        self.repartition_break_even = \
            REPARTITION_BREAK_EVEN_WINDOW_VECTORIZED if vectorized \
            else REPARTITION_BREAK_EVEN_WINDOW
        if columnar and vectorized:
            self.repartition_break_even *= COLUMNAR_REPARTITION_PENALTY

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
        """The full adaptive decision for one skyline operator."""
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
            if self.columnar:
                stats_lines += (
                    f"batch data plane: filter/project cost factors "
                    f"{COLUMNAR_FILTER_COST_FACTOR:.2f}/"
                    f"{COLUMNAR_PROJECT_COST_FACTOR:.2f} of row plane",)

        # (1) Correctness first: Listing 8's nullability rule.
        if not node.complete and node.dimensions_nullable:
            return PlanDecision(
                algorithm="distributed-incomplete",
                algorithm_reason="nullable dimensions without COMPLETE "
                                 "require the incomplete algorithm",
                partitioning="keep",
                partitioning_reason="null-bitmap partitioning is fixed "
                                    "by the incomplete algorithm",
                num_partitions=None,
                partitions_reason="one partition per distinct null "
                                  "bitmap",
                grid_cells_per_dim=None, estimated_rows=estimated,
                skyline_density=density, stats_lines=stats_lines)

        # (2) Tiny inputs: distribution overhead cannot pay off.
        if estimated is not None and estimated <= SMALL_INPUT_ROWS:
            return PlanDecision(
                algorithm="non-distributed-complete",
                algorithm_reason=f"input of ~{estimated} rows is below "
                                 f"the distribution threshold "
                                 f"({SMALL_INPUT_ROWS})",
                partitioning="keep",
                partitioning_reason="no local stage to partition for",
                num_partitions=1,
                partitions_reason="single global task",
                grid_cells_per_dim=None, estimated_rows=estimated,
                skyline_density=density, stats_lines=stats_lines)

        # (3) Algorithm: dense skylines pay many window comparisons
        # under BNL; presorting (SFS) then wins.
        value_dims = [] if dims is None else \
            [d for d in dims if d.kind is not DimensionKind.DIFF]
        if density is not None and density >= self.dense_fraction \
                and len(value_dims) >= 2:
            algorithm = "sfs"
            kernels = " (vectorized-kernel crossover)" \
                if self.vectorized else ""
            algorithm_reason = (f"dense skyline (sampled density "
                                f"{density:.2f} >= "
                                f"{self.dense_fraction}{kernels}) "
                                f"favours presorting")
        else:
            algorithm = "distributed-complete"
            if density is None:
                algorithm_reason = ("no density estimate; distributed "
                                    "BNL is the robust default")
            elif self.vectorized and density >= DENSE_SKYLINE_FRACTION:
                algorithm_reason = (f"sampled density {density:.2f} is "
                                    f"dense for scalar kernels, but the "
                                    f"vectorized block-BNL crossover "
                                    f"sits at "
                                    f"{self.dense_fraction}")
            else:
                algorithm_reason = (f"sparse-to-moderate skyline "
                                    f"(sampled density {density:.2f}) "
                                    f"favours distributed BNL")

        num_partitions, partitions_reason = self._partition_count(
            estimated, density)
        scheme, scheme_reason, cells = self._partitioning(
            dims, value_dims, density, stats, leaf, num_partitions,
            estimated)
        if scheme == "grid" and cells is not None:
            num_partitions = cells ** len(value_dims)
            partitions_reason = (f"{cells} cells per dimension over "
                                 f"{len(value_dims)} dimensions")
        elif scheme == "keep":
            num_partitions = None
            partitions_reason = "inherited from the scan parallelism"
        return PlanDecision(
            algorithm=algorithm, algorithm_reason=algorithm_reason,
            partitioning=scheme, partitioning_reason=scheme_reason,
            num_partitions=num_partitions,
            partitions_reason=partitions_reason,
            grid_cells_per_dim=cells, estimated_rows=estimated,
            skyline_density=density, stats_lines=stats_lines)

    def _partition_count(self, estimated: int | None,
                         density: float | None) -> tuple[int, str]:
        cap = max(self.num_executors, self.max_workers or 0, 1)
        if density is not None and density >= self.dense_fraction:
            # Dense local skylines are compute-bound (quadratic window
            # scans): maximise parallelism regardless of row count.
            return cap, ("dense skyline: one partition per "
                         "executor/worker")
        if estimated is None:
            return cap, ("input size unknown; one partition per "
                         "executor/worker")
        ideal = max(1, math.ceil(estimated / TARGET_ROWS_PER_PARTITION))
        count = max(1, min(ideal, cap, MAX_ADAPTIVE_PARTITIONS))
        return count, (f"~{estimated} rows / "
                       f"{TARGET_ROWS_PER_PARTITION} target rows per "
                       f"partition, capped at {cap} workers")

    def _partitioning(self, dims, value_dims, density, stats, leaf,
                      num_partitions: int, estimated: int | None
                      ) -> tuple[str, str, int | None]:
        """Scheme for the local stage: keep, random, grid or angle."""
        if dims is None or stats is None or len(value_dims) < 2:
            return ("keep", "statistics unavailable or fewer than two "
                            "value dimensions: child partitioning "
                            "kept", None)
        kinds = {d.kind for d in value_dims}
        uniform = len(kinds) == 1
        if density is not None and density >= self.dense_fraction \
                and not self.vectorized:
            # Scalar kernels: dense local windows make every saved
            # window scan expensive, so a balancing repartition wins.
            # Vectorized kernels absorb dense windows block-wise and
            # fall through to the break-even test below instead.
            if uniform:
                kind = next(iter(kinds)).name
                return ("angle", f"dense skyline with uniformly "
                                 f"oriented (all-{kind}) dimensions: "
                                 f"angular slices balance local "
                                 f"skylines", None)
            return ("random", "dense skyline but mixed MIN/MAX "
                              "orientation: the angular transform does "
                              "not apply", None)
        if num_partitions < 2:
            return ("keep", "single partition: no scheme needed", None)
        # Sparse skylines mean small local windows: a repartition
        # shuffle only pays off when the per-tuple window scans it
        # saves outweigh the extra non-parallelizable pass.
        if density is None or estimated is None:
            return ("keep", "no density/cardinality estimate: child "
                            "partitioning kept", None)
        expected_window = density * estimated / num_partitions
        if expected_window < self.repartition_break_even:
            if self.columnar and self.vectorized:
                suffix = ", batch data plane"
            elif self.vectorized:
                suffix = ", vectorized kernels"
            else:
                suffix = ""
            return ("keep", f"expected local window "
                            f"~{expected_window:.0f} rows is below the "
                            f"repartition break-even "
                            f"({self.repartition_break_even}{suffix}): "
                            f"child partitioning kept", None)
        cells = self._grid_cells(value_dims, leaf, stats,
                                 num_partitions)
        if cells is not None and cells >= 2:
            return ("grid", f"moderate skyline density "
                            f"({density:.2f}): equi-width grid enables "
                            f"cell-dominance pruning; {cells} cells "
                            f"per dimension sized from the column "
                            f"histograms", cells)
        return ("random", "histograms too concentrated for a useful "
                          "grid", None)

    def _grid_cells(self, value_dims, leaf, stats,
                    num_partitions: int) -> int | None:
        """Cells per dimension, bounded by histogram occupancy.

        A dimension whose values land in few histogram buckets cannot
        support more grid cells than that -- extra cells would be empty.
        """
        output = leaf.output
        occupancy = []
        for dim in value_dims:
            column = stats.column(output[dim.index].name)
            if column is None or column.histogram is None:
                return None
            occupancy.append(column.histogram.non_empty_buckets)
        wanted = max(2, round(num_partitions
                              ** (1.0 / len(value_dims))))
        # Honour the hard cap: cells ** dims is the resulting partition
        # count, so bound the per-dimension cells accordingly (high
        # dimension counts fall back to random via the >= 2 check).
        ceiling = int(MAX_ADAPTIVE_PARTITIONS
                      ** (1.0 / len(value_dims)))
        return max(1, min(wanted, min(occupancy), ceiling))


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


def choose_strategy(node: L.SkylineOperator, catalog=None,
                    num_executors: int = 2) -> CostDecision:
    """Pick the best-suited *algorithm* for this skyline operator.

    The legacy ``cost-based`` entry point: algorithm only, no
    partitioning (use :meth:`CostModel.decide` for the full adaptive
    decision).
    """
    decision = CostModel(catalog, num_executors).decide(node)
    return CostDecision(
        strategy=decision.algorithm,
        estimated_rows=decision.estimated_rows,
        sample_skyline_fraction=decision.skyline_density,
        reason=decision.algorithm_reason)
