"""The Catalyst-style rule-based optimizer.

Generic batches (constant folding, filter pushdown, plan simplification)
apply to every query -- skyline queries "benefit from existing
optimizations" (Section 5.4) -- plus the skyline-specific rules:

* :class:`SingleDimensionSkyline` -- a skyline over one MIN/MAX dimension
  is just the optimum of that dimension; rewritten into a scalar-subquery
  min/max filter, which is O(n) instead of a full skyline run.
* :class:`PushSkylineThroughJoin` -- a skyline whose dimensions all come
  from one side of a *non-reductive* join (Carey & Kossmann [6]) is
  pushed below the join, shrinking both operators' inputs.
* :class:`RewriteExistsJoin` -- correlated ``[NOT] EXISTS`` becomes a
  left-semi/anti join; this is the plan the plain-SQL reference
  formulation of skyline queries executes.
"""

from __future__ import annotations

from typing import Sequence

from ..engine import expressions as E
from ..engine.catalog import Catalog
from . import logical as L

_MAX_ITERATIONS = 25


class Rule:
    """A logical-plan rewrite rule."""

    name = "rule"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        raise NotImplementedError


class Batch:
    """A named group of rules executed to fixed point (like Catalyst)."""

    def __init__(self, name: str, rules: Sequence[Rule],
                 once: bool = False) -> None:
        self.name = name
        self.rules = list(rules)
        self.once = once

    def execute(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        iterations = 1 if self.once else _MAX_ITERATIONS
        for _ in range(iterations):
            before = L.tree_string(plan)
            for rule in self.rules:
                plan = rule.apply(plan)
            if L.tree_string(plan) == before:
                break
        return plan


# ---------------------------------------------------------------------------
# Generic rules
# ---------------------------------------------------------------------------


class EliminateSubqueryAliases(Rule):
    """Drop SubqueryAlias nodes -- after analysis, qualifiers are moot."""

    name = "EliminateSubqueryAliases"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if isinstance(node, L.SubqueryAlias):
                return node.child
            return node

        return plan.transform_up(rule)


class ConstantFolding(Rule):
    """Evaluate reference-free sub-expressions at plan time."""

    name = "ConstantFolding"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def fold(expr: E.Expression) -> E.Expression:
            if isinstance(expr, (E.Literal, E.AggregateFunction, E.Alias,
                                 E.SubqueryExpression, E.SkylineDimension,
                                 L.SortOrder)):
                return expr
            if not expr.children:
                return expr
            if all(isinstance(c, E.Literal) for c in expr.children) and \
                    expr.resolved:
                try:
                    return E.Literal(expr.eval(()), expr.dtype)
                except Exception:
                    return expr
            return expr

        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            return node.transform_expressions_up(fold)

        return plan.transform_up(rule)


class BooleanSimplification(Rule):
    """Short-circuit constant TRUE/FALSE in boolean connectives."""

    name = "BooleanSimplification"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def simplify(expr: E.Expression) -> E.Expression:
            if isinstance(expr, E.And):
                if _is_true(expr.left):
                    return expr.right
                if _is_true(expr.right):
                    return expr.left
                if _is_false(expr.left) or _is_false(expr.right):
                    return E.Literal(False)
            elif isinstance(expr, E.Or):
                if _is_false(expr.left):
                    return expr.right
                if _is_false(expr.right):
                    return expr.left
                if _is_true(expr.left) or _is_true(expr.right):
                    return E.Literal(True)
            elif isinstance(expr, E.Not):
                child = expr.children[0]
                if _is_true(child):
                    return E.Literal(False)
                if _is_false(child):
                    return E.Literal(True)
                if isinstance(child, E.Not):
                    return child.children[0]
            return expr

        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            return node.transform_expressions_up(simplify)

        return plan.transform_up(rule)


class PruneFilters(Rule):
    """Remove always-true filters."""

    name = "PruneFilters"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if isinstance(node, L.Filter) and _is_true(node.condition):
                return node.child
            return node

        return plan.transform_up(rule)


class CombineFilters(Rule):
    name = "CombineFilters"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if isinstance(node, L.Filter) and isinstance(node.child,
                                                         L.Filter):
                inner = node.child
                return L.Filter(E.And(inner.condition, node.condition),
                                inner.child)
            return node

        return plan.transform_up(rule)


class CollapseProjects(Rule):
    """Merge adjacent Projects by inlining alias definitions."""

    name = "CollapseProjects"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if not (isinstance(node, L.Project)
                    and isinstance(node.child, L.Project)):
                return node
            inner = node.child
            mapping = _projection_mapping(inner.projections)
            try:
                merged = [self._merge_projection(p, mapping)
                          for p in node.projections]
            except KeyError:
                return node
            return L.Project(merged, inner.child)

        return plan.transform_up(rule)

    @staticmethod
    def _merge_projection(projection: E.Expression,
                          mapping: dict) -> E.Expression:
        """Inline ``mapping`` while preserving the output name and id."""
        if isinstance(projection, E.AttributeReference):
            replacement = mapping[projection.expr_id]
            if isinstance(replacement, E.AttributeReference):
                return replacement
            # The outer node exposed the inner alias's attribute; rewrap
            # so the merged Project keeps the same output attribute.
            return E.Alias(replacement, projection.name,
                           projection.expr_id)
        if isinstance(projection, E.Alias):
            return E.Alias(_substitute(projection.child, mapping),
                           projection.name, projection.expr_id)
        return _substitute(projection, mapping)


class PushDownPredicate(Rule):
    """Push filters below projects and into join sides."""

    name = "PushDownPredicate"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if not isinstance(node, L.Filter):
                return node
            child = node.child
            if isinstance(child, L.Project):
                if any(p.contains_aggregate() for p in child.projections):
                    return node
                mapping = _projection_mapping(child.projections)
                try:
                    pushed = _substitute(node.condition, mapping)
                except KeyError:
                    return node
                return L.Project(child.projections,
                                 L.Filter(pushed, child.child))
            if isinstance(child, L.Join):
                return self._push_into_join(node, child)
            return node

        return plan.transform_up(rule)

    def _push_into_join(self, filter_node: L.Filter,
                        join: L.Join) -> L.LogicalPlan:
        if join.join_type not in (L.JoinType.INNER, L.JoinType.CROSS):
            return filter_node
        left_ids = {a.expr_id for a in join.left.output}
        right_ids = {a.expr_id for a in join.right.output}
        left_only: list[E.Expression] = []
        right_only: list[E.Expression] = []
        rest: list[E.Expression] = []
        for conjunct in E.split_conjuncts(filter_node.condition):
            refs = {r.expr_id for r in conjunct.references()}
            if refs and refs <= left_ids:
                left_only.append(conjunct)
            elif refs and refs <= right_ids:
                right_only.append(conjunct)
            else:
                rest.append(conjunct)
        if not left_only and not right_only:
            return filter_node
        new_left = L.Filter(E.conjunction(left_only), join.left) \
            if left_only else join.left
        new_right = L.Filter(E.conjunction(right_only), join.right) \
            if right_only else join.right
        new_join = L.Join(new_left, new_right, join.join_type,
                          join.condition)
        if rest:
            return L.Filter(E.conjunction(rest), new_join)
        return new_join


class RewriteExistsJoin(Rule):
    """Correlated ``[NOT] EXISTS`` -> left-semi/anti join.

    This is the plan Spark produces for the plain-SQL skyline rewrite
    (Listing 4): the dominance predicates are correlated, so they become
    the join condition of a (nested-loop) anti join -- the quadratic
    "reference" algorithm of the evaluation.
    """

    name = "RewriteExistsJoin"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if not isinstance(node, L.Filter):
                return node
            conjuncts = E.split_conjuncts(node.condition)
            remaining: list[E.Expression] = []
            result: L.LogicalPlan = node.child
            rewritten = False
            for conjunct in conjuncts:
                exists, negated = _match_exists(conjunct)
                if exists is None:
                    remaining.append(conjunct)
                    continue
                subplan, correlated = _decorrelate(exists.plan,
                                                   result.output)
                join_type = L.JoinType.LEFT_ANTI if negated \
                    else L.JoinType.LEFT_SEMI
                result = L.Join(result, subplan, join_type,
                                E.conjunction(correlated)
                                if correlated else None)
                rewritten = True
            if not rewritten:
                return node
            if remaining:
                return L.Filter(E.conjunction(remaining), result)
            return result

        return plan.transform_up(rule)


def _match_exists(expr: E.Expression) -> tuple[E.Exists | None, bool]:
    if isinstance(expr, E.Exists):
        return expr, False
    if isinstance(expr, E.Not) and isinstance(expr.children[0], E.Exists):
        return expr.children[0], True
    return None, False


def _decorrelate(subplan: L.LogicalPlan,
                 outer_output: Sequence[E.AttributeReference]
                 ) -> tuple[L.LogicalPlan, list[E.Expression]]:
    """Strip correlated predicates out of ``subplan``.

    A conjunct inside a Filter of the subquery is *correlated* if it
    contains an :class:`~repro.engine.expressions.OuterReference`.
    Correlated conjuncts are removed from the subquery, unwrapped, and
    returned for use as the join condition.

    ``EXISTS`` ignores the select list, so a top-level Project that
    prunes columns is dropped: the conjuncts pulled above it may read
    them.  A ``SELECT *`` Project keeps every column and stays.
    """
    if isinstance(subplan, L.Project):
        kept = {a.expr_id for a in subplan.output}
        if any(a.expr_id not in kept for a in subplan.child.output):
            subplan = subplan.child
    correlated: list[E.Expression] = []

    def strip(node: L.LogicalPlan) -> L.LogicalPlan:
        if isinstance(node, L.Filter):
            local: list[E.Expression] = []
            for conjunct in E.split_conjuncts(node.condition):
                if E.contains_outer_reference(conjunct):
                    correlated.append(E.strip_outer_references(conjunct))
                else:
                    local.append(conjunct)
            if not local:
                return node.child
            return L.Filter(E.conjunction(local), node.child)
        return node

    stripped = subplan.transform_up(strip)
    return stripped, correlated


# ---------------------------------------------------------------------------
# Skyline rules (Section 5.4)
# ---------------------------------------------------------------------------


class SingleDimensionSkyline(Rule):
    """A single-MIN/MAX-dimension skyline is a plain optimum (Section 5.4).

    ``SKYLINE OF d MIN`` selects exactly the tuples whose ``d`` equals
    ``(SELECT min(d) ...)`` -- O(n) via a scalar subquery instead of a
    skyline computation.  The paper chooses the scalar subquery over
    sort-and-limit for exactly this complexity reason.

    For potentially incomplete data, tuples that are null in the
    dimension are incomparable with everything and therefore also belong
    to the skyline; the rewrite keeps them with an ``IS NULL`` disjunct.
    """

    name = "SingleDimensionSkyline"

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if not isinstance(node, L.SkylineOperator):
                return node
            if len(node.skyline_items) != 1:
                return node
            item = node.skyline_items[0]
            from ..core.dominance import DimensionKind
            if item.kind is DimensionKind.DIFF:
                return node
            dim = item.child
            if not isinstance(dim, E.AttributeReference):
                return node
            agg_fn: E.AggregateFunction
            if item.kind is DimensionKind.MIN:
                agg_fn = E.Min(dim)
            else:
                agg_fn = E.Max(dim)
            alias = E.Alias(agg_fn, f"{agg_fn.name}({dim.name})")
            subquery_plan = L.Aggregate([], [alias], node.child)
            condition: E.Expression = E.EqualTo(
                dim, E.ScalarSubquery(subquery_plan))
            treat_complete = node.complete or not item.nullable
            if not treat_complete:
                condition = E.Or(E.IsNull(dim), condition)
            result: L.LogicalPlan = L.Filter(condition, node.child)
            if node.distinct:
                result = L.Limit(1, result)
            return result

        return plan.transform_up(rule)


class PushSkylineThroughJoin(Rule):
    """Push a skyline below a non-reductive join (Section 5.4, [5, 6]).

    Applicable when every skyline dimension comes from one join side and
    the join cannot eliminate rows of that side.  Non-reductiveness is
    established from catalog constraints: the equi-join keys of the
    skyline side must form a foreign key referencing the other side's
    primary (or unique) key, with non-nullable referencing columns.
    """

    name = "PushSkylineThroughJoin"

    def __init__(self, catalog: Catalog | None = None) -> None:
        self.catalog = catalog

    def apply(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            if not isinstance(node, L.SkylineOperator):
                return node
            child = node.children[0]
            # See through a pure column-selection Project (commonly left
            # behind by the analyzer's missing-reference handling): the
            # skyline commutes with it as long as its dimensions resolve
            # below.
            if isinstance(child, L.Project) and \
                    isinstance(child.child, L.Join) and \
                    all(isinstance(p, E.AttributeReference)
                        for p in child.projections):
                pushed = rule(node.copy(child=child.child))
                if not isinstance(pushed, L.SkylineOperator):
                    return L.Project(child.projections, pushed)
                return node
            if not isinstance(child, L.Join):
                return node
            join = child
            if join.join_type != L.JoinType.INNER or join.condition is None:
                return node
            dim_refs = set()
            for item in node.skyline_items:
                dim_refs |= {r.expr_id for r in item.references()}
            left_ids = {a.expr_id for a in join.left.output}
            right_ids = {a.expr_id for a in join.right.output}
            if dim_refs and dim_refs <= left_ids:
                side, other, side_is_left = join.left, join.right, True
            elif dim_refs and dim_refs <= right_ids:
                side, other, side_is_left = join.right, join.left, False
            else:
                return node
            if not self._non_reductive(join, side, other):
                return node
            pushed = node.copy(child=side)
            if side_is_left:
                new_join = L.Join(pushed, other, join.join_type,
                                  join.condition)
            else:
                new_join = L.Join(other, pushed, join.join_type,
                                  join.condition)
            return new_join

        return plan.transform_up(rule)

    def _non_reductive(self, join: L.Join, side: L.LogicalPlan,
                       other: L.LogicalPlan) -> bool:
        """Check the FK/PK pattern that guarantees every ``side`` row joins."""
        provenance = _attribute_provenance(side)
        other_provenance = _attribute_provenance(other)
        if provenance is None or other_provenance is None:
            return False
        side_ids = {a.expr_id for a in side.output}
        equalities: list[tuple[E.AttributeReference,
                               E.AttributeReference]] = []
        for conjunct in E.split_conjuncts(join.condition):
            if not isinstance(conjunct, E.EqualTo):
                return False
            left, right = conjunct.left, conjunct.right
            if not (isinstance(left, E.AttributeReference)
                    and isinstance(right, E.AttributeReference)):
                return False
            if left.expr_id in side_ids:
                equalities.append((left, right))
            else:
                equalities.append((right, left))
        if not equalities:
            return False
        side_columns = []
        other_columns = []
        side_table = other_table = None
        for side_attr, other_attr in equalities:
            if side_attr.nullable:
                return False
            side_info = provenance.get(side_attr.expr_id)
            other_info = other_provenance.get(other_attr.expr_id)
            if side_info is None or other_info is None:
                return False
            if side_table is None:
                side_table = side_info[0]
            if other_table is None:
                other_table = other_info[0]
            if side_info[0] is not side_table or \
                    other_info[0] is not other_table:
                return False
            side_columns.append(side_info[1])
            other_columns.append(other_info[1])
        if side_table is None or other_table is None:
            return False
        # The joined-to columns must be a key of the other table so the
        # join cannot multiply rows arbitrarily *and* must be the target
        # of a foreign key from the skyline side so every row matches.
        other_key = set(other_columns)
        is_key = (set(other_table.primary_key) == other_key
                  or any(set(k) == other_key
                         for k in other_table.unique_keys))
        if not is_key:
            return False
        for fk in side_table.foreign_keys:
            if (fk.ref_table.lower() == other_table.name.lower()
                    and set(fk.columns) == set(side_columns)
                    and set(fk.ref_columns) == other_key):
                return True
        return False


def _attribute_provenance(plan: L.LogicalPlan) -> dict | None:
    """Map attribute expr_ids to ``(Table, column_name)`` origins.

    Returns None when the plan derives columns (aliases over computed
    expressions) in ways that break direct provenance.
    """
    mapping: dict[int, tuple] = {}

    def walk(node: L.LogicalPlan) -> bool:
        if isinstance(node, L.LogicalRelation):
            for attr, field in zip(node.output, node.table.schema):
                mapping[attr.expr_id] = (node.table, field.name)
            return True
        if isinstance(node, (L.SubqueryAlias, L.Filter, L.Distinct,
                             L.Limit, L.Sort, L.SkylineOperator)):
            return walk(node.children[0])
        if isinstance(node, L.Project):
            if not walk(node.child):
                return False
            for projection in node.projections:
                if isinstance(projection, E.Alias) and isinstance(
                        projection.child, E.AttributeReference):
                    origin = mapping.get(projection.child.expr_id)
                    if origin is not None:
                        mapping[projection.expr_id] = origin
            return True
        return False

    if not walk(plan):
        return None
    return mapping


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _is_true(expr: E.Expression) -> bool:
    return isinstance(expr, E.Literal) and expr.value is True


def _is_false(expr: E.Expression) -> bool:
    return isinstance(expr, E.Literal) and expr.value is False


def _projection_mapping(projections: Sequence[E.Expression]) -> dict:
    mapping: dict[int, E.Expression] = {}
    for projection in projections:
        if isinstance(projection, E.Alias):
            mapping[projection.expr_id] = projection.child
        elif isinstance(projection, E.AttributeReference):
            mapping[projection.expr_id] = projection
    return mapping


def _substitute(expr: E.Expression, mapping: dict) -> E.Expression:
    """Replace attribute references using ``mapping``; raises KeyError if a
    reference has no definition (caller then skips the rewrite)."""

    def step(node: E.Expression) -> E.Expression:
        if isinstance(node, E.AttributeReference):
            if node.expr_id not in mapping:
                raise KeyError(node.expr_id)
            return mapping[node.expr_id]
        return node

    return expr.transform_up(step)


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------


class Optimizer:
    """Runs the rule batches over a resolved logical plan."""

    def __init__(self, catalog: Catalog | None = None,
                 enable_skyline_rules: bool = True) -> None:
        self.catalog = catalog
        skyline_rules: list[Rule] = []
        if enable_skyline_rules:
            skyline_rules = [PushSkylineThroughJoin(catalog),
                             SingleDimensionSkyline()]
        self.batches = [
            Batch("Finish analysis", [EliminateSubqueryAliases()],
                  once=True),
            Batch("Subquery rewriting", [RewriteExistsJoin()]),
            Batch("Skyline optimizations", skyline_rules),
            Batch("Operator optimizations", [
                ConstantFolding(),
                BooleanSimplification(),
                PruneFilters(),
                CombineFilters(),
                CollapseProjects(),
                PushDownPredicate(),
            ]),
        ]

    def optimize(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        plan = self._optimize_subqueries(plan)
        for batch in self.batches:
            plan = batch.execute(plan)
        return plan

    def _optimize_subqueries(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        optimizer = self

        def rule(node: L.LogicalPlan) -> L.LogicalPlan:
            def fix_expr(expr: E.Expression) -> E.Expression:
                if isinstance(expr, E.ScalarSubquery):
                    return expr.with_plan(optimizer.optimize(expr.plan))
                return expr

            return node.transform_expressions_up(fix_expr)

        return plan.transform_up(rule)
