"""Logical plan operators.

Parsing (or the DataFrame API) produces a tree of these nodes; the
analyzer resolves identifiers against the catalog, the optimizer rewrites
the tree, and the physical planner lowers it onto executable operators.

The skyline extension adds exactly one operator, ``SkylineOperator``,
with a single child -- "a single node with a single child in the logical
plan" (Section 5.2) -- carrying the skyline dimensions, the DISTINCT flag
and the COMPLETE flag.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..engine import expressions as E
from ..engine.catalog import Table
from ..errors import AnalysisError


class LogicalPlan:
    """Base class of logical operators."""

    children: tuple["LogicalPlan", ...] = ()

    # -- schema ------------------------------------------------------------

    @property
    def output(self) -> list[E.AttributeReference]:
        """The attributes this operator produces, in order."""
        raise NotImplementedError

    @E.resolved_property
    def resolved(self) -> bool:
        return (all(c.resolved for c in self.children)
                and all(e.resolved for e in self.expressions()))

    # -- expressions ---------------------------------------------------------

    def expressions(self) -> list[E.Expression]:
        """Top-level expressions of this node (not recursed into children)."""
        return []

    def map_expressions(self, fn: Callable[[E.Expression], E.Expression]
                        ) -> "LogicalPlan":
        """Copy of this node with ``fn`` applied to each top-level
        expression (not recursive into the expression trees)."""
        return self

    def transform_expressions_up(
            self, fn: Callable[[E.Expression], E.Expression]
    ) -> "LogicalPlan":
        """Apply ``fn`` bottom-up inside every expression of this node."""
        return self.map_expressions(lambda expr: expr.transform_up(fn))

    def references(self) -> set[E.AttributeReference]:
        refs: set[E.AttributeReference] = set()
        for expr in self.expressions():
            refs |= expr.references()
        return refs

    @property
    def input_attributes(self) -> list[E.AttributeReference]:
        """Union of children outputs (in order)."""
        attrs: list[E.AttributeReference] = []
        for child in self.children:
            attrs.extend(child.output)
        return attrs

    @property
    def missing_input(self) -> set[E.AttributeReference]:
        """References not satisfied by the children's output."""
        available = {a.expr_id for a in self.input_attributes}
        return {r for r in self.references() if r.expr_id not in available}

    # -- tree plumbing --------------------------------------------------------

    def with_children(self, children: Sequence["LogicalPlan"]
                      ) -> "LogicalPlan":
        raise NotImplementedError

    def transform_up(self, fn: Callable[["LogicalPlan"], "LogicalPlan"]
                     ) -> "LogicalPlan":
        if self.children:
            new_children = [c.transform_up(fn) for c in self.children]
            if any(n is not o for n, o in zip(new_children, self.children)):
                return fn(self.with_children(new_children))
        return fn(self)

    def iter_tree(self) -> Iterator["LogicalPlan"]:
        yield self
        for child in self.children:
            yield from child.iter_tree()

    # -- display ---------------------------------------------------------------

    def node_description(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return tree_string(self)


def tree_string(plan: LogicalPlan, indent: int = 0) -> str:
    lines = ["  " * indent + plan.node_description()]
    for child in plan.children:
        lines.append(tree_string(child, indent + 1))
    return "\n".join(lines)


class LeafNode(LogicalPlan):
    children = ()

    def with_children(self, children: Sequence[LogicalPlan]) -> LogicalPlan:
        return self


class UnaryNode(LogicalPlan):
    @property
    def child(self) -> LogicalPlan:
        return self.children[0]


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class UnresolvedRelation(LeafNode):
    """A table reference by name, before catalog lookup."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def resolved(self) -> bool:
        return False

    @property
    def output(self) -> list[E.AttributeReference]:
        raise AnalysisError(f"unresolved relation {self.name!r} has no schema")

    def node_description(self) -> str:
        return f"UnresolvedRelation({self.name})"


class LogicalRelation(LeafNode):
    """A resolved catalog table with stable output attributes."""

    def __init__(self, table: Table,
                 output: list[E.AttributeReference] | None = None) -> None:
        self.table = table
        if output is None:
            output = [E.AttributeReference(f.name, f.dtype, f.nullable)
                      for f in table.schema]
        self._output = output

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    def node_description(self) -> str:
        return f"Relation({self.table.name})"


class LocalRelation(LeafNode):
    """Literal in-memory data (used by ``createDataFrame`` and tests)."""

    def __init__(self, output: list[E.AttributeReference],
                 rows: list[tuple]) -> None:
        self._output = output
        self.rows = rows

    @property
    def output(self) -> list[E.AttributeReference]:
        return list(self._output)

    def node_description(self) -> str:
        return f"LocalRelation({len(self.rows)} rows)"


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class SubqueryAlias(UnaryNode):
    """``rel AS alias``: re-qualifies the child's output."""

    def __init__(self, alias: str, child: LogicalPlan) -> None:
        self.alias = alias
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return [a.with_qualifier(self.alias) for a in self.child.output]

    def with_children(self, children: Sequence[LogicalPlan]
                      ) -> "SubqueryAlias":
        return SubqueryAlias(self.alias, children[0])

    def node_description(self) -> str:
        return f"SubqueryAlias({self.alias})"


class Project(UnaryNode):
    def __init__(self, projections: Sequence[E.Expression],
                 child: LogicalPlan) -> None:
        self.projections = list(projections)
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return [E.named_output(p) for p in self.projections]

    @E.resolved_property
    def resolved(self) -> bool:
        if not super().resolved:
            return False
        # A projection list containing a star or a bare aggregate is not
        # final; also every element must be nameable.
        for p in self.projections:
            if isinstance(p, (E.UnresolvedStar, E.UnresolvedAttribute)):
                return False
            if not isinstance(p, (E.Alias, E.AttributeReference)):
                return False
        return not self.missing_input

    def expressions(self) -> list[E.Expression]:
        return list(self.projections)

    def map_expressions(self, fn) -> "Project":
        return Project([fn(p) for p in self.projections], self.child)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        return Project(self.projections, children[0])

    def node_description(self) -> str:
        cols = ", ".join(p.display_name for p in self.projections)
        return f"Project({cols})"


class Filter(UnaryNode):
    def __init__(self, condition: E.Expression, child: LogicalPlan) -> None:
        self.condition = condition
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.child.output

    @E.resolved_property
    def resolved(self) -> bool:
        return super().resolved and not self.missing_input

    def expressions(self) -> list[E.Expression]:
        return [self.condition]

    def map_expressions(self, fn) -> "Filter":
        return Filter(fn(self.condition), self.child)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        return Filter(self.condition, children[0])

    def node_description(self) -> str:
        return f"Filter({self.condition.sql()})"


class Distinct(UnaryNode):
    def __init__(self, child: LogicalPlan) -> None:
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.child.output

    def with_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        return Distinct(children[0])


class Limit(UnaryNode):
    def __init__(self, limit: int, child: LogicalPlan) -> None:
        self.limit = limit
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.child.output

    def with_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        return Limit(self.limit, children[0])

    def node_description(self) -> str:
        return f"Limit({self.limit})"


class SortOrder(E.Expression):
    """Ordering spec: expression + direction + null placement."""

    def __init__(self, child: E.Expression, ascending: bool = True,
                 nulls_first: bool | None = None) -> None:
        self.children = (child,)
        self.ascending = ascending
        # SQL default: NULLS FIRST for ASC, NULLS LAST for DESC.
        self.nulls_first = ascending if nulls_first is None else nulls_first

    @property
    def child(self) -> E.Expression:
        return self.children[0]

    @property
    def dtype(self):
        return self.child.dtype

    def with_children(self, children: Sequence[E.Expression]) -> "SortOrder":
        return SortOrder(children[0], self.ascending, self.nulls_first)

    def copy(self, child: E.Expression) -> "SortOrder":
        return SortOrder(child, self.ascending, self.nulls_first)

    def sql(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"{self.child.sql()} {direction}"


class Sort(UnaryNode):
    def __init__(self, order: Sequence[SortOrder], is_global: bool,
                 child: LogicalPlan) -> None:
        self.order = list(order)
        self.is_global = is_global
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.child.output

    @E.resolved_property
    def resolved(self) -> bool:
        return super().resolved and not self.missing_input

    def expressions(self) -> list[E.Expression]:
        return list(self.order)

    def map_expressions(self, fn) -> "Sort":
        new_order = []
        for o in self.order:
            mapped = fn(o)
            if not isinstance(mapped, SortOrder):
                mapped = o.copy(mapped)
            new_order.append(mapped)
        return Sort(new_order, self.is_global, self.child)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        return Sort(self.order, self.is_global, children[0])

    def copy(self, order: Sequence[SortOrder] | None = None,
             child: LogicalPlan | None = None) -> "Sort":
        return Sort(order if order is not None else self.order,
                    self.is_global,
                    child if child is not None else self.child)

    def node_description(self) -> str:
        keys = ", ".join(o.sql() for o in self.order)
        return f"Sort({keys})"


class Aggregate(UnaryNode):
    """``GROUP BY`` + aggregate select list.

    ``aggregate_expressions`` is the output list (each entry an Alias or
    AttributeReference, possibly containing AggregateFunction calls);
    ``grouping_expressions`` are the GROUP BY keys.
    """

    def __init__(self, grouping_expressions: Sequence[E.Expression],
                 aggregate_expressions: Sequence[E.Expression],
                 child: LogicalPlan) -> None:
        self.grouping_expressions = list(grouping_expressions)
        self.aggregate_expressions = list(aggregate_expressions)
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return [E.named_output(a) for a in self.aggregate_expressions]

    @E.resolved_property
    def resolved(self) -> bool:
        if not super().resolved:
            return False
        for a in self.aggregate_expressions:
            if not isinstance(a, (E.Alias, E.AttributeReference)):
                return False
        return not self.missing_input

    @property
    def missing_input(self) -> set[E.AttributeReference]:
        available = {a.expr_id for a in self.input_attributes}
        return {r for r in self.references() if r.expr_id not in available}

    def expressions(self) -> list[E.Expression]:
        return list(self.grouping_expressions) + list(
            self.aggregate_expressions)

    def map_expressions(self, fn) -> "Aggregate":
        return Aggregate([fn(g) for g in self.grouping_expressions],
                         [fn(a) for a in self.aggregate_expressions],
                         self.child)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        return Aggregate(self.grouping_expressions,
                         self.aggregate_expressions, children[0])

    def copy(self, grouping=None, aggregates=None,
             child=None) -> "Aggregate":
        return Aggregate(
            grouping if grouping is not None else self.grouping_expressions,
            aggregates if aggregates is not None
            else self.aggregate_expressions,
            child if child is not None else self.child)

    def node_description(self) -> str:
        keys = ", ".join(g.sql() for g in self.grouping_expressions)
        outs = ", ".join(a.display_name for a in self.aggregate_expressions)
        return f"Aggregate(keys=[{keys}], output=[{outs}])"


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


class JoinType:
    INNER = "inner"
    LEFT_OUTER = "left_outer"
    RIGHT_OUTER = "right_outer"
    FULL_OUTER = "full_outer"
    LEFT_SEMI = "left_semi"
    LEFT_ANTI = "left_anti"
    CROSS = "cross"

    ALL = (INNER, LEFT_OUTER, RIGHT_OUTER, FULL_OUTER, LEFT_SEMI, LEFT_ANTI,
           CROSS)


class Join(LogicalPlan):
    """Binary join; ``using_columns`` handles ``JOIN ... USING (c1, ...)``.

    For USING joins the analyzer rewrites the node into a condition-based
    join plus a projection merging the key columns, so the physical layer
    only ever sees ``condition``.
    """

    def __init__(self, left: LogicalPlan, right: LogicalPlan,
                 join_type: str = JoinType.INNER,
                 condition: E.Expression | None = None,
                 using_columns: Sequence[str] = ()) -> None:
        if join_type not in JoinType.ALL:
            raise AnalysisError(f"unsupported join type {join_type!r}")
        self.children = (left, right)
        self.join_type = join_type
        self.condition = condition
        self.using_columns = tuple(using_columns)

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    @property
    def output(self) -> list[E.AttributeReference]:
        if self.join_type in (JoinType.LEFT_SEMI, JoinType.LEFT_ANTI):
            return self.left.output
        left_out = self.left.output
        right_out = self.right.output
        if self.join_type in (JoinType.LEFT_OUTER, JoinType.FULL_OUTER):
            right_out = [a.with_nullability(True) for a in right_out]
        if self.join_type in (JoinType.RIGHT_OUTER, JoinType.FULL_OUTER):
            left_out = [a.with_nullability(True) for a in left_out]
        return left_out + right_out

    @E.resolved_property
    def resolved(self) -> bool:
        if self.using_columns:
            return False  # awaiting analyzer rewrite
        if not all(c.resolved for c in self.children):
            return False
        if self.condition is not None:
            if not self.condition.resolved:
                return False
            available = {a.expr_id for a in self.input_attributes}
            if any(r.expr_id not in available
                   for r in self.condition.references()):
                return False
        return True

    def expressions(self) -> list[E.Expression]:
        return [self.condition] if self.condition is not None else []

    def map_expressions(self, fn) -> "Join":
        condition = fn(self.condition) if self.condition is not None else None
        return Join(self.left, self.right, self.join_type, condition,
                    self.using_columns)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        return Join(children[0], children[1], self.join_type, self.condition,
                    self.using_columns)

    def node_description(self) -> str:
        cond = f", on={self.condition.sql()}" if self.condition is not None \
            else ""
        using = f", using={list(self.using_columns)}" if self.using_columns \
            else ""
        return f"Join({self.join_type}{cond}{using})"


# ---------------------------------------------------------------------------
# Skyline operator (Section 5.2)
# ---------------------------------------------------------------------------


class SkylineOperator(UnaryNode):
    """The skyline logical node.

    Stores the skyline dimensions (``skyline_items``, each a
    :class:`~repro.engine.expressions.SkylineDimension`), whether the
    result is DISTINCT over the skyline dimensions, and whether the user
    asserted completeness via the ``COMPLETE`` keyword (Section 5.5's
    algorithm-selection override).
    """

    def __init__(self, distinct: bool, complete: bool,
                 skyline_items: Sequence[E.SkylineDimension],
                 child: LogicalPlan) -> None:
        self.distinct = distinct
        self.complete = complete
        self.skyline_items = list(skyline_items)
        self.children = (child,)

    @property
    def output(self) -> list[E.AttributeReference]:
        return self.child.output

    @E.resolved_property
    def resolved(self) -> bool:
        if not self.skyline_items:
            return False
        return super().resolved and not self.missing_input

    def expressions(self) -> list[E.Expression]:
        return list(self.skyline_items)

    def map_expressions(self, fn) -> "SkylineOperator":
        items = []
        for item in self.skyline_items:
            mapped = fn(item)
            if not isinstance(mapped, E.SkylineDimension):
                mapped = item.copy(child=mapped)
            items.append(mapped)
        return SkylineOperator(self.distinct, self.complete, items,
                               self.child)

    def with_children(self, children: Sequence[LogicalPlan]
                      ) -> "SkylineOperator":
        return SkylineOperator(self.distinct, self.complete,
                               self.skyline_items, children[0])

    def copy(self, skyline_items: Sequence[E.SkylineDimension] | None = None,
             child: LogicalPlan | None = None) -> "SkylineOperator":
        return SkylineOperator(
            self.distinct, self.complete,
            skyline_items if skyline_items is not None
            else self.skyline_items,
            child if child is not None else self.child)

    @property
    def dimensions_nullable(self) -> bool:
        """True if any skyline dimension may produce nulls.

        This is the ``skylineNullable`` test of Listing 8; the planner
        picks the incomplete algorithm when it holds and COMPLETE was not
        asserted.
        """
        return any(item.nullable for item in self.skyline_items)

    def node_description(self) -> str:
        flags = []
        if self.distinct:
            flags.append("DISTINCT")
        if self.complete:
            flags.append("COMPLETE")
        dims = ", ".join(i.sql() for i in self.skyline_items)
        prefix = (" ".join(flags) + " ") if flags else ""
        return f"Skyline({prefix}{dims})"
