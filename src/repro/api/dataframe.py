"""DataFrame API with skyline support (Section 5.8 of the paper).

The paper extends the Scala/Java DataFrame API with skyline functions and
mirrors them into PySpark/SparkR; this module is the Python-native
equivalent.  Skyline dimensions are supplied either via
``smin()/smax()/sdiff()`` columns:

    df.skyline(smin("price"), smax("rating"))

or as (name, kind) pairs, the "R-style" input of Section 5.8:

    df.skyline_of([("price", "min"), ("rating", "max")])

Like Spark, DataFrames are lazy: transformations compose a logical plan
and actions (``collect``, ``count``, ...) run the pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..core.dominance import DimensionKind
from ..engine import expressions as E
from ..engine.functions import col as _col
from ..engine.row import Row
from ..errors import AnalysisError
from ..plan import logical as L
from ..sql.parser import parse_expression

if TYPE_CHECKING:  # pragma: no cover
    from .session import QueryResult, SkylineSession


def _to_expression(value: "E.Expression | str | Any") -> E.Expression:
    if isinstance(value, E.Expression):
        return value
    if isinstance(value, str):
        return parse_expression(value)
    return E.Literal(value)


class DataFrame:
    """A lazy, immutable query description bound to a session.

    One from :meth:`SkylineSession.sql` remembers its statement text and
    runs through the catalog's plan cache; derived DataFrames (``filter``,
    ``skyline``, ...) carry a new plan and are planned when run.
    """

    def __init__(self, plan: L.LogicalPlan, session: "SkylineSession",
                 sql: "str | None" = None) -> None:
        self._plan = plan
        self._session = session
        self._sql = sql

    # -- plumbing ---------------------------------------------------------

    @property
    def plan(self) -> L.LogicalPlan:
        return self._plan

    @property
    def session(self) -> "SkylineSession":
        return self._session

    def _with_plan(self, plan: L.LogicalPlan) -> "DataFrame":
        return DataFrame(plan, self._session)

    # -- transformations -----------------------------------------------------

    def select(self, *columns: "E.Expression | str") -> "DataFrame":
        if not columns:
            raise AnalysisError("select() requires at least one column")
        projections: list[E.Expression] = []
        for column in columns:
            if isinstance(column, str) and column == "*":
                projections.append(E.UnresolvedStar())
            else:
                expr = _to_expression(column)
                if not isinstance(expr, (E.Alias, E.UnresolvedAttribute,
                                         E.AttributeReference,
                                         E.UnresolvedStar)):
                    expr = E.Alias(expr, expr.display_name)
                projections.append(expr)
        return self._with_plan(L.Project(projections, self._plan))

    def where(self, condition: "E.Expression | str") -> "DataFrame":
        return self._with_plan(
            L.Filter(_to_expression(condition), self._plan))

    filter = where

    def join(self, other: "DataFrame",
             on: "E.Expression | str | Sequence[str] | None" = None,
             how: str = "inner") -> "DataFrame":
        """Join with another DataFrame.

        ``on`` is a condition expression, a column-name list (USING
        semantics), or None (cross join).  ``how`` accepts the Spark
        spellings (``inner``, ``left``, ``left_outer``, ``right``,
        ``full``, ``semi``, ``anti``, ``cross``).
        """
        join_type = _JOIN_TYPES.get(how.lower().replace("outer", "").strip(
            "_ "), None)
        if join_type is None:
            raise AnalysisError(f"unknown join type {how!r}")
        if on is None:
            return self._with_plan(
                L.Join(self._plan, other._plan, L.JoinType.CROSS))
        if isinstance(on, (list, tuple)):
            return self._with_plan(
                L.Join(self._plan, other._plan, join_type,
                       using_columns=tuple(on)))
        if isinstance(on, str):
            if on.strip().isidentifier():
                # A bare column name: USING semantics.
                return self._with_plan(
                    L.Join(self._plan, other._plan, join_type,
                           using_columns=(on,)))
            on = parse_expression(on)
        return self._with_plan(
            L.Join(self._plan, other._plan, join_type,
                   condition=_to_expression(on)))

    def group_by(self, *columns: "E.Expression | str") -> "GroupedData":
        return GroupedData(self, [_to_expression(c) for c in columns])

    groupBy = group_by

    def order_by(self, *columns: "E.Expression | str",
                 ascending: "bool | Sequence[bool]" = True) -> "DataFrame":
        exprs = [_to_expression(c) for c in columns]
        if isinstance(ascending, bool):
            directions = [ascending] * len(exprs)
        else:
            directions = list(ascending)
        if len(directions) != len(exprs):
            raise AnalysisError(
                "ascending must match the number of sort columns")
        order = []
        for expr, asc in zip(exprs, directions):
            if isinstance(expr, L.SortOrder):
                order.append(expr)
            else:
                order.append(L.SortOrder(expr, asc))
        return self._with_plan(L.Sort(order, True, self._plan))

    orderBy = order_by

    def limit(self, n: int) -> "DataFrame":
        return self._with_plan(L.Limit(n, self._plan))

    def distinct(self) -> "DataFrame":
        return self._with_plan(L.Distinct(self._plan))

    def alias(self, name: str) -> "DataFrame":
        return self._with_plan(L.SubqueryAlias(name, self._plan))

    # -- the skyline API (Section 5.8) ------------------------------------------

    def skyline(self, *dimensions: E.SkylineDimension,
                distinct: bool = False,
                complete: bool = False) -> "DataFrame":
        """Skyline over ``smin()/smax()/sdiff()`` dimension columns.

        ``complete=True`` corresponds to the ``COMPLETE`` keyword: the
        user asserts no nulls occur in the skyline dimensions, so the
        faster complete algorithm may be chosen regardless of schema
        nullability (Section 5.5).

        >>> from repro import SkylineSession, smin, smax
        >>> session = SkylineSession()
        >>> df = session.create_dataframe(
        ...     [(120.0, 4.5), (90.0, 4.0), (250.0, 4.9), (150.0, 3.0)],
        ...     ["price", "rating"])
        >>> sorted(df.skyline(smin("price"), smax("rating")).to_tuples())
        [(90.0, 4.0), (120.0, 4.5), (250.0, 4.9)]
        """
        if not dimensions:
            raise AnalysisError("skyline() requires at least one dimension")
        items = []
        for dimension in dimensions:
            if not isinstance(dimension, E.SkylineDimension):
                raise AnalysisError(
                    "skyline() arguments must be smin()/smax()/sdiff() "
                    f"columns, got {dimension!r}")
            items.append(dimension)
        return self._with_plan(
            L.SkylineOperator(distinct, complete, items, self._plan))

    def skyline_of(self,
                   dimensions: "Sequence[tuple[str, DimensionKind | str]]",
                   distinct: bool = False,
                   complete: bool = False) -> "DataFrame":
        """Skyline over ``(column_name, kind)`` pairs.

        Mirrors the paired list-of-strings input of the paper's
        PySpark/R bridges.

        >>> from repro import SkylineSession
        >>> session = SkylineSession()
        >>> df = session.create_dataframe(
        ...     [(120.0, 4.5), (90.0, 4.0), (250.0, 4.9), (150.0, 3.0)],
        ...     ["price", "rating"])
        >>> result = df.skyline_of([("price", "min"), ("rating", "max")])
        >>> len(result.collect())
        3
        """
        items = [E.SkylineDimension(_col(name), DimensionKind.of(kind))
                 for name, kind in dimensions]
        if not items:
            raise AnalysisError(
                "skyline_of() requires at least one dimension")
        return self._with_plan(
            L.SkylineOperator(distinct, complete, items, self._plan))

    # -- actions --------------------------------------------------------------------

    def collect(self) -> list[Row]:
        return self.run().rows

    def run(self) -> "QueryResult":
        """Execute and return rows plus execution metrics."""
        if self._sql is not None:
            return self._session.execute_prepared(
                self._session.planned(self._sql, self._plan).prepared)
        return self._session.execute(self._plan)

    def count(self) -> int:
        return len(self.collect())

    def to_tuples(self) -> list[tuple]:
        return [row.as_tuple() for row in self.collect()]

    def show(self, n: int = 20) -> str:
        """A formatted table of up to ``n`` rows (returned, also printed)."""
        result = self.run()
        names = result.schema.names
        rows = [tuple(row) for row in result.rows[:n]]
        widths = [len(name) for name in names]
        for row in rows:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(str(value)))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [sep,
                 "|" + "|".join(f" {name:<{w}} "
                                for name, w in zip(names, widths)) + "|",
                 sep]
        for row in rows:
            lines.append("|" + "|".join(
                f" {str(value):<{w}} " for value, w in zip(row, widths))
                + "|")
        lines.append(sep)
        if len(result.rows) > n:
            lines.append(f"only showing top {n} of {len(result.rows)} rows")
        text = "\n".join(lines)
        print(text)
        return text

    def explain(self) -> str:
        """Print and return the analyzed/optimized/physical plans.

        Skyline queries include a ``== Skyline Strategy ==`` section:
        the chosen algorithm and the partitions its local stage runs
        on, each with its reason.  Every physical operator is marked
        ``*(N)`` with the stage it executes in
        (operators sharing a number run fused in one stage), and
        every data-plane operator is tagged with its execution mode --
        ``[batch]`` when it exchanges
        :class:`~repro.engine.batch.ColumnBatch`es on the columnar
        data plane, ``[row]`` otherwise (sorts and nested-loop joins
        always run on rows).

        >>> import repro
        >>> from repro import smin
        >>> session = repro.connect()
        >>> df = session.create_dataframe(
        ...     [(1.0, 2.0), (2.0, 1.0)], ["a", "b"]
        ...     ).skyline(smin("a"), smin("b"))
        >>> text = session.explain(df.plan)  # explain() also prints
        >>> "== Skyline Strategy ==" in text
        True
        >>> "algorithm" in text and "partitions" in text
        True
        """
        text = self._session.explain(self._plan)
        print(text)
        return text

    @property
    def columns(self) -> list[str]:
        return [a.name for a in self._session.analyze(self._plan).output]


_JOIN_TYPES = {
    "inner": L.JoinType.INNER,
    "left": L.JoinType.LEFT_OUTER,
    "right": L.JoinType.RIGHT_OUTER,
    "full": L.JoinType.FULL_OUTER,
    "semi": L.JoinType.LEFT_SEMI,
    "leftsemi": L.JoinType.LEFT_SEMI,
    "anti": L.JoinType.LEFT_ANTI,
    "leftanti": L.JoinType.LEFT_ANTI,
    "cross": L.JoinType.CROSS,
}


class GroupedData:
    """Result of ``DataFrame.group_by``; finish with ``agg``."""

    def __init__(self, dataframe: DataFrame,
                 grouping: list[E.Expression]) -> None:
        self._dataframe = dataframe
        self._grouping = grouping

    def agg(self, *aggregates: "E.Expression | str") -> DataFrame:
        if not aggregates:
            raise AnalysisError("agg() requires at least one aggregate")
        outputs: list[E.Expression] = list(self._grouping_named())
        for aggregate in aggregates:
            expr = _to_expression(aggregate)
            if not isinstance(expr, (E.Alias, E.UnresolvedAttribute,
                                     E.AttributeReference)):
                expr = E.Alias(expr, expr.display_name)
            outputs.append(expr)
        return self._dataframe._with_plan(
            L.Aggregate(self._grouping, outputs, self._dataframe.plan))

    def count(self) -> DataFrame:
        return self.agg(E.Alias(E.Count(E.Literal(1)), "count"))

    def _grouping_named(self) -> Iterable[E.Expression]:
        for expr in self._grouping:
            if isinstance(expr, (E.Alias, E.UnresolvedAttribute,
                                 E.AttributeReference)):
                yield expr
            else:
                yield E.Alias(expr, expr.display_name)
