"""Expression trees.

The expression system mirrors Catalyst's: parsing produces *unresolved*
expressions (:class:`UnresolvedAttribute`, :class:`UnresolvedFunction`,
:class:`UnresolvedStar`), the analyzer resolves them into typed
expressions anchored on :class:`AttributeReference` (identified by a
globally unique ``expr_id`` exactly like Catalyst's ``ExprId``), and
physical planning *binds* attribute references to tuple ordinals
(:class:`BoundReference`) so evaluation in the hot loops is pure indexed
access.

SQL three-valued logic is implemented throughout: comparisons and
arithmetic propagate ``None``, ``AND``/``OR`` use Kleene logic, and
aggregates skip nulls.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..core.dominance import DimensionKind
from ..errors import AnalysisError
from .batch import B1, F8, I8, Column, ColumnBatch, int64_fits_float_exact
from .types import (BOOLEAN, DOUBLE, INTEGER, DataType, common_type,
                    infer_type, is_numeric, is_orderable)

_expr_id_counter = itertools.count(1)


def next_expr_id() -> int:
    """Allocate a fresh, process-unique expression id."""
    return next(_expr_id_counter)


def resolved_property(compute: Callable[[Any], bool]) -> property:
    """A ``resolved`` property that remembers a **True** verdict on the
    instance (never a False one).  Nodes are rebuilt, never mutated, by
    ``with_children``/``transform_*``, yet the analyzer's fixed point
    asks each one per rule, and every answer recursed over the subtree.
    Keyed per override: a ``super().resolved`` chain caches each level.
    """
    key = "_" + compute.__qualname__

    def resolved(self) -> bool:
        if key in self.__dict__:
            return True
        if compute(self):
            self.__dict__[key] = True
            return True
        return False

    return property(resolved, doc=compute.__doc__)


class Expression:
    """Base class of all expressions."""

    children: tuple["Expression", ...] = ()

    # -- resolution ------------------------------------------------------

    @resolved_property
    def resolved(self) -> bool:
        """True once all children are resolved and the type is known."""
        return all(c.resolved for c in self.children)

    @property
    def dtype(self) -> DataType:
        raise AnalysisError(f"unresolved expression has no type: {self!r}")

    @property
    def nullable(self) -> bool:
        return True

    # -- evaluation ------------------------------------------------------

    def eval(self, row: tuple) -> Any:
        """Evaluate against a row tuple; only valid once bound."""
        raise AnalysisError(f"cannot evaluate unbound expression {self!r}")

    def eval_batch(self, batch: "ColumnBatch") -> "Column":
        """Evaluate against a :class:`~repro.engine.batch.ColumnBatch`,
        returning one column with the same number of rows.

        This default implementation is the **automatic per-row
        fallback**: it evaluates :meth:`eval` on the batch's row view
        and re-encodes the results, so every expression works under the
        batch data plane even without a columnar form.  Subclasses with
        a faithful vectorized implementation override it (and fall back
        here whenever their operand columns cannot be evaluated exactly
        in typed arrays).
        """
        evaluate = self.eval
        return Column.from_values(
            [evaluate(row) for row in batch.to_rows()])

    # -- tree plumbing ---------------------------------------------------

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """Return a copy of this node with new children.

        The default implementation works for nodes whose constructor takes
        exactly the children in order; nodes with extra state override it.
        """
        if not self.children:
            return self
        return type(self)(*children)  # type: ignore[call-arg]

    def transform_up(self, fn: Callable[["Expression"], "Expression"]
                     ) -> "Expression":
        """Bottom-up rewrite: apply ``fn`` to children first, then self."""
        if self.children:
            new_children = [c.transform_up(fn) for c in self.children]
            if any(n is not o for n, o in zip(new_children, self.children)):
                return fn(self.with_children(new_children))
        return fn(self)

    def iter_tree(self) -> Iterator["Expression"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def references(self) -> set["AttributeReference"]:
        """All attribute references appearing in this tree."""
        return {e for e in self.iter_tree()
                if isinstance(e, AttributeReference)}

    def contains_aggregate(self) -> bool:
        return any(isinstance(e, AggregateFunction) for e in self.iter_tree())

    # -- operator sugar ----------------------------------------------------
    #
    # Arithmetic and ordering comparisons build expression trees, PySpark
    # Column style.  ``==`` is intentionally NOT overloaded: expression
    # node equality (by identity / expr_id) is needed by the planner.

    def __add__(self, other: "Expression | int | float") -> "Expression":
        return Add(self, _lift_operand(other))

    def __radd__(self, other: "Expression | int | float") -> "Expression":
        return Add(_lift_operand(other), self)

    def __sub__(self, other: "Expression | int | float") -> "Expression":
        return Subtract(self, _lift_operand(other))

    def __rsub__(self, other: "Expression | int | float") -> "Expression":
        return Subtract(_lift_operand(other), self)

    def __mul__(self, other: "Expression | int | float") -> "Expression":
        return Multiply(self, _lift_operand(other))

    def __rmul__(self, other: "Expression | int | float") -> "Expression":
        return Multiply(_lift_operand(other), self)

    def __truediv__(self, other: "Expression | int | float"
                    ) -> "Expression":
        return Divide(self, _lift_operand(other))

    def __mod__(self, other: "Expression | int | float") -> "Expression":
        return Modulo(self, _lift_operand(other))

    def __neg__(self) -> "Expression":
        return Negate(self)

    def __lt__(self, other: "Expression | int | float") -> "Expression":
        return LessThan(self, _lift_operand(other))

    def __le__(self, other: "Expression | int | float") -> "Expression":
        return LessThanOrEqual(self, _lift_operand(other))

    def __gt__(self, other: "Expression | int | float") -> "Expression":
        return GreaterThan(self, _lift_operand(other))

    def __ge__(self, other: "Expression | int | float") -> "Expression":
        return GreaterThanOrEqual(self, _lift_operand(other))

    def eq_value(self, other: "Expression | int | float") -> "Expression":
        """``self = other`` as an expression (named method because ``==``
        keeps node-identity semantics)."""
        return EqualTo(self, _lift_operand(other))

    def is_null(self) -> "Expression":
        return IsNull(self)

    def is_not_null(self) -> "Expression":
        return IsNotNull(self)

    # -- naming ----------------------------------------------------------

    def alias(self, name: str) -> "Alias":
        """``expr AS name`` -- convenience for the DataFrame API."""
        return Alias(self, name)

    @property
    def display_name(self) -> str:
        """Column name this expression would get without an alias."""
        return self.sql()

    def sql(self) -> str:
        return repr(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        args = ", ".join(repr(c) for c in self.children)
        return f"{type(self).__name__}({args})"


def _lift_operand(value: "Expression | int | float | str") -> "Expression":
    """Wrap a plain Python value used as an operator operand."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


class LeafExpression(Expression):
    children = ()

    def with_children(self, children: Sequence[Expression]) -> Expression:
        return self


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class Literal(LeafExpression):
    """A constant value with an explicit SQL type."""

    def __init__(self, value: Any, dtype: DataType | None = None) -> None:
        self.value = value
        self._dtype = dtype if dtype is not None else infer_type(value)

    @property
    def resolved(self) -> bool:
        return True

    @property
    def dtype(self) -> DataType:
        return self._dtype

    @property
    def nullable(self) -> bool:
        return self.value is None

    def eval(self, row: tuple) -> Any:
        return self.value

    def eval_batch(self, batch: ColumnBatch) -> Column:
        if self.value is None:
            return Column.nulls(batch.num_rows)
        return Column.constant(self.value, batch.num_rows)

    def sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Literal) and other.value == self.value
                and other._dtype == self._dtype)

    def __hash__(self) -> int:
        return hash((Literal, self.value, self._dtype))

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class UnresolvedAttribute(LeafExpression):
    """A column reference by name, optionally qualified (``t.col``)."""

    def __init__(self, name: str, qualifier: str | None = None) -> None:
        self.name = name
        self.qualifier = qualifier

    @property
    def resolved(self) -> bool:
        return False

    @property
    def display_name(self) -> str:
        return self.name

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __repr__(self) -> str:
        return f"'{self.sql()}"


class UnresolvedStar(LeafExpression):
    """``*`` or ``t.*`` in a select list."""

    def __init__(self, qualifier: str | None = None) -> None:
        self.qualifier = qualifier

    @property
    def resolved(self) -> bool:
        return False

    def sql(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


class AttributeReference(LeafExpression):
    """A resolved column, identified by a unique ``expr_id``.

    Like Catalyst's ``AttributeReference``: name collisions are fine
    because identity is the id, not the name.
    """

    def __init__(self, name: str, dtype: DataType, nullable: bool = True,
                 expr_id: int | None = None,
                 qualifier: str | None = None) -> None:
        self.name = name
        self._dtype = dtype
        self._nullable = nullable
        self.expr_id = expr_id if expr_id is not None else next_expr_id()
        self.qualifier = qualifier

    @property
    def resolved(self) -> bool:
        return True

    @property
    def dtype(self) -> DataType:
        return self._dtype

    @property
    def nullable(self) -> bool:
        return self._nullable

    @property
    def display_name(self) -> str:
        return self.name

    def with_qualifier(self, qualifier: str | None) -> "AttributeReference":
        return AttributeReference(self.name, self._dtype, self._nullable,
                                  self.expr_id, qualifier)

    def with_nullability(self, nullable: bool) -> "AttributeReference":
        return AttributeReference(self.name, self._dtype, nullable,
                                  self.expr_id, self.qualifier)

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AttributeReference)
                and other.expr_id == self.expr_id)

    def __hash__(self) -> int:
        return hash((AttributeReference, self.expr_id))

    def __repr__(self) -> str:
        return f"{self.name}#{self.expr_id}"


class OuterReference(LeafExpression):
    """A reference to an attribute of an *outer* query.

    Wraps attributes resolved against the enclosing plan during
    correlated-subquery analysis (Catalyst's ``OuterReference``).  The
    wrapped attribute is intentionally *not* a child so it does not count
    toward the inner plan's missing-input set; the optimizer unwraps it
    when decorrelating into a join condition.
    """

    def __init__(self, attr: "AttributeReference") -> None:
        self.attr = attr

    @property
    def resolved(self) -> bool:
        return True

    @property
    def dtype(self) -> DataType:
        return self.attr.dtype

    @property
    def nullable(self) -> bool:
        return self.attr.nullable

    def sql(self) -> str:
        return f"outer({self.attr.sql()})"

    def __repr__(self) -> str:
        return f"outer({self.attr!r})"


def contains_outer_reference(expr: "Expression") -> bool:
    """True if any OuterReference occurs in the tree."""
    return any(isinstance(node, OuterReference) for node in expr.iter_tree())


def strip_outer_references(expr: "Expression") -> "Expression":
    """Replace each OuterReference with its wrapped attribute."""

    def unwrap(node: "Expression") -> "Expression":
        if isinstance(node, OuterReference):
            return node.attr
        return node

    return expr.transform_up(unwrap)


class BoundReference(LeafExpression):
    """An attribute bound to a tuple ordinal; the only leaf that reads rows."""

    def __init__(self, index: int, dtype: DataType, nullable: bool = True,
                 name: str = "") -> None:
        self.index = index
        self._dtype = dtype
        self._nullable = nullable
        self.name = name

    @property
    def resolved(self) -> bool:
        return True

    @property
    def dtype(self) -> DataType:
        return self._dtype

    @property
    def nullable(self) -> bool:
        return self._nullable

    def eval(self, row: tuple) -> Any:
        return row[self.index]

    def eval_batch(self, batch: ColumnBatch) -> Column:
        return batch.column(self.index)

    def __repr__(self) -> str:
        return f"input[{self.index}]"


# ---------------------------------------------------------------------------
# Named expressions
# ---------------------------------------------------------------------------


class Alias(Expression):
    """``expr AS name``; carries its own expr_id so downstream operators
    can reference the aliased output."""

    def __init__(self, child: Expression, name: str,
                 expr_id: int | None = None) -> None:
        self.children = (child,)
        self.name = name
        self.expr_id = expr_id if expr_id is not None else next_expr_id()

    @property
    def child(self) -> Expression:
        return self.children[0]

    @property
    def dtype(self) -> DataType:
        return self.child.dtype

    @property
    def nullable(self) -> bool:
        return self.child.nullable

    @property
    def display_name(self) -> str:
        return self.name

    def with_children(self, children: Sequence[Expression]) -> "Alias":
        return Alias(children[0], self.name, self.expr_id)

    def to_attribute(self) -> AttributeReference:
        """The attribute this alias exposes to parent operators."""
        if not self.child.resolved:
            raise AnalysisError(f"alias over unresolved child: {self!r}")
        return AttributeReference(self.name, self.dtype, self.nullable,
                                  self.expr_id)

    def eval(self, row: tuple) -> Any:
        return self.child.eval(row)

    def eval_batch(self, batch: ColumnBatch) -> Column:
        return self.child.eval_batch(batch)

    def sql(self) -> str:
        return f"{self.child.sql()} AS {self.name}"

    def __repr__(self) -> str:
        return f"{self.child!r} AS {self.name}#{self.expr_id}"


def named_output(expr: Expression) -> AttributeReference:
    """The output attribute of a select-list expression."""
    if isinstance(expr, Alias):
        return expr.to_attribute()
    if isinstance(expr, AttributeReference):
        return expr
    raise AnalysisError(
        f"expression {expr.sql()} has no name; wrap it in an Alias")


# ---------------------------------------------------------------------------
# Unary predicates and functions
# ---------------------------------------------------------------------------


class IsNull(Expression):
    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    @property
    def nullable(self) -> bool:
        return False

    def eval(self, row: tuple) -> Any:
        return self.children[0].eval(row) is None

    def eval_batch(self, batch: ColumnBatch) -> Column:
        flags = self.children[0].eval_batch(batch).null_flags()
        if isinstance(flags, list):
            return Column.from_values(flags)
        return Column(B1, flags)

    def sql(self) -> str:
        return f"{self.children[0].sql()} IS NULL"


class IsNotNull(Expression):
    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    @property
    def nullable(self) -> bool:
        return False

    def eval(self, row: tuple) -> Any:
        return self.children[0].eval(row) is not None

    def eval_batch(self, batch: ColumnBatch) -> Column:
        flags = self.children[0].eval_batch(batch).null_flags()
        if isinstance(flags, list):
            return Column.from_values([not f for f in flags])
        return Column(B1, ~flags)

    def sql(self) -> str:
        return f"{self.children[0].sql()} IS NOT NULL"


class Not(Expression):
    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    @property
    def nullable(self) -> bool:
        return self.children[0].nullable

    def eval(self, row: tuple) -> Any:
        value = self.children[0].eval(row)
        if value is None:
            return None
        return not value

    def eval_batch(self, batch: ColumnBatch) -> Column:
        column = self.children[0].eval_batch(batch)
        if column.kind != B1:
            return Column.from_values([
                None if v is None else (not v)
                for v in column.to_values()])
        return Column(B1, ~column.data, column.mask)

    def sql(self) -> str:
        return f"NOT ({self.children[0].sql()})"


class Negate(Expression):
    """Arithmetic unary minus."""

    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    @property
    def dtype(self) -> DataType:
        return self.children[0].dtype

    def eval(self, row: tuple) -> Any:
        value = self.children[0].eval(row)
        return None if value is None else -value

    def eval_batch(self, batch: ColumnBatch) -> Column:
        column = self.children[0].eval_batch(batch)
        if column.kind == F8 or (column.kind == I8
                                 and _no_int64_min(column.data)):
            return Column(column.kind, -column.data, column.mask)
        return Column.from_values([
            None if v is None else -v for v in column.to_values()])

    def sql(self) -> str:
        return f"-({self.children[0].sql()})"


class DeclaredResult(Expression):
    """An expression whose result is one of its arguments, which may mix
    INTEGER and DOUBLE (``coalesce``, ``ifnull``, ``CASE``).  The result
    takes the declared type on both planes, as Spark's analyzer widens
    such arguments to their common type: under DOUBLE an int is a float.
    """

    @functools.cached_property
    def widens(self) -> bool:
        """True when an int result becomes a float (declared DOUBLE);
        resolved on first use, not per row."""
        return self.dtype == DOUBLE

    def declared(self, value: Any) -> Any:
        """``value`` as a value of the declared type."""
        if type(value) is int and self.widens:
            return float(value)
        return value


class IfNull(DeclaredResult):
    """``ifnull(a, b)`` / two-argument coalesce, used by the MusicBrainz
    queries of Appendix E."""

    def __init__(self, child: Expression, default: Expression) -> None:
        self.children = (child, default)

    @resolved_property
    def resolved(self) -> bool:
        if not all(c.resolved for c in self.children):
            return False
        return common_type(self.children[0].dtype,
                           self.children[1].dtype) is not None

    @property
    def dtype(self) -> DataType:
        result = common_type(self.children[0].dtype, self.children[1].dtype)
        if result is None:
            raise AnalysisError(
                f"ifnull arguments have incompatible types: {self.sql()}")
        return result

    @property
    def nullable(self) -> bool:
        return self.children[1].nullable

    def eval(self, row: tuple) -> Any:
        value = self.children[0].eval(row)
        if value is None:
            value = self.children[1].eval(row)
        return self.declared(value)

    def eval_batch(self, batch: ColumnBatch) -> Column:
        return _coalesce_batch(batch, self)

    def sql(self) -> str:
        return f"ifnull({self.children[0].sql()}, {self.children[1].sql()})"


class Coalesce(DeclaredResult):
    """First non-null argument."""

    def __init__(self, *args: Expression) -> None:
        if not args:
            raise AnalysisError("coalesce requires at least one argument")
        self.children = tuple(args)

    @property
    def dtype(self) -> DataType:
        result = self.children[0].dtype
        for child in self.children[1:]:
            merged = common_type(result, child.dtype)
            if merged is None:
                raise AnalysisError(
                    f"coalesce arguments have incompatible types: "
                    f"{self.sql()}")
            result = merged
        return result

    @property
    def nullable(self) -> bool:
        return all(c.nullable for c in self.children)

    def eval(self, row: tuple) -> Any:
        for child in self.children:
            value = child.eval(row)
            if value is not None:
                return self.declared(value)
        return None

    def eval_batch(self, batch: ColumnBatch) -> Column:
        return _coalesce_batch(batch, self)

    def sql(self) -> str:
        inner = ", ".join(c.sql() for c in self.children)
        return f"coalesce({inner})"


class Abs(Expression):
    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    @property
    def dtype(self) -> DataType:
        return self.children[0].dtype

    def eval(self, row: tuple) -> Any:
        value = self.children[0].eval(row)
        return None if value is None else abs(value)

    def eval_batch(self, batch: ColumnBatch) -> Column:
        column = self.children[0].eval_batch(batch)
        if column.kind == F8 or (column.kind == I8
                                 and _no_int64_min(column.data)):
            return Column(column.kind, np.abs(column.data), column.mask)
        return Column.from_values([
            None if v is None else abs(v) for v in column.to_values()])

    def sql(self) -> str:
        return f"abs({self.children[0].sql()})"


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------


class BinaryExpression(Expression):
    """Base for binary operators with null-propagating evaluation."""

    symbol = "?"

    def __init__(self, left: Expression, right: Expression) -> None:
        self.children = (left, right)

    @property
    def left(self) -> Expression:
        return self.children[0]

    @property
    def right(self) -> Expression:
        return self.children[1]

    @property
    def nullable(self) -> bool:
        return self.left.nullable or self.right.nullable

    def sql(self) -> str:
        return f"({self.left.sql()} {self.symbol} {self.right.sql()})"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class ArithmeticExpression(BinaryExpression):
    op: Callable[[Any, Any], Any]

    @resolved_property
    def resolved(self) -> bool:
        if not all(c.resolved for c in self.children):
            return False
        return (is_numeric(self.left.dtype) and is_numeric(self.right.dtype))

    @property
    def dtype(self) -> DataType:
        result = common_type(self.left.dtype, self.right.dtype)
        if result is None or not is_numeric(result):
            raise AnalysisError(
                f"arithmetic on non-numeric operands: {self.sql()}")
        return result

    def eval(self, row: tuple) -> Any:
        lhs = self.left.eval(row)
        if lhs is None:
            return None
        rhs = self.right.eval(row)
        if rhs is None:
            return None
        return type(self).op(lhs, rhs)

    def eval_batch(self, batch: ColumnBatch) -> Column:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        column = _arith_batch(self, left, right)
        if column is None:
            column = _rowwise_binary(self, left, right)
        return column


class Add(ArithmeticExpression):
    symbol = "+"
    op = staticmethod(lambda a, b: a + b)


class Subtract(ArithmeticExpression):
    symbol = "-"
    op = staticmethod(lambda a, b: a - b)


class Multiply(ArithmeticExpression):
    symbol = "*"
    op = staticmethod(lambda a, b: a * b)


class Divide(ArithmeticExpression):
    symbol = "/"

    @staticmethod
    def op(a: Any, b: Any) -> Any:
        # SQL semantics: division by zero yields NULL rather than an error.
        if b == 0:
            return None
        return a / b

    @property
    def dtype(self) -> DataType:
        super().dtype  # type check
        return DOUBLE


class Modulo(ArithmeticExpression):
    symbol = "%"

    @staticmethod
    def op(a: Any, b: Any) -> Any:
        if b == 0:
            return None
        return a % b


class ComparisonExpression(BinaryExpression):
    op: Callable[[Any, Any], bool]

    @resolved_property
    def resolved(self) -> bool:
        if not all(c.resolved for c in self.children):
            return False
        if not (is_orderable(self.left.dtype)
                and is_orderable(self.right.dtype)):
            return False
        return common_type(self.left.dtype, self.right.dtype) is not None

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    def eval(self, row: tuple) -> Any:
        lhs = self.left.eval(row)
        if lhs is None:
            return None
        rhs = self.right.eval(row)
        if rhs is None:
            return None
        return type(self).op(lhs, rhs)

    def eval_batch(self, batch: ColumnBatch) -> Column:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        column = _compare_batch(self, left, right)
        if column is None:
            column = _rowwise_binary(self, left, right)
        return column


class EqualTo(ComparisonExpression):
    symbol = "="
    op = staticmethod(lambda a, b: a == b)


class NotEqualTo(ComparisonExpression):
    symbol = "<>"
    op = staticmethod(lambda a, b: a != b)


class LessThan(ComparisonExpression):
    symbol = "<"
    op = staticmethod(lambda a, b: a < b)


class LessThanOrEqual(ComparisonExpression):
    symbol = "<="
    op = staticmethod(lambda a, b: a <= b)


class GreaterThan(ComparisonExpression):
    symbol = ">"
    op = staticmethod(lambda a, b: a > b)


class GreaterThanOrEqual(ComparisonExpression):
    symbol = ">="
    op = staticmethod(lambda a, b: a >= b)


class EqualNullSafe(BinaryExpression):
    """``<=>``: null-safe equality, never returns NULL."""

    symbol = "<=>"

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    @property
    def nullable(self) -> bool:
        return False

    def eval(self, row: tuple) -> Any:
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if lhs is None and rhs is None:
            return True
        if lhs is None or rhs is None:
            return False
        return lhs == rhs

    def eval_batch(self, batch: ColumnBatch) -> Column:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        aligned = _aligned_numeric(left, right)
        if aligned is None:
            out = []
            for a, b in zip(left.to_values(), right.to_values()):
                if a is None or b is None:
                    out.append(a is None and b is None)
                else:
                    out.append(a == b)
            return Column.from_values(out)
        _, a, b = aligned
        lnull = _mask_of(left)
        rnull = _mask_of(right)
        data = np.where(lnull | rnull, lnull & rnull, np.equal(a, b))
        return Column(B1, data)


class And(BinaryExpression):
    """Kleene AND: false wins over null."""

    symbol = "AND"

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    def eval(self, row: tuple) -> Any:
        lhs = self.left.eval(row)
        if lhs is False:
            return False
        rhs = self.right.eval(row)
        if rhs is False:
            return False
        if lhs is None or rhs is None:
            return None
        return True

    def eval_batch(self, batch: ColumnBatch) -> Column:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        if left.kind != B1 or right.kind != B1:
            out = []
            for a, b in zip(left.to_values(), right.to_values()):
                if a is False or b is False:
                    out.append(False)
                elif a is None or b is None:
                    out.append(None)
                else:
                    out.append(True)
            return Column.from_values(out)
        lnull = _mask_of(left)
        rnull = _mask_of(right)
        known_false = (~lnull & ~left.data) | (~rnull & ~right.data)
        null = (lnull | rnull) & ~known_false
        data = ~known_false & ~null
        return Column(B1, data, null if null.any() else None)


class Or(BinaryExpression):
    """Kleene OR: true wins over null."""

    symbol = "OR"

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    def eval(self, row: tuple) -> Any:
        lhs = self.left.eval(row)
        if lhs is True:
            return True
        rhs = self.right.eval(row)
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    def eval_batch(self, batch: ColumnBatch) -> Column:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        if left.kind != B1 or right.kind != B1:
            out = []
            for a, b in zip(left.to_values(), right.to_values()):
                if a is True or b is True:
                    out.append(True)
                elif a is None or b is None:
                    out.append(None)
                else:
                    out.append(False)
            return Column.from_values(out)
        lnull = _mask_of(left)
        rnull = _mask_of(right)
        known_true = (~lnull & left.data) | (~rnull & right.data)
        null = (lnull | rnull) & ~known_true
        return Column(B1, known_true, null if null.any() else None)


def conjunction(predicates: Sequence[Expression]) -> Expression:
    """AND together a list of predicates (TRUE for an empty list)."""
    if not predicates:
        return Literal(True, BOOLEAN)
    result = predicates[0]
    for predicate in predicates[1:]:
        result = And(result, predicate)
    return result


def split_conjuncts(predicate: Expression) -> list[Expression]:
    """Flatten a tree of ANDs into its conjuncts."""
    if isinstance(predicate, And):
        return split_conjuncts(predicate.left) + split_conjuncts(
            predicate.right)
    return [predicate]


def disjunction(predicates: Sequence[Expression]) -> Expression:
    """OR together a list of predicates (FALSE for an empty list)."""
    if not predicates:
        return Literal(False, BOOLEAN)
    result = predicates[0]
    for predicate in predicates[1:]:
        result = Or(result, predicate)
    return result


# ---------------------------------------------------------------------------
# Conditional
# ---------------------------------------------------------------------------


class CaseWhen(DeclaredResult):
    """``CASE WHEN c1 THEN v1 ... ELSE e END``."""

    def __init__(self, branches: Sequence[tuple[Expression, Expression]],
                 else_value: Expression | None = None) -> None:
        self.num_branches = len(branches)
        flattened: list[Expression] = []
        for condition, value in branches:
            flattened.append(condition)
            flattened.append(value)
        self._else = else_value if else_value is not None else Literal(None)
        flattened.append(self._else)
        self.children = tuple(flattened)

    @property
    def branches(self) -> list[tuple[Expression, Expression]]:
        return [(self.children[2 * i], self.children[2 * i + 1])
                for i in range(self.num_branches)]

    @property
    def else_value(self) -> Expression:
        return self.children[-1]

    def with_children(self, children: Sequence[Expression]) -> "CaseWhen":
        branches = [(children[2 * i], children[2 * i + 1])
                    for i in range(self.num_branches)]
        return CaseWhen(branches, children[-1])

    @property
    def dtype(self) -> DataType:
        result = self.else_value.dtype
        for _, value in self.branches:
            result = common_type(result, value.dtype)
            if result is None:
                raise AnalysisError(
                    f"CASE results have incompatible types: {self.sql()}")
        return result

    def eval(self, row: tuple) -> Any:
        for condition, value in self.branches:
            if condition.eval(row) is True:
                return self.declared(value.eval(row))
        return self.declared(self.else_value.eval(row))

    def sql(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition.sql()} THEN {value.sql()}")
        parts.append(f"ELSE {self.else_value.sql()} END")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Unresolved function call (resolved by the analyzer into one of the below)
# ---------------------------------------------------------------------------


class UnresolvedFunction(Expression):
    def __init__(self, name: str, args: Sequence[Expression],
                 is_distinct: bool = False) -> None:
        self.name = name.lower()
        self.children = tuple(args)
        self.is_distinct = is_distinct

    @property
    def resolved(self) -> bool:
        return False

    def with_children(self, children: Sequence[Expression]
                      ) -> "UnresolvedFunction":
        return UnresolvedFunction(self.name, children, self.is_distinct)

    def sql(self) -> str:
        inner = ", ".join(c.sql() for c in self.children)
        distinct = "DISTINCT " if self.is_distinct else ""
        return f"{self.name}({distinct}{inner})"


# ---------------------------------------------------------------------------
# Aggregate functions
# ---------------------------------------------------------------------------


class AggregateFunction(Expression):
    """Base class for aggregates, evaluated by the hash-aggregate operator.

    Aggregates do not implement ``eval``; instead they provide the
    fold interface ``initial`` / ``update`` / ``result`` that the
    physical operator drives, with nulls skipped per SQL semantics
    (``DISTINCT`` is the operator's: it folds each value once).
    """

    name = "agg"

    def __init__(self, child: Expression, is_distinct: bool = False) -> None:
        self.children = (child,)
        self.is_distinct = is_distinct

    @property
    def child(self) -> Expression:
        return self.children[0]

    def with_children(self, children: Sequence[Expression]
                      ) -> "AggregateFunction":
        return type(self)(children[0], self.is_distinct)

    def initial(self) -> Any:
        raise NotImplementedError

    def update(self, acc: Any, value: Any) -> Any:
        raise NotImplementedError

    def result(self, acc: Any) -> Any:
        raise NotImplementedError

    def sql(self) -> str:
        distinct = "DISTINCT " if self.is_distinct else ""
        return f"{self.name}({distinct}{self.child.sql()})"


class Min(AggregateFunction):
    name = "min"

    @property
    def dtype(self) -> DataType:
        return self.child.dtype

    def initial(self) -> Any:
        return None

    def update(self, acc: Any, value: Any) -> Any:
        if value is None:
            return acc
        if acc is None or value < acc:
            return value
        return acc

    def result(self, acc: Any) -> Any:
        return acc


class Max(AggregateFunction):
    name = "max"

    @property
    def dtype(self) -> DataType:
        return self.child.dtype

    def initial(self) -> Any:
        return None

    def update(self, acc: Any, value: Any) -> Any:
        if value is None:
            return acc
        if acc is None or value > acc:
            return value
        return acc

    def result(self, acc: Any) -> Any:
        return acc


class Sum(AggregateFunction):
    name = "sum"

    @property
    def dtype(self) -> DataType:
        return self.child.dtype if is_numeric(self.child.dtype) else DOUBLE

    def initial(self) -> Any:
        return None

    def update(self, acc: Any, value: Any) -> Any:
        if value is None:
            return acc
        return value if acc is None else acc + value

    def result(self, acc: Any) -> Any:
        return acc


class Count(AggregateFunction):
    """``count(expr)``; ``count(*)`` is represented as count(Literal(1))."""

    name = "count"

    @property
    def dtype(self) -> DataType:
        return INTEGER

    @property
    def nullable(self) -> bool:
        return False

    def initial(self) -> Any:
        return 0

    def update(self, acc: Any, value: Any) -> Any:
        return acc if value is None else acc + 1

    def result(self, acc: Any) -> Any:
        return acc


class Average(AggregateFunction):
    name = "avg"

    @property
    def dtype(self) -> DataType:
        return DOUBLE

    def initial(self) -> Any:
        return (0.0, 0)

    def update(self, acc: Any, value: Any) -> Any:
        if value is None:
            return acc
        total, count = acc
        return (total + value, count + 1)

    def result(self, acc: Any) -> Any:
        total, count = acc
        if count == 0:
            return None
        return total / count


AGGREGATE_FUNCTIONS: dict[str, type[AggregateFunction]] = {
    "min": Min,
    "max": Max,
    "sum": Sum,
    "count": Count,
    "avg": Average,
}


# ---------------------------------------------------------------------------
# Subquery expressions
# ---------------------------------------------------------------------------


class SubqueryExpression(Expression):
    """Base for expressions that embed a logical plan.

    The plan is intentionally untyped here (``Any``) to avoid a circular
    import with :mod:`repro.plan.logical`.
    """

    def __init__(self, plan: Any) -> None:
        self.plan = plan
        self.children = ()

    def with_plan(self, plan: Any) -> "SubqueryExpression":
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.plan = plan
        return clone


class ScalarSubquery(SubqueryExpression):
    """A subquery producing a single value.

    Created by the single-dimension-skyline optimizer rule (Section 5.4):
    ``SKYLINE OF d MIN`` becomes ``WHERE d = (SELECT min(d) ...)``.  The
    physical planner pre-executes the plan and substitutes a literal.
    """

    @property
    def resolved(self) -> bool:
        return bool(getattr(self.plan, "resolved", False))

    @property
    def dtype(self) -> DataType:
        output = self.plan.output
        if len(output) != 1:
            raise AnalysisError(
                "scalar subquery must return exactly one column")
        return output[0].dtype

    def sql(self) -> str:
        return "(scalar-subquery)"

    def __repr__(self) -> str:
        return f"ScalarSubquery({self.plan!r})"


class Exists(SubqueryExpression):
    """``EXISTS (subquery)``, possibly correlated via outer attributes.

    The reference (plain SQL) formulation of skyline queries relies on a
    correlated ``NOT EXISTS`` (Listing 4); the optimizer rewrites
    ``Filter(Not(Exists(..)))`` into a left-anti nested-loop join.
    """

    def __init__(self, plan: Any) -> None:
        super().__init__(plan)

    @property
    def resolved(self) -> bool:
        # A correlated Exists is resolved once handled by the optimizer;
        # treat it as resolved when its plan is structurally complete.
        return bool(getattr(self.plan, "resolved", False))

    @property
    def dtype(self) -> DataType:
        return BOOLEAN

    @property
    def nullable(self) -> bool:
        return False

    def sql(self) -> str:
        return "EXISTS (subquery)"

    def __repr__(self) -> str:
        return f"Exists({self.plan!r})"


# ---------------------------------------------------------------------------
# Skyline dimensions (Section 5.2)
# ---------------------------------------------------------------------------


class SkylineDimension(Expression):
    """A skyline dimension: a child expression plus a MIN/MAX/DIFF kind.

    Mirrors the paper's ``SkylineDimension`` which "extends the default
    Spark Expression such that it stores both the reference to the
    database dimension and the type"; the dimension itself is stored as
    the child so the analyzer's generic expression-resolution machinery
    applies to it unchanged (Section 5.2).
    """

    def __init__(self, child: Expression, kind: DimensionKind) -> None:
        self.children = (child,)
        self.kind = DimensionKind.of(kind)

    @property
    def child(self) -> Expression:
        return self.children[0]

    def with_children(self, children: Sequence[Expression]
                      ) -> "SkylineDimension":
        return SkylineDimension(children[0], self.kind)

    def copy(self, child: Expression | None = None,
             kind: DimensionKind | None = None) -> "SkylineDimension":
        return SkylineDimension(child if child is not None else self.child,
                                kind if kind is not None else self.kind)

    @resolved_property
    def resolved(self) -> bool:
        if not self.child.resolved:
            return False
        if self.kind is DimensionKind.DIFF:
            return True
        return is_orderable(self.child.dtype)

    @property
    def dtype(self) -> DataType:
        return self.child.dtype

    @property
    def nullable(self) -> bool:
        return self.child.nullable

    def sql(self) -> str:
        return f"{self.child.sql()} {self.kind.value}"

    def __repr__(self) -> str:
        return f"SkylineDimension({self.child!r}, {self.kind.value})"


# ---------------------------------------------------------------------------
# Batch (columnar) evaluation helpers
# ---------------------------------------------------------------------------
#
# The vectorized expression forms only run when they are *provably
# exact* against the row-at-a-time reference semantics; anything else
# returns None and the caller takes the automatic per-row fallback of
# ``Expression.eval_batch``.  The exactness rules:
#
# * int64 x int64 stays in int64 (comparisons are always exact; +/-/*
#   only below conservative overflow bounds);
# * an int64 column mixes with float64 only while every value is within
#   the float64-exact range (|v| <= 2**53);
# * division by zero and modulo-by-zero yield SQL NULL, matching the
#   scalar operators;
# * NaN data inherits IEEE semantics, which match the Python operators.

#: Conservative magnitude bound under which int64 add/subtract cannot
#: overflow (|a| + |b| < 2**63).
_INT64_ADD_BOUND = 2 ** 62
#: The same bound for multiplication (|a| * |b| < 2**62 < 2**63).
_INT64_MUL_BOUND = 2 ** 31
_INT64_MIN = -(2 ** 63)


def _no_int64_min(data) -> bool:
    """True when negating/abs-ing ``data`` cannot overflow int64."""
    return not len(data) or int(data.min()) != _INT64_MIN


def _mask_of(column: Column):
    """The column's null mask as an ndarray (zeros when mask-free)."""
    if column.mask is not None:
        return column.mask
    return np.zeros(len(column.data), dtype=bool)


def _exact_f8(column: Column):
    """The column as float64, or None when the cast would be inexact."""
    if column.kind == F8:
        return column.data
    if not int64_fits_float_exact(column.data):
        return None
    return column.data.astype(np.float64)


def _aligned_numeric(left: Column, right: Column):
    """Align two numeric columns for exact vectorized evaluation.

    Returns ``(kind, a, b)`` -- both operands as int64 (``kind == I8``,
    only when both columns are int) or float64 -- or ``None`` when
    either column is non-numeric or the int->float cast would lose
    exactness.
    """
    if left.kind not in (F8, I8) or right.kind not in (F8, I8):
        return None
    if left.kind == I8 and right.kind == I8:
        return I8, left.data, right.data
    a = _exact_f8(left)
    b = _exact_f8(right)
    if a is None or b is None:
        return None
    return F8, a, b


def _within(data, bound: int) -> bool:
    """True when every value's magnitude is below ``bound``.

    min/max instead of ``np.abs`` (which overflows at INT64_MIN).
    """
    return not len(data) or (
        int(data.min()) > -bound and int(data.max()) < bound)


def _rowwise_binary(expr: "BinaryExpression", left: Column,
                    right: Column) -> Column:
    """Per-row fallback over already-evaluated operand columns.

    Null-propagating semantics identical to the scalar ``eval`` of the
    arithmetic/comparison operators, but without re-evaluating the
    operand subtrees (their columns are already in hand).
    """
    op = type(expr).op
    out = []
    for a, b in zip(left.to_values(), right.to_values()):
        if a is None or b is None:
            out.append(None)
        else:
            out.append(op(a, b))
    return Column.from_values(out)


def _arith_batch(expr: "ArithmeticExpression", left: Column,
                 right: Column) -> Column | None:
    """Vectorized arithmetic, or None when exactness is not guaranteed."""
    aligned = _aligned_numeric(left, right)
    if aligned is None:
        return None
    kind, a, b = aligned
    mask = None
    if left.mask is not None or right.mask is not None:
        mask = _mask_of(left) | _mask_of(right)
    name = type(expr).__name__
    if name in ("Add", "Subtract", "Multiply"):
        if kind == I8:
            bound = _INT64_MUL_BOUND if name == "Multiply" \
                else _INT64_ADD_BOUND
            if not (_within(a, bound) and _within(b, bound)):
                return None
        ufunc = {"Add": np.add, "Subtract": np.subtract,
                 "Multiply": np.multiply}[name]
        with np.errstate(all="ignore"):
            return Column(kind, ufunc(a, b), mask)
    if name == "Divide":
        if kind == I8:
            a = _exact_f8(left)
            b = _exact_f8(right)
            if a is None or b is None:
                return None
        zero = b == 0.0
        if zero.any():
            mask = zero if mask is None else (mask | zero)
        with np.errstate(all="ignore"):
            return Column(F8, np.true_divide(a, b), mask)
    if name == "Modulo":
        # np.mod follows the Python sign convention for ints and
        # floats alike; guard the single int64 overflow case
        # (INT64_MIN % -1).
        if kind == I8 and not _no_int64_min(a):
            return None
        zero = b == 0
        if zero.any():
            mask = zero if mask is None else (mask | zero)
            b = np.where(zero, b.dtype.type(1), b)
        with np.errstate(all="ignore"):
            return Column(kind, np.mod(a, b), mask)
    return None


_COMPARISON_UFUNCS = {
    "EqualTo": "equal",
    "NotEqualTo": "not_equal",
    "LessThan": "less",
    "LessThanOrEqual": "less_equal",
    "GreaterThan": "greater",
    "GreaterThanOrEqual": "greater_equal",
}


def _compare_batch(expr: "ComparisonExpression", left: Column,
                   right: Column) -> Column | None:
    """Vectorized comparison, or None when exactness is not guaranteed."""
    ufunc_name = _COMPARISON_UFUNCS.get(type(expr).__name__)
    if ufunc_name is None:
        return None
    aligned = _aligned_numeric(left, right)
    if aligned is None:
        return None
    _, a, b = aligned
    mask = None
    if left.mask is not None or right.mask is not None:
        mask = _mask_of(left) | _mask_of(right)
    return Column(B1, getattr(np, ufunc_name)(a, b), mask)


def _rowwise_coalesce(columns: Sequence[Column],
                      expr: DeclaredResult) -> Column:
    """First non-null per row over already-evaluated columns, as a
    value of ``expr``'s declared type."""
    value_lists = [c.to_values() for c in columns]
    out = []
    for values in zip(*value_lists):
        result = None
        for value in values:
            if value is not None:
                result = expr.declared(value)
                break
        out.append(result)
    return Column.from_values(out)


def _coalesce_batch(batch: ColumnBatch, expr: DeclaredResult) -> Column:
    """Coalesce of ``expr``'s arguments over ``batch``, typed like
    ``expr``.  A ``NULL`` literal is never the first non-null, so it is
    not evaluated.

    Under a declared DOUBLE the ``i8`` arguments are first promoted to
    ``f8`` -- the row plane turns an int result into a float -- unless
    one holds a value beyond 2**53.  Arguments of one array kind then
    merge in one ``np.where`` chain; anything else (a list column, an
    unpromotable ``i8``) takes the per-row path, which applies the same
    rule value by value.
    """
    columns = [child.eval_batch(batch) for child in expr.children
               if not (isinstance(child, Literal) and child.value is None)]
    if not columns:
        return Column.nulls(batch.num_rows)
    if expr.widens:
        promoted = []
        for column in columns:
            if column.kind == I8:
                data = _exact_f8(column)
                if data is None:
                    return _rowwise_coalesce(columns, expr)
                column = Column(F8, data, column.mask)
            promoted.append(column)
        columns = promoted
    first = columns[0]
    if first.is_array and (first.mask is None or not first.mask.any()):
        return first
    if not first.is_array or any(c.kind != first.kind for c in columns):
        return _rowwise_coalesce(columns, expr)
    data = first.data
    null = first.mask.copy()
    for column in columns[1:]:
        take = null & ~_mask_of(column)
        data = np.where(take, column.data, data)
        null &= ~take
        if not null.any():
            break
    return Column(first.kind, data, null if null.any() else None)


def bind_expression(expr: Expression,
                    input_attributes: Sequence[AttributeReference]
                    ) -> Expression:
    """Replace attribute references with bound (ordinal) references.

    ``input_attributes`` is the output of the child physical operator, in
    tuple order.  Matching is by ``expr_id``, never by name.
    """
    index_by_id = {attr.expr_id: i for i, attr in enumerate(input_attributes)}

    def rebind(node: Expression) -> Expression:
        if isinstance(node, AttributeReference):
            try:
                index = index_by_id[node.expr_id]
            except KeyError:
                raise AnalysisError(
                    f"attribute {node!r} not found in input "
                    f"{list(input_attributes)!r}") from None
            return BoundReference(index, node.dtype, node.nullable, node.name)
        return node

    return expr.transform_up(rebind)
