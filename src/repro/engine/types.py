"""SQL data types for the engine.

The paper's dominance-check utility "matches the data type to avoid costly
casting and potential loss of accuracy" (Section 5.5); we keep a small but
explicit type system so expressions and the skyline comparators can do the
same.
"""

from __future__ import annotations

from typing import Any


class DataType:
    """Base class for all SQL data types.

    Types are stateless singletons for the scalar cases; equality is by
    class so that e.g. two ``IntegerType()`` instances compare equal.
    """

    #: Python types acceptable for a value of this SQL type.
    python_types: tuple[type, ...] = ()

    def accepts(self, value: Any) -> bool:
        """Return True if ``value`` (non-null) is valid for this type."""
        return isinstance(value, self.python_types)

    @property
    def name(self) -> str:
        return type(self).__name__.removesuffix("Type").upper()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return self.name


class IntegerType(DataType):
    python_types = (int,)

    def accepts(self, value: Any) -> bool:
        # bool is a subclass of int in Python; keep them distinct in SQL.
        return isinstance(value, int) and not isinstance(value, bool)


class DoubleType(DataType):
    python_types = (float, int)

    def accepts(self, value: Any) -> bool:
        if isinstance(value, bool):
            return False
        return isinstance(value, (float, int))


class StringType(DataType):
    python_types = (str,)


class BooleanType(DataType):
    python_types = (bool,)


class NullType(DataType):
    """The type of a bare ``NULL``: it holds no value and, like Spark's
    NullType, takes the type of whatever it meets (:func:`common_type`)."""


INTEGER = IntegerType()
DOUBLE = DoubleType()
STRING = StringType()
BOOLEAN = BooleanType()
NULL = NullType()

_NUMERIC = (IntegerType, DoubleType)


def is_numeric(dtype: DataType) -> bool:
    return isinstance(dtype, _NUMERIC)


def is_orderable(dtype: DataType) -> bool:
    """Types usable in comparisons and skyline MIN/MAX dimensions."""
    return isinstance(dtype, (IntegerType, DoubleType, StringType,
                              BooleanType, NullType))


def common_type(left: DataType, right: DataType) -> DataType | None:
    """Widest common type of two types, or None if incompatible.

    Integer widens to double and NULL to the other type; everything else
    must match exactly.  This is a deliberately small coercion lattice --
    the dominance checker relies on both sides of a comparison having the
    same resolved type.
    """
    if left == right:
        return left
    if left == NULL:
        return right
    if right == NULL:
        return left
    if is_numeric(left) and is_numeric(right):
        return DOUBLE
    return None


def infer_type(value: Any) -> DataType:
    """Infer the SQL type of a Python literal.

    ``None`` is NULL, which meets any other type as that type.
    """
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    if value is None:
        return NULL
    raise TypeError(f"cannot infer SQL type for {value!r}")
