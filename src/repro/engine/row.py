"""Rows and schemas.

Rows travelling through physical operators are plain Python tuples: the
analyzer resolves column names to attributes and physical planning binds
attributes to tuple ordinals, so the hot loops (dominance checks) never
touch names.  ``Schema`` carries the name/type/nullability metadata, and
``Row`` is a friendly named wrapper returned to end users by
``DataFrame.collect()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .types import DataType, infer_type


@dataclass(frozen=True)
class Field:
    """One column of a schema."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __repr__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name}: {self.dtype}{null}"


class Schema:
    """An ordered collection of fields with O(1) name lookup."""

    __slots__ = ("fields", "_index")

    def __init__(self, fields: Iterable[Field]) -> None:
        self.fields: tuple[Field, ...] = tuple(fields)
        self._index: dict[str, int] = {}
        for i, field in enumerate(self.fields):
            # First occurrence wins on duplicates (like Spark, ambiguous
            # references are caught by the analyzer, not here).
            self._index.setdefault(field.name.lower(), i)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def index_of(self, name: str) -> int:
        """Ordinal of ``name`` (case-insensitive); raises KeyError."""
        return self._index[name.lower()]

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __getitem__(self, i: int) -> Field:
        return self.fields[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Schema({inner})"


def infer_schema(names: Sequence[str], rows: Sequence[tuple]) -> Schema:
    """Infer a schema from column names and sample rows.

    A column is nullable if any sampled value is None; its type is inferred
    from the first non-null value (defaulting to STRING for all-null
    columns).
    """
    fields = []
    for i, name in enumerate(names):
        dtype: DataType | None = None
        nullable = False
        for row in rows:
            value = row[i]
            if value is None:
                nullable = True
            elif dtype is None:
                dtype = infer_type(value)
        if dtype is None:
            from .types import STRING
            dtype = STRING
            nullable = True
        fields.append(Field(name, dtype, nullable))
    return Schema(fields)


class Row:
    """A named, immutable row returned to users.

    Supports access by position (``row[0]``), by name (``row['price']``)
    and by attribute (``row.price``).
    """

    __slots__ = ("_values", "_schema")

    def __init__(self, values: tuple, schema: Schema) -> None:
        self._values = tuple(values)
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self._schema.names, self._values))

    def as_tuple(self) -> tuple:
        return self._values

    def __getitem__(self, key: int | str) -> Any:
        if isinstance(key, str):
            return self._values[self._schema.index_of(key)]
        return self._values[key]

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[self._schema.index_of(name)]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={v!r}" for n, v in zip(self._schema.names, self._values))
        return f"Row({pairs})"
