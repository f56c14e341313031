"""Table and column statistics, for inspection.

Per-table row counts and per-column min/max/null/distinct counts,
collected on demand by :meth:`repro.api.session.SkylineSession.table_stats`
in one pass over a table: array reductions over its typed resident
columns, a row loop elsewhere.  Nothing caches them and no planning
decision reads them: the skyline algorithm follows Listing 8's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .engine.batch import F8, I8


@dataclass(frozen=True)
class ColumnStats:
    """Single-column statistics."""

    name: str
    num_rows: int
    num_nulls: int
    min_value: Any
    max_value: Any
    num_distinct: int


@dataclass
class TableStats:
    """Statistics of one table."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def _typed_column_stats(name: str, column) -> "ColumnStats | None":
    """Statistics of a typed resident :class:`~repro.engine.batch.Column`
    by array reductions, field for field what the row loop of
    :func:`collect_table_stats` computes -- or ``None`` to leave it to
    that loop: list and bool columns, and NaN data (``set`` counts NaN
    objects, ``np.unique`` collapses them)."""
    if column.kind not in (F8, I8):
        return None
    data, nulls = column.data, 0
    if column.mask is not None:
        nulls = int(column.mask.sum())
        data = data[~column.mask]
    if column.kind == F8 and np.isnan(data).any():
        return None
    if not len(data):
        return ColumnStats(name, len(column), nulls, None, None, 0)
    return ColumnStats(name, len(column), nulls, data.min().item(),
                       data.max().item(), int(np.unique(data).size))


def collect_table_stats(name: str, column_names: Sequence[str],
                        rows: Sequence[tuple], batch=None) -> TableStats:
    """One-pass statistics collection over ``rows``; ``batch``, their
    columnar form when the caller has it, serves the typed columns.

    >>> stats = collect_table_stats("t", ["a", "b"],
    ...                             [(1, None), (2, 5), (3, 6)])
    >>> stats.num_rows
    3
    >>> stats.column("b").num_nulls
    1
    >>> stats.column("a").min_value, stats.column("a").max_value
    (1, 3)
    """
    rows = list(rows)
    columns: dict[str, ColumnStats] = {}
    for index, column in enumerate(column_names):
        typed = _typed_column_stats(column, batch.column(index)) \
            if batch is not None else None
        if typed is not None:
            columns[column.lower()] = typed
            continue
        values = [row[index] for row in rows]
        non_null = [v for v in values if v is not None]
        try:
            min_value = min(non_null) if non_null else None
            max_value = max(non_null) if non_null else None
        except TypeError:  # mixed incomparable types
            min_value = max_value = None
        columns[column.lower()] = ColumnStats(
            name=column, num_rows=len(rows),
            num_nulls=len(values) - len(non_null),
            min_value=min_value, max_value=max_value,
            num_distinct=len(set(non_null)))
    return TableStats(table_name=name, num_rows=len(rows), columns=columns)
