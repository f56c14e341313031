"""Table and column statistics, for ``ANALYZE TABLE`` and inspection.

Per-table row counts, per-column min/max/null fraction/distinct counts
and equi-width histograms over numeric columns.  Statistics are
collected in one pass over a table (array reductions over its typed
resident columns, a row loop elsewhere) and cached by
:class:`repro.stats.store.StatsStore` inside the catalog.  No planning
decision reads them: the skyline algorithm follows Listing 8's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..engine.batch import F8, I8

#: Bucket count of the per-column equi-width histograms.
DEFAULT_BUCKETS = 16


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over the non-null numeric values of a column.

    >>> h = Histogram.from_values([1.0, 2.0, 3.0, 4.0], num_buckets=2)
    >>> h.counts
    (2, 2)
    >>> h.num_buckets, h.total
    (2, 4)
    """

    low: float
    high: float
    counts: tuple[int, ...]

    @classmethod
    def from_values(cls, values: Sequence[float],
                    num_buckets: int = DEFAULT_BUCKETS
                    ) -> "Histogram | None":
        """Build a histogram; ``None`` for empty input.

        A constant column collapses to a single bucket.  Non-finite
        values (NaN, +/-inf) are excluded -- they would poison the
        bucket bounds.  ``values`` may be an ndarray (a typed resident
        column): same buckets, by array reductions.
        """
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        array = isinstance(values, np.ndarray)
        values = values[np.isfinite(values)] if array else \
            [v for v in values if math.isfinite(v)]
        if not len(values):
            return None
        low = float(values.min() if array else min(values))
        high = float(values.max() if array else max(values))
        if high == low:
            return cls(low, high, (len(values),))
        width = (high - low) / num_buckets
        if array:
            index = np.minimum(num_buckets - 1,
                               ((values - low) / width).astype(np.int64))
            return cls(low, high, tuple(
                np.bincount(index, minlength=num_buckets).tolist()))
        counts = [0] * num_buckets
        for value in values:
            index = min(num_buckets - 1, int((value - low) / width))
            counts[index] += 1
        return cls(low, high, tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def num_buckets(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class ColumnStats:
    """Single-column statistics."""

    name: str
    num_rows: int
    num_nulls: int
    min_value: Any
    max_value: Any
    num_distinct: int
    histogram: Histogram | None

    @property
    def null_fraction(self) -> float:
        return self.num_nulls / self.num_rows if self.num_rows else 0.0


@dataclass
class TableStats:
    """Statistics of one table."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStats]
    #: Identity of the data snapshot the stats were computed from; the
    #: store compares it against the live table to detect staleness.
    fingerprint: tuple = ()

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed_column_stats(name: str, column, num_buckets: int
                        ) -> "ColumnStats | None":
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
        return ColumnStats(name, len(column), nulls, None, None, 0, None)
    return ColumnStats(name, len(column), nulls, data.min().item(),
                       data.max().item(), int(np.unique(data).size),
                       Histogram.from_values(data, num_buckets))


def collect_table_stats(name: str, column_names: Sequence[str],
                        rows: Sequence[tuple],
                        num_buckets: int = DEFAULT_BUCKETS,
                        fingerprint: tuple = (),
                        batch=None) -> TableStats:
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
        typed = _typed_column_stats(column, batch.column(index),
                                    num_buckets) if batch is not None else None
        if typed is not None:
            columns[column.lower()] = typed
            continue
        values = [row[index] for row in rows]
        non_null = [v for v in values if v is not None]
        numeric = [v for v in non_null if _is_numeric(v)]
        histogram = Histogram.from_values(numeric, num_buckets) \
            if len(numeric) == len(non_null) else None
        try:
            min_value = min(non_null) if non_null else None
            max_value = max(non_null) if non_null else None
        except TypeError:  # mixed incomparable types
            min_value = max_value = None
        columns[column.lower()] = ColumnStats(
            name=column, num_rows=len(rows),
            num_nulls=len(values) - len(non_null),
            min_value=min_value, max_value=max_value,
            num_distinct=len(set(non_null)),
            histogram=histogram)
    return TableStats(table_name=name, num_rows=len(rows),
                      columns=columns, fingerprint=fingerprint)
