"""Table and column statistics for adaptive planning.

Section 7 of the paper calls for a light-weight optimizer that "selects
the best-suited skyline algorithm"; a cost model is only as good as its
inputs.  This module provides those inputs: per-table row counts,
per-column min/max/null fraction/distinct counts, equi-width histograms
over numeric columns, and sampled skyline-density estimates.  Statistics are collected in one
pass over a table (array reductions over its typed resident columns, a
row loop elsewhere; plus a bounded seeded sample kept for density
probes) and cached by :class:`repro.stats.store.StatsStore` inside the
catalog, so the planner never re-scans a registered table at planning
time (detached in-memory relations are profiled from a bounded sample
per planning instead).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.bnl import bnl_skyline
from ..core.dominance import BoundDimension
from ..engine.batch import F8, I8

#: Bucket count of the per-column equi-width histograms.
DEFAULT_BUCKETS = 16
#: Rows kept in the seeded sample used for skyline-density estimation.
DEFAULT_SAMPLE_ROWS = 256
#: Seed of the sampling RNG -- statistics are deterministic per table.
SAMPLE_SEED = 7
#: Minimum usable sample size for a density estimate.
MIN_DENSITY_SAMPLE = 8


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over the non-null numeric values of a column.

    >>> h = Histogram.from_values([1.0, 2.0, 3.0, 4.0], num_buckets=2)
    >>> h.counts
    (2, 2)
    >>> round(h.selectivity_below(2.5), 3)
    0.5
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

    def selectivity_below(self, value: float) -> float:
        """Estimated fraction of values ``<= value``.

        Full buckets below the value count entirely; the bucket holding
        the value contributes linearly (uniformity assumption within a
        bucket).  Inside the value range the estimate is floored at one
        row's share: an inclusive comparison at a boundary (``<= min``)
        always keeps the boundary-valued rows, so it must never
        estimate an empty result.
        """
        if self.high == self.low:
            return 1.0 if value >= self.low else 0.0
        if value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        width = (self.high - self.low) / self.num_buckets
        position = (value - self.low) / width
        bucket = min(self.num_buckets - 1, int(position))
        below = sum(self.counts[:bucket])
        partial = self.counts[bucket] * (position - bucket)
        return min(1.0, max((below + partial) / self.total,
                            1.0 / self.total))

    def selectivity_above(self, value: float) -> float:
        """Estimated fraction of values ``>= value`` (same inclusive
        boundary handling as :meth:`selectivity_below`)."""
        if self.high == self.low:
            return 1.0 if value <= self.low else 0.0
        if value <= self.low:
            return 1.0
        if value > self.high:
            return 0.0
        return min(1.0, max(1.0 - self.selectivity_below(value),
                            1.0 / self.total))


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

    def summary(self) -> str:
        parts = [f"nulls {self.null_fraction:.1%}",
                 f"distinct {self.num_distinct}"]
        if self.min_value is not None:
            parts.insert(0, f"min {self.min_value!r} max {self.max_value!r}")
        return f"{self.name}: " + ", ".join(parts)


@dataclass
class TableStats:
    """Statistics of one table, plus a seeded sample for density probes.

    Density estimates are cached per dimension set, so repeated planning
    of the same query shape costs one dictionary lookup.
    """

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStats]
    sample: tuple[tuple, ...]
    #: Identity of the data snapshot the stats were computed from; the
    #: store compares it against the live table to detect staleness.
    fingerprint: tuple = ()
    _density_cache: dict = field(default_factory=dict, repr=False)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())

    def skyline_density(self, dims: Sequence[BoundDimension]
                        ) -> float | None:
        """Estimated ``|skyline| / |input|`` on the kept sample.

        Sample rows with nulls in any requested dimension are dropped
        (density drives the choice between *complete-data* algorithms);
        returns ``None`` when too few usable rows remain.
        """
        key = tuple((d.index, d.kind) for d in dims)
        if key in self._density_cache:
            return self._density_cache[key]
        usable = [row for row in self.sample
                  if all(row[d.index] is not None for d in dims)]
        density: float | None
        if len(usable) < MIN_DENSITY_SAMPLE:
            density = None
        else:
            density = len(bnl_skyline(usable, list(dims))) / len(usable)
        self._density_cache[key] = density
        return density

    def summary_lines(self, column_names: Sequence[str] | None = None
                      ) -> list[str]:
        """Human-readable per-column lines (for EXPLAIN output)."""
        names = [n.lower() for n in column_names] if column_names \
            else list(self.columns)
        lines = [f"{self.table_name}: {self.num_rows} rows, "
                 f"density sample of {len(self.sample)} rows"]
        for name in names:
            stats = self.columns.get(name)
            if stats is not None:
                lines.append("  " + stats.summary())
        return lines


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
                        sample_rows: int = DEFAULT_SAMPLE_ROWS,
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
    if len(rows) <= sample_rows:
        sample = tuple(rows)
    else:
        rng = random.Random(SAMPLE_SEED)
        sample = tuple(rng.sample(rows, sample_rows))
    return TableStats(table_name=name, num_rows=len(rows),
                      columns=columns, sample=sample,
                      fingerprint=fingerprint)
