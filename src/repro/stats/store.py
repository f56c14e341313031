"""Lazy, invalidating statistics cache.

The catalog owns one :class:`StatsStore`.  Statistics are collected on
first use (the planner asking, or ``ANALYZE TABLE``), cached by table
name, and valid for one :func:`~repro.engine.catalog.table_fingerprint`
-- the same token the table's resident columns use, so the two caches
go stale together (in-place same-length overwrites are not detected;
run ``ANALYZE TABLE`` or :meth:`SkylineSession.stats_refresh` after
such writes).
"""

from __future__ import annotations

from ..engine.catalog import table_fingerprint
from .statistics import TableStats, collect_table_stats


def stats_for_table(table) -> TableStats:
    """Collect statistics straight off a catalog table (uncached)."""
    return collect_table_stats(
        table.name, [f.name for f in table.schema], table.rows,
        fingerprint=table_fingerprint(table))


class StatsStore:
    """Per-catalog cache of :class:`TableStats`, keyed by table name.

    >>> class FakeField:
    ...     def __init__(self, name): self.name = name
    >>> class FakeTable:
    ...     name = "t"
    ...     schema = [FakeField("a")]
    ...     rows = [(1,), (2,)]
    >>> store = StatsStore()
    >>> store.get(FakeTable()).num_rows
    2
    """

    def __init__(self) -> None:
        self._stats: dict[str, TableStats] = {}

    def get(self, table, refresh: bool = False) -> TableStats:
        """Statistics for ``table``, collecting on miss or staleness."""
        key = table.name.lower()
        cached = self._stats.get(key)
        if (not refresh and cached is not None
                and cached.fingerprint == table_fingerprint(table)):
            return cached
        stats = stats_for_table(table)
        self._stats[key] = stats
        return stats

    def peek(self, name: str) -> TableStats | None:
        """The cached entry, if any -- never triggers collection."""
        return self._stats.get(name.lower())

    def invalidate(self, name: str | None = None) -> None:
        """Drop the cached stats of ``name`` (or of every table)."""
        if name is None:
            self._stats.clear()
        else:
            self._stats.pop(name.lower(), None)
