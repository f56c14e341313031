"""Lazy, invalidating statistics cache.

The catalog owns one :class:`StatsStore`.  Statistics are collected on
first use (:meth:`SkylineSession.table_stats` or ``ANALYZE TABLE``),
cached by table name, and valid for one :func:`~repro.engine.catalog.table_fingerprint`
-- the same token the table's resident columns use, so the two caches
go stale together (in-place same-length overwrites are not detected;
run ``ANALYZE TABLE`` or :meth:`SkylineSession.stats_refresh` after
such writes).
"""

from __future__ import annotations

from ..engine.catalog import table_fingerprint
from .statistics import TableStats, collect_table_stats


def stats_for_table(table, columnar: bool = True) -> TableStats:
    """Collect statistics straight off a catalog table (uncached), via
    its resident columns: built here for a caller on the ``columnar``
    plane (its first scan then finds them), only read if already
    current for any other -- the row plane never gains a batch."""
    fingerprint = table_fingerprint(table)
    batch = table.column_batch()[0] if columnar \
        else table.resident_batch()
    rows = batch.to_rows() if batch is not None else table.rows
    return collect_table_stats(
        table.name, [f.name for f in table.schema], rows,
        fingerprint=fingerprint, batch=batch)


class StatsStore:
    """Per-catalog cache of :class:`TableStats`, keyed by table name.

    >>> from repro.engine.catalog import Table
    >>> from repro.engine.row import Field, Schema
    >>> from repro.engine.types import INTEGER
    >>> table = Table("t", Schema([Field("a", INTEGER)]), [(1,), (2,)])
    >>> StatsStore().get(table).num_rows
    2
    """

    def __init__(self) -> None:
        self._stats: dict[str, TableStats] = {}

    def get(self, table, refresh: bool = False,
            columnar: bool = True) -> TableStats:
        """Statistics for ``table``, collecting on miss or staleness
        (``columnar``: see :func:`stats_for_table`)."""
        key = table.name.lower()
        cached = self._stats.get(key)
        if (not refresh and cached is not None
                and cached.fingerprint == table_fingerprint(table)):
            return cached
        stats = stats_for_table(table, columnar)
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
