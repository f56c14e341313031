"""repro.stats: table/column statistics for ``ANALYZE TABLE`` and
inspection (no planning decision reads them).

Entry points:

* :func:`collect_table_stats` -- one-pass collection over raw rows;
* :func:`stats_for_table` -- the same, straight off a catalog table;
* :class:`StatsStore` -- the lazy, invalidating cache the catalog owns;
* :class:`TableStats` / :class:`ColumnStats` / :class:`Histogram` --
  the data model ``ANALYZE TABLE`` renders.

Most users never touch this package directly: the session exposes
:meth:`~repro.api.session.SkylineSession.table_stats` and
:meth:`~repro.api.session.SkylineSession.stats_refresh`, and SQL users
run ``ANALYZE TABLE name COMPUTE STATISTICS``.
"""

from .statistics import (ColumnStats, Histogram, TableStats,
                         collect_table_stats)
from .store import StatsStore, stats_for_table, table_fingerprint

__all__ = [
    "ColumnStats",
    "Histogram",
    "StatsStore",
    "TableStats",
    "collect_table_stats",
    "stats_for_table",
    "table_fingerprint",
]
