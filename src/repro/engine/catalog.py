"""Table catalog.

The analyzer "takes each identifier and translates it using the Catalog"
(Section 4).  Tables hold their rows, a schema, and optional constraint
metadata (primary/foreign keys) which the optimizer's non-reductive-join
rule consults (Section 5.4).  The catalog also owns the statistics cache
(:class:`~repro.stats.store.StatsStore`): per-table statistics are
collected lazily on first use and invalidated when a table is
re-registered, dropped, or mutated through the DML entry points.

For the serving layer the catalog additionally provides:

* **DML deltas** -- :meth:`Catalog.insert_into` / :meth:`Catalog.delete_from`
  mutate a registered table's row list *in place*, so physical plans
  that captured the list by reference (scans, prepared queries) see the
  new data without replanning.
* **Change notification** -- listeners registered via
  :meth:`Catalog.add_listener` receive one :class:`CatalogEvent` per
  mutation; the dominance-aware result cache
  (:class:`repro.serve.cache.SkylineResultCache`) uses the delta rows
  carried by insert/delete events to invalidate *incrementally* instead
  of dropping everything on any write.
* **A version counter** -- bumped on every mutation; cross-session plan
  caches key on it.

A table also owns the **columnar form** of its rows, shared by every
session on the catalog: see :meth:`Table.column_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..errors import AnalysisError
from .batch import ColumnBatch
from .row import Schema


def table_fingerprint(table) -> tuple:
    """THE staleness token of ``table.rows`` (a :class:`Table`, or any
    object with a ``rows`` list): the resident columns, the statistics
    store and pinned prepared-query inputs are each valid for one token.
    Catalog DML bumps ``data_version``, re-registration changes the
    list object, a direct ``rows.append`` the length; only a same-length
    overwrite behind the catalog's back goes unseen (``ANALYZE TABLE``)."""
    return (id(table.rows), len(table.rows),
            getattr(table, "data_version", 0))


#: Builds :meth:`Table.column_batch` tries against a write-hot table.
COLUMNIZE_ATTEMPTS = 3


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint: ``columns`` reference ``ref_table``.

    Together with NOT NULL on the referencing columns this makes a join
    along the key *non-reductive* in the sense of Carey & Kossmann [6]:
    every row of the referencing table finds at least one partner.
    """

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass
class Table:
    """A named dataset registered in the catalog."""

    name: str
    schema: Schema
    rows: list[tuple]
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    #: Columns with a UNIQUE constraint (each a tuple of column names).
    unique_keys: list[tuple[str, ...]] = field(default_factory=list)
    #: Bumped by every catalog DML delta against this table; part of
    #: :func:`table_fingerprint`.
    data_version: int = 0
    #: ``(table_fingerprint, ColumnBatch)`` of the resident columns.
    _columns: "tuple | None" = field(default=None, init=False,
                                     repr=False, compare=False)

    def __post_init__(self) -> None:
        width = len(self.schema)
        for row in self.rows:
            if len(row) != width:
                raise AnalysisError(
                    f"row width {len(row)} does not match schema width "
                    f"{width} for table {self.name!r}")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def column_batch(self) -> "tuple[ColumnBatch, bool]":
        """``(batch, built)``: the whole table as ONE read-only batch,
        built once per :func:`table_fingerprint` and read by every
        columnar scan through zero-copy :meth:`ColumnBatch.slice` views.

        Publish after verify: read the token, columnize an atomic
        snapshot of the row list, re-read the token -- a batch that DML
        overtook is discarded and rebuilt, never cached (concurrent
        builders may both build; last publish wins).  When DML overtakes
        :data:`COLUMNIZE_ATTEMPTS` builds in a row the caller gets the
        last snapshot unpublished -- a consistent read, merely not the
        newest -- instead of spinning behind a write-hot table.
        """
        for attempt in range(COLUMNIZE_ATTEMPTS):
            token = table_fingerprint(self)
            cached = self._columns
            if cached is not None and cached[0] == token:
                return cached[1], attempt > 0
            batch = ColumnBatch.from_rows(list(self.rows),
                                          len(self.schema))
            batch.set_read_only()
            if table_fingerprint(self) == token:
                self._columns = (token, batch)
                break
        return batch, True

    @property
    def resident_column_bytes(self) -> int:
        """Bytes of the resident columns (0 when none are built)."""
        cached = self._columns
        return cached[1].nbytes if cached is not None else 0


@dataclass(frozen=True)
class CatalogEvent:
    """One catalog mutation, as delivered to registered listeners.

    ``kind`` is ``"register"``, ``"drop"``, ``"insert"`` or
    ``"delete"``; for the DML kinds ``rows`` carries the delta (the
    rows inserted / actually deleted), which is what makes incremental
    cache invalidation possible.  ``version`` is the catalog version
    *after* the mutation, so listeners can tag derived state.
    """

    kind: str
    table: str
    rows: tuple = ()
    version: int = 0


class Catalog:
    """A case-insensitive registry of tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._listeners: list[Callable[[CatalogEvent], None]] = []
        #: Bumped on every mutation (register/drop/insert/delete);
        #: cross-session plan caches key on it.
        self.version: int = 0
        # Imported lazily at class-definition time would be circular;
        # the stats package only depends on repro.core.
        from ..stats import StatsStore
        self.stats = StatsStore()

    # -- change notification ----------------------------------------------

    def add_listener(self, listener: Callable[[CatalogEvent], None]
                     ) -> None:
        """Register a callable invoked synchronously on every mutation."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[CatalogEvent], None]
                        ) -> None:
        self._listeners = [ln for ln in self._listeners
                           if ln is not listener]

    def _notify(self, kind: str, table: str, rows: Sequence[tuple] = ()
                ) -> None:
        self.version += 1
        if self._listeners:
            event = CatalogEvent(kind, table.lower(), tuple(rows),
                                 self.version)
            for listener in self._listeners:
                listener(event)

    def register(self, table: Table, replace: bool = True) -> None:
        key = table.name.lower()
        if not replace and key in self._tables:
            raise AnalysisError(f"table {table.name!r} already exists")
        replaced = self._tables.get(key)
        if replaced is not None:
            replaced._columns = None
        self._tables[key] = table
        self.stats.invalidate(key)
        self._notify("register", key)

    def create_table(self, name: str, schema: Schema,
                     rows: Iterable[tuple],
                     primary_key: Sequence[str] = (),
                     foreign_keys: Iterable[ForeignKey] = (),
                     unique_keys: Iterable[Sequence[str]] = ()) -> Table:
        table = Table(name=name, schema=schema, rows=list(rows),
                      primary_key=tuple(primary_key),
                      foreign_keys=list(foreign_keys),
                      unique_keys=[tuple(k) for k in unique_keys])
        self.register(table)
        return table

    def lookup(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise AnalysisError(f"table or view not found: {name}") from None

    def exists(self, name: str) -> bool:
        return name.lower() in self._tables

    def drop(self, name: str) -> None:
        existed = self._tables.pop(name.lower(), None)
        self.stats.invalidate(name)
        if existed is not None:
            existed._columns = None
            self._notify("drop", name)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def resident_column_bytes(self) -> dict[str, int]:
        """Bytes of resident columns per table (one atomic snapshot)."""
        return {name: table.resident_column_bytes
                for name, table in sorted(self._tables.items())}

    # -- DML deltas -------------------------------------------------------

    def insert_into(self, name: str, rows: Iterable[tuple]) -> int:
        """Append rows to a registered table, in place.

        Physical plans holding the table's row list by reference see
        the new rows immediately; statistics are invalidated and
        listeners receive an ``insert`` event carrying the delta.
        Returns the number of rows inserted.
        """
        table = self.lookup(name)
        width = len(table.schema)
        inserted = []
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise AnalysisError(
                    f"row width {len(row)} does not match schema width "
                    f"{width} for table {table.name!r}")
            for value, column in zip(row, table.schema):
                if value is None and not column.nullable:
                    raise AnalysisError(
                        f"NULL in NOT NULL column {column.name!r} of "
                        f"table {table.name!r}")
            inserted.append(row)
        table.rows.extend(inserted)
        table.data_version += 1
        table._columns = None
        self.stats.invalidate(name)
        self._notify("insert", name, inserted)
        return len(inserted)

    def delete_from(self, name: str,
                    rows: Iterable[tuple] | None = None,
                    predicate: Callable[[tuple], bool] | None = None
                    ) -> int:
        """Delete rows from a registered table, in place.

        Exactly one of ``rows`` (each listed tuple removed once, by
        value) or ``predicate`` (every matching row removed) must be
        given.  Listeners receive a ``delete`` event carrying the rows
        that were actually removed; returns their count.
        """
        if (rows is None) == (predicate is None):
            raise ValueError("pass exactly one of rows= or predicate=")
        table = self.lookup(name)
        removed: list[tuple] = []
        if predicate is not None:
            kept = []
            for row in table.rows:
                (removed if predicate(row) else kept).append(row)
            table.rows[:] = kept
        else:
            for target in rows:
                target = tuple(target)
                try:
                    table.rows.remove(target)
                except ValueError:
                    continue
                removed.append(target)
        if removed:
            table.data_version += 1
            table._columns = None
            self.stats.invalidate(name)
            self._notify("delete", name, removed)
        return len(removed)

    def statistics(self, name: str, refresh: bool = False):
        """Statistics for table ``name``, collected lazily and cached.

        The cache is invalidated on :meth:`register`/:meth:`drop` and
        when the table's row list visibly changes (different object or
        length); pass ``refresh=True`` to force re-collection.
        Returns a :class:`~repro.stats.statistics.TableStats`.
        """
        return self.stats.get(self.lookup(name), refresh=refresh)
