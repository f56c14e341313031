"""Table catalog.

The analyzer "takes each identifier and translates it using the Catalog"
(Section 4).  Tables hold their rows, a schema, and optional constraint
metadata (primary/foreign keys) which the optimizer's non-reductive-join
rule consults (Section 5.4).  The catalog also owns the statistics cache
(:class:`~repro.stats.store.StatsStore`): per-table statistics are
collected lazily on first use -- from the resident columns, so
recollecting is cheap -- and dropped (not merged) when a table is
re-registered, dropped, or mutated through the DML entry points.

For the serving layer the catalog additionally provides:

* **DML deltas** -- :meth:`Catalog.insert_into` / :meth:`Catalog.delete_from`
  mutate a registered table's row list *in place*, so physical plans
  that captured the list by reference (scans, prepared queries) see the
  new data without replanning.
* **Change notification** -- listeners registered via
  :meth:`Catalog.add_listener` receive one :class:`CatalogEvent` per
  mutation; the dominance-aware result cache
  (:class:`repro.serve.cache.SkylineResultCache`) applies the delta
  carried by insert/delete events to its cached skylines instead of
  dropping them on any write.
* **Two version counters** -- ``version`` is bumped on every mutation,
  ``schema_version`` by register/drop only; the plan cache keys on the
  latter (a prepared plan reads the table, not a snapshot).
* **One plan cache** -- :attr:`Catalog.plans`, a bounded LRU of planned
  statements shared by every session on the catalog, a server's tenants
  included (:meth:`repro.api.session.SkylineSession.sql`).

A table also owns the **columnar form** of its rows, shared by every
session on the catalog (:meth:`Table.column_batch`); DML maintains it
copy-on-write instead of dropping it (:meth:`Table._republish`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..errors import AnalysisError
from .batch import ColumnBatch, without_positions
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

#: :attr:`Table.maintenance`: DML deltas applied to the resident columns
#: (``appended`` / ``deleted``), whole-table builds, columns whose
#: storage changed (another kind, a first null mask) for a value it could
#: not hold, deltas that republished nothing (overtaken; none resident).
MAINTENANCE_COUNTERS = ("appended", "deleted", "rebuilt",
                        "reencoded_kind_drift", "overtaken_by_dml",
                        "not_resident")


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
    maintenance: dict = field(
        default_factory=lambda: dict.fromkeys(MAINTENANCE_COUNTERS, 0),
        init=False, repr=False, compare=False)

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
            self.maintenance["rebuilt"] += 1
            if table_fingerprint(self) == token:
                self._columns = (token, batch)
                break
        return batch, True

    def resident_batch(self) -> "ColumnBatch | None":
        """The resident batch if it is current, else ``None``; unlike
        :meth:`column_batch` this never builds one."""
        cached = self._columns
        current = cached is not None and cached[0] == table_fingerprint(self)
        return cached[1] if current else None

    def _append(self, rows: "list[tuple]") -> "ColumnBatch | None":
        """Insert delta: extend the row list, republish the columns."""
        resident = self.resident_batch()
        self.rows.extend(rows)
        return self._republish("appended", resident,
                               lambda batch: batch.extend(rows))

    def _remove(self, positions: "list[int]") -> "ColumnBatch | None":
        """Delete delta: the rows at ``positions`` (ascending) leave
        the row list, in place, and the republished columns."""
        resident = self.resident_batch()
        self.rows[:] = without_positions(self.rows, positions)
        return self._republish("deleted", resident,
                               lambda batch: batch.delete(positions))

    def _republish(self, counter: str, resident: "ColumnBatch | None",
                   step: Callable[[ColumnBatch], ColumnBatch]
                   ) -> "ColumnBatch | None":
        """Close one DML delta already applied to the row list.
        ``resident``, the batch that was *current* before it, is carried
        across by ``step``, copy-on-write: an O(table bytes) memcpy for
        the O(rows) columnization it replaces, and slices of the old
        batch stay valid.  Publish after verify, as in
        :meth:`column_batch`: only under the exact token this delta
        produces, so an overtaking DML (or a stale or absent batch)
        leaves nothing resident and the next reader rebuilds.  Returns
        the published batch, or ``None``."""
        self.data_version += 1
        version = self.data_version
        self._columns = None
        if resident is None:
            self.maintenance["not_resident"] += 1
            return None
        batch = step(resident)
        batch.set_read_only()
        for old, new in zip(resident.columns, batch.columns):
            if len(old) and old.kind != new.kind:
                self.maintenance["reencoded_kind_drift"] += 1
        token = (id(self.rows), batch.num_rows, version)
        if table_fingerprint(self) != token:
            self.maintenance["overtaken_by_dml"] += 1
            return None
        self._columns = (token, batch)
        self.maintenance[counter] += 1
        return batch

    @property
    def resident_column_bytes(self) -> int:
        """Bytes of the resident columns (0 when none are built)."""
        cached = self._columns
        return cached[1].nbytes if cached is not None else 0


#: Statements a :class:`PlanCache` keeps planned; the least recently
#: used goes beyond it.
PLAN_CACHE_SIZE = 128


class PlanCache:
    """A bounded LRU of planned statements, keyed by the caller.

    The catalog owns one (:attr:`Catalog.plans`), so every session on a
    catalog -- a private session's clones, or all of a server's tenants
    -- reuses the others' plans.  The key (SQL text, planning settings,
    the catalog's schema version) is the session's to build; the cache
    only bounds and counts.  A miss is counted when its plan is stored, so a
    statement that fails to plan counts nothing.  Thread-safe.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def peek(self, key: tuple) -> "object | None":
        """The entry under ``key``, if any, without counting or
        refreshing it."""
        return self._entries.get(key)

    def get(self, key: tuple) -> "object | None":
        """The entry under ``key`` (counted as a hit), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            return entry

    def put(self, key: tuple, entry: object) -> None:
        """Store a freshly planned ``entry`` (counted as a miss)."""
        with self._lock:
            self.misses += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > PLAN_CACHE_SIZE:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}


@dataclass(frozen=True)
class CatalogEvent:
    """One catalog mutation, as delivered to registered listeners.

    ``kind`` is ``"register"``, ``"drop"``, ``"insert"`` or
    ``"delete"``; for the DML kinds ``rows`` carries the delta (the
    rows inserted / actually deleted, in table order), which is what
    lets the result cache maintain its entries.  ``version`` is the
    catalog version *after* the mutation.  ``batch`` is the table's
    resident columns as this mutation republished them (``None``: none
    were resident and current) and ``positions`` the deleted rows'
    ascending positions *before* it: a listener never reaches back.
    """

    kind: str
    table: str
    rows: tuple = ()
    version: int = 0
    batch: "ColumnBatch | None" = field(default=None, compare=False)
    positions: tuple = ()


class Catalog:
    """A case-insensitive registry of tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._listeners: list[Callable[[CatalogEvent], None]] = []
        #: Bumped on every mutation (register/drop/insert/delete).
        self.version: int = 0
        #: Bumped by register/drop only: what a plan that holds tables,
        #: not snapshots, is valid for (the plan cache's key).
        self.schema_version: int = 0
        #: Planned statements of every session on this catalog; emptied
        #: by register/drop, after which no stored key can match again.
        self.plans = PlanCache()
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
        """Unregister ``listener``.  Compared with ``==``: every
        ``obj.method`` access builds a new bound method, equal to (but
        never the same object as) the one that was registered."""
        self._listeners = [ln for ln in self._listeners
                           if ln != listener]

    def _notify(self, kind: str, table: str, rows: Sequence[tuple] = (),
                batch: "ColumnBatch | None" = None,
                positions: Sequence[int] = ()) -> None:
        self.version += 1
        if kind in ("register", "drop"):
            self.schema_version += 1
            self.plans.clear()
        if self._listeners:
            event = CatalogEvent(kind, table.lower(), tuple(rows),
                                 self.version, batch, tuple(positions))
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

    def column_maintenance(self) -> dict[str, dict]:
        """:attr:`Table.maintenance` per table (one atomic snapshot)."""
        return {name: dict(table.maintenance)
                for name, table in sorted(self._tables.items())}

    # -- DML deltas -------------------------------------------------------

    def insert_into(self, name: str, rows: Iterable[tuple]) -> int:
        """Append rows to a registered table, in place.

        Physical plans holding the table's row list by reference see
        the new rows immediately; resident columns are maintained (only
        the delta is columnized), statistics dropped, and listeners
        receive an ``insert`` event carrying the delta and the
        republished batch.  Returns the number of rows inserted.
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
        batch = table._append(inserted)
        self.stats.invalidate(name)
        self._notify("insert", name, inserted, batch)
        return len(inserted)

    def delete_from(self, name: str,
                    rows: Iterable[tuple] | None = None,
                    predicate: Callable[[tuple], bool] | None = None
                    ) -> int:
        """Delete rows from a registered table, in place.

        Exactly one of ``rows`` (each listed tuple removes the first
        remaining row equal to it, as ``list.remove`` would) or
        ``predicate`` (every matching row removed) must be given.  The
        *positions* are settled first and taken out of the row list and
        the resident columns alike; listeners receive a ``delete``
        event carrying the removed rows and positions.  Returns their
        count; a delete that removes nothing publishes nothing.
        """
        if (rows is None) == (predicate is None):
            raise ValueError("pass exactly one of rows= or predicate=")
        table = self.lookup(name)
        if predicate is not None:
            positions = [i for i, row in enumerate(table.rows)
                         if predicate(row)]
        else:
            positions, search_from = [], {}
            for target in rows:
                target = tuple(target)
                try:
                    at = table.rows.index(target,
                                          search_from.get(target, 0))
                except ValueError:
                    continue
                search_from[target] = at + 1
                positions.append(at)
            positions.sort()
        if not positions:
            return 0
        removed = [table.rows[i] for i in positions]
        batch = table._remove(positions)
        self.stats.invalidate(name)
        self._notify("delete", name, removed, batch, positions)
        return len(removed)

    def statistics(self, name: str, refresh: bool = False,
                   columnar: bool = True):
        """Statistics for table ``name``, collected lazily and cached.

        Valid for one :func:`table_fingerprint` (dropped by register,
        drop and DML, never merged: collecting from the resident
        columns is cheap -- a ``columnar=False`` caller builds none);
        ``refresh=True`` forces re-collection.
        Returns a :class:`~repro.stats.statistics.TableStats`.
        """
        return self.stats.get(self.lookup(name), refresh, columnar)
