"""Dominance-aware skyline result cache.

The cache exploits a containment property of skyline queries over
complete data: for preference sets ``Q`` (subset) and ``P`` (superset)
with ``Q`` a subset of ``P``,

    ``p`` is in ``sky_Q(D)``  iff  no row of ``sky_P(D)`` Q-dominates ``p``

(proof sketch: any row Q-dominating ``p`` is either itself in
``sky_P(D)`` or P-dominated by a member of it, and P-dominance over a
superset of ``Q``'s dimensions implies Q-dominance or a Q-tie that the
transitivity chain closes).  A cached skyline for ``P`` therefore
answers *any* query whose preference set is contained in ``P`` --
exactly, not approximately -- by one linear filter of the base table
against the (small) cached skyline: ``O(n * k)`` instead of the
``O(n^2)`` dominance join.

Entries **reference, never copy**: an entry holds the table's published
resident batch (:meth:`repro.engine.catalog.Table.column_batch`, the
very object the table holds) it was last reconciled with and its
members' row positions in it.  The re-filter reads that batch's typed
columns, so members and base are always one version and the cache
keeps no columnized copy of any table.

DML *maintains* the cache: the catalog's delta events carry the
republished batch, and over complete data one delta changes a skyline
by exactly one step.

* **insert** -- one BNL window step (Börzsönyi, Kossmann, Stocker;
  :func:`repro.core.bnl.bnl_step`, the step every BNL kernel runs): a
  row strictly dominated by a member changes no skyline, for ``P`` or
  any subset of it; any other row joins and the members it dominates
  leave (a tie on every dimension keeps both) -- whatever else it
  dominates, a member dominated already.  It is the table's last row,
  so appending keeps table order.  A NULL or NaN in a cached dimension
  invalidates: the proofs need transitivity (Khalefa, Mokbel,
  Levandoski).
* **delete** -- a non-member changes nothing (a member dominates it,
  before and after).  A deleted member ``d`` leaves and only the rows
  ``d`` dominated are re-examined -- every other non-member keeps a
  surviving dominator, by transitivity: those no remaining member
  dominates, reduced to their own skyline, are promoted and merged in
  by table position.
* **register / drop** -- all entries for the table are discarded.

An entry with no batch to reference (a row-plane tenant never builds
one; a DML that found none current republishes none) keeps the older
rules: a dominated insert or a non-member delete keeps it, any other
delta invalidates.  Invalidations are counted by reason.

Only plans of the shape ``Skyline(identity-Project(Relation))`` with
``DISTINCT`` off and null-free dimension columns are cached -- the
shape the optimizer produces for ``SELECT * FROM t SKYLINE OF ...``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core import BoundDimension, DimensionKind, dominates
from ..core.bnl import bnl_step
from ..core.vectorized import vec_dominated_mask
from ..engine import expressions as E
from ..engine.batch import F8, OBJ, Column, ColumnBatch
from ..engine.catalog import CatalogEvent, Table
from ..plan import logical as L


@dataclass(frozen=True)
class CacheableShape:
    """A query the cache can serve: one table, one preference set.

    ``dims`` is the preference set in query order as ``(column, kind)``
    pairs (column names lower-cased); ``indices`` holds each
    dimension's ordinal in the table's row tuples.  Two shapes with
    equal :attr:`key` are the same cache slot even if their dimensions
    are written in a different order.
    """

    table: str
    dims: tuple[tuple[str, DimensionKind], ...]
    indices: tuple[int, ...]

    @property
    def key(self) -> tuple:
        return (self.table, frozenset(self.dims))

    def bound_dimensions(self) -> list[BoundDimension]:
        return [BoundDimension(index, kind)
                for (_, kind), index in zip(self.dims, self.indices)]


def cacheable_shape(optimized: "L.LogicalPlan | None"
                    ) -> CacheableShape | None:
    """Extract the cacheable shape of an optimized plan, or ``None``.

    Accepts exactly ``Skyline -> identity Project -> Relation`` (or the
    projection collapsed away), with ``DISTINCT`` off and every skyline
    dimension a bare column of the relation.  Nullability of the
    dimension columns is *not* checked here -- the store path verifies
    the actual data is null-free, which is the property the containment
    rule needs.
    """
    if not isinstance(optimized, L.SkylineOperator):
        return None
    if optimized.distinct:
        return None
    child = optimized.children[0]
    if isinstance(child, L.Project):
        relation = child.children[0]
        if not isinstance(relation, L.LogicalRelation):
            return None
        rel_out = relation.output
        projections = child.projections
        if len(projections) != len(rel_out):
            return None
        for proj, attr in zip(projections, rel_out):
            if not isinstance(proj, E.AttributeReference) or \
                    proj.expr_id != attr.expr_id:
                return None
    elif isinstance(child, L.LogicalRelation):
        relation = child
    else:
        return None
    index_of = {a.expr_id: i for i, a in enumerate(relation.output)}
    dims: list[tuple[str, DimensionKind]] = []
    indices: list[int] = []
    for item in optimized.skyline_items:
        expr = item.children[0]
        if not isinstance(expr, E.AttributeReference):
            return None
        position = index_of.get(expr.expr_id)
        if position is None:
            return None
        dims.append((expr.name.lower(), item.kind))
        indices.append(position)
    if not dims:
        return None
    return CacheableShape(table=relation.table.name.lower(),
                          dims=tuple(dims), indices=tuple(indices))


#: Why an entry was dropped, not maintained: a NULL / NaN in a cached
#: dimension, a delta needing resident columns when none were published,
#: a re-registered / dropped table, columns the delete step cannot read.
INVALIDATION_REASONS = ("null_dimension", "nan_dimension",
                        "no_resident_columns", "register", "drop",
                        "unvectorizable")


@dataclass
class CacheStats:
    """Counters the server's ``stats`` op reports."""

    exact_hits: int = 0
    refilter_hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    #: Inserted rows that entered / deletes that removed members of a
    #: cached skyline that was updated and kept.
    maintained_inserts: int = 0
    maintained_deletes: int = 0
    invalidation_reasons: dict = field(
        default_factory=lambda: dict.fromkeys(INVALIDATION_REASONS, 0))

    @property
    def hits(self) -> int:
        return self.exact_hits + self.refilter_hits

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Entry:
    """One cached skyline.  ``base`` is the published resident batch
    the members were last reconciled with and ``positions`` their
    ascending row positions in it (``rows`` is in table order).  With
    no batch to reference (``None``) re-filters read the table's row
    list and only deltas that leave the members alone keep the entry."""

    shape: CacheableShape
    rows: tuple[tuple, ...]
    base: "ColumnBatch | None" = None
    positions: list = field(default_factory=list)


def _complete(column: Column) -> bool:
    """True when ``column`` holds neither NULL nor NaN: the data the
    containment rule and both maintenance steps are proved for."""
    if column.kind == OBJ:
        return not any(v is None or v != v for v in column.data)
    return not column.has_nulls() and not (
        column.kind == F8 and bool(np.isnan(column.data).any()))


def _locate(base: ColumnBatch, members: list, column: int
            ) -> "list[int] | None":
    """Ascending positions of the skyline ``members`` in ``base``, or
    ``None`` when a DML landed since they were computed.  A row equal
    to a member ties it on every dimension, so is one: set membership
    is exact; a typed dimension column narrows the rows worth hashing."""
    rows, wanted = base.to_rows(), set(members)
    near = range(len(rows))
    if base.column(column).is_array:
        near = np.flatnonzero(np.isin(
            base.column(column).data, [m[column] for m in wanted])).tolist()
    positions = [i for i in near if rows[i] in wanted]
    return positions if len(positions) == len(members) else None


def _promoted(base: ColumnBatch, members: list, deleted: list, bdims
              ) -> "list[int] | None":
    """Positions in ``base`` (the batch *after* the delete) of the rows
    entering the skyline as the ``deleted`` members leave: those they
    dominated that neither a remaining member (at ``members``) nor
    another such row dominates.  ``None``: the dimension columns cannot
    serve (DIFF, non-numeric)."""
    dominated = vec_dominated_mask(base, deleted, bdims)
    if dominated is None:
        return None
    candidates = np.flatnonzero(dominated)
    pool = np.concatenate(
        [np.asarray(members, dtype=np.intp), candidates])
    dead = vec_dominated_mask(base.take(candidates), base.take(pool), bdims)
    return candidates[~dead].tolist()


class SkylineResultCache:
    """LRU cache of skyline results with containment-based lookup.

    Thread-safe: the serving layer executes queries on a thread pool
    and delivers catalog events from whichever thread ran the DML.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Version of the newest catalog event applied to the entries.
        self._applied_version = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup -----------------------------------------------------------

    def lookup(self, shape: CacheableShape, table: Table
               ) -> "list[tuple] | None":
        """Rows answering ``shape``, or ``None`` on a miss.

        An exact entry (same preference set) is returned as stored; a
        superset entry answers by re-filtering the base it references
        (or ``table``'s row list) against the cached skyline under the
        query's own dimensions.
        """
        with self._lock:
            exact = self._entries.get(shape.key)
            if exact is not None:
                self._entries.move_to_end(shape.key)
                self.stats.exact_hits += 1
                return list(exact.rows)
            supersets = [entry for entry in self._entries.values()
                         if entry.shape.table == shape.table
                         and set(shape.dims) <= set(entry.shape.dims)]
            if not supersets:
                self.stats.misses += 1
                return None
            best = min(supersets, key=lambda entry: len(entry.rows))
            self._entries.move_to_end(best.shape.key)
            self.stats.refilter_hits += 1
            return self._refilter(best, shape, table)

    @staticmethod
    def _refilter(entry: _Entry, shape: CacheableShape, table: Table
                  ) -> list[tuple]:
        """The base rows no cached member dominates under ``shape``, in
        table order: the shared dominance kernel over the resident
        dimension columns (most candidates drop out at the first few
        members), the scalar loop where the columns cannot serve."""
        base = entry.base
        rows = base.to_rows() if base is not None else list(table.rows)
        bdims = shape.bound_dimensions()
        dominated = vec_dominated_mask(base if base is not None else rows,
                                       entry.rows, bdims)
        if dominated is not None:
            return [rows[i] for i in np.flatnonzero(~dominated).tolist()]
        return [row for row in rows
                if not any(dominates(member, row, bdims)
                           for member in entry.rows)]

    # -- store ------------------------------------------------------------

    def store(self, shape: CacheableShape, rows: list[tuple],
              table: Table, version: "int | None" = None) -> bool:
        """Cache ``rows`` as the skyline for ``shape``.

        ``table`` is the base table the result was computed from; the
        store is refused (returns ``False``) if any dimension value in
        it is NULL or NaN: the containment rule and the maintenance
        steps are proved for complete data only.  The entry references
        the table's resident batch if one is current (it never builds
        one) and is refused when its members are not all found there: a
        DML landed since they were computed.

        ``version`` is the catalog version read *before* the result was
        computed.  The store is also refused when the listener has
        already applied a newer event, whose delta can never reach this
        entry.  The test runs under the listener's lock, so a mutation
        either is seen here or sees the stored entry.
        """
        rows = [tuple(row) for row in rows]
        indices = shape.indices
        base, positions = table.resident_batch(), []
        if base is None:
            table_rows = list(table.rows)
            columns = [Column(OBJ, [row[i] for row in table_rows])
                       for i in indices]
        else:
            columns = [base.column(i) for i in indices]
        if not all(map(_complete, columns)):
            return False
        if base is not None:
            positions = _locate(base, rows, indices[0])
            if positions is None:
                return False
            table_rows = base.to_rows()
            rows = [table_rows[p] for p in positions]
        entry = _Entry(shape, tuple(rows), base, positions)
        with self._lock:
            if version is not None and version < self._applied_version:
                return False
            self._entries[shape.key] = entry
            self._entries.move_to_end(shape.key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return True

    # -- maintenance ------------------------------------------------------

    def on_catalog_event(self, event: CatalogEvent) -> None:
        """Catalog listener: apply the delta to the table's entries."""
        with self._lock:
            self._applied_version = max(self._applied_version,
                                        event.version)
            for key, entry in list(self._entries.items()):
                if entry.shape.table != event.table:
                    continue
                reason = self._reconcile(entry, event) \
                    if event.kind in ("insert", "delete") else event.kind
                if reason is not None:
                    del self._entries[key]
                    self.stats.invalidations += 1
                    self.stats.invalidation_reasons[reason] += 1

    def _reconcile(self, entry: _Entry, event: CatalogEvent
                   ) -> "str | None":
        """Bring ``entry`` up to ``event`` (a DML delta); returns the
        reason it has to be invalidated instead, if any.  DML is
        serialised, so at most one delta is in flight, and an entry
        stored meanwhile (the catalog had republished, this listener
        not run) may reference either batch: an inserted row already
        among its positions is skipped, and a base as long as the
        post-delete batch already lacks the deleted rows."""
        batch = event.batch if entry.base is not None else None
        members, positions = list(entry.rows), entry.positions
        bdims = entry.shape.bound_dimensions()
        if event.kind == "insert":
            first = len(batch) - len(event.rows) if batch is not None else 0
            for at, row in enumerate(event.rows, first):
                if batch is not None and at in positions:
                    continue
                for i in entry.shape.indices:
                    if row[i] is None:
                        return "null_dimension"
                    if row[i] != row[i]:
                        return "nan_dimension"
                window, dominated, _ = bnl_step(members, row, bdims)
                if dominated:
                    continue
                if batch is None:
                    return "no_resident_columns"
                # ``window``: the members ``row`` spared, in order, then
                # ``row``; one object fares alike wherever it stands, so
                # ids map the survivors back to their positions.
                kept = set(map(id, window))
                positions = [p for m, p in zip(members, positions)
                             if id(m) in kept] + [at]
                members = window
                self.stats.maintained_inserts += 1
        elif batch is None:
            if not set(members).isdisjoint(event.rows):
                return "no_resident_columns"
        elif entry.base.num_rows != batch.num_rows:
            gone = set(event.positions)
            deleted = [m for m, p in zip(members, positions) if p in gone]
            positions = [p - bisect_left(event.positions, p)
                         for p in positions if p not in gone]
            if deleted:
                promoted = _promoted(batch, positions, deleted, bdims)
                if promoted is None:
                    return "unvectorizable"
                positions = sorted(positions + promoted)
                self.stats.maintained_deletes += 1
            rows = batch.to_rows()
            members = [rows[p] for p in positions]
        entry.rows, entry.positions, entry.base = \
            tuple(members), positions, batch
        return None
