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

DML does not simply flush the cache; the catalog's delta events enable
*incremental* invalidation:

* **insert** -- an entry stays valid iff every inserted row is strictly
  dominated by some cached skyline member (a dominated row changes no
  skyline, for ``P`` or any subset of it).  A surviving or tying row
  invalidates; so does a row with a NULL in a cached dimension (the
  complete-semantics proof needs null-free dimensions).
* **delete** -- an entry stays valid iff no removed row is tuple-equal
  to a cached member: every non-member is dominated by *some* member
  (transitivity), so removing it cannot promote new members.
* **register / drop** -- all entries for the table are discarded.

Only plans of the shape ``Skyline(identity-Project(Relation))`` with
``DISTINCT`` off and null-free dimension columns are cached -- the
shape the optimizer produces for ``SELECT * FROM t SKYLINE OF ...``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..core import BoundDimension, DimensionKind, dominates
from ..core.vectorized import (_columns, _dominated_by, columnize,
                               vec_dominated_mask)
from ..engine import expressions as E
from ..engine.catalog import CatalogEvent
from ..engine.row import Schema
from ..plan import logical as L

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None


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

    @property
    def dim_set(self) -> frozenset:
        return frozenset(self.dims)

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


@dataclass
class CacheStats:
    """Counters the server's ``stats`` op reports."""

    exact_hits: int = 0
    refilter_hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.refilter_hits

    def as_dict(self) -> dict:
        return {"exact_hits": self.exact_hits,
                "refilter_hits": self.refilter_hits,
                "misses": self.misses, "stores": self.stores,
                "invalidations": self.invalidations}


def _oriented_values(rows, bdims) -> "object | None":
    """The MAX-negated float64 value matrix of ``rows`` over ``bdims``
    (all dimensions oriented as MIN), or ``None`` when the rows cannot
    be columnized faithfully or contain NULL dimension values."""
    block = columnize(rows, bdims)
    if block is None or (len(rows) and block.null_mask.any()):
        return None
    return block.values


@dataclass
class _Entry:
    """One cached skyline plus the columnized state a re-filter needs.

    ``base_values`` is the oriented value matrix of the *whole base
    table* over the entry's preference set, tagged with the catalog
    version it reflects; a validity-preserving insert appends to it so
    subset lookups stay one small kernel call instead of re-columnizing
    the table.  It degrades to ``None`` whenever it cannot be kept
    aligned (a validity-preserving delete, un-columnizable rows) --
    correctness never depends on it.
    """

    shape: CacheableShape
    rows: tuple[tuple, ...]
    schema: Schema
    sky_values: "object | None" = None
    base_values: "object | None" = None
    base_version: "int | None" = None
    row_set: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        self.row_set = frozenset(self.rows)

    def value_columns(self, dims) -> "list[int] | None":
        """Matrix column selector for a subset preference set, or
        ``None`` if any requested dimension has no matrix column."""
        non_diff = [d for d in self.shape.dims
                    if d[1] is not DimensionKind.DIFF]
        position = {dim: j for j, dim in enumerate(non_diff)}
        selected = []
        for dim in dims:
            j = position.get(dim)
            if j is None:
                return None
            selected.append(j)
        return selected


def _dominated_mask(rows, by_rows, bdims) -> list[bool]:
    """Which of ``rows`` are dominated by some row of ``by_rows``?"""
    mask = vec_dominated_mask(rows, by_rows, bdims)
    if mask is not None:
        return mask
    return [any(dominates(winner, row, bdims) for winner in by_rows)
            for row in rows]


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

    def lookup(self, shape: CacheableShape, table_rows: list[tuple],
               version: "int | None" = None) -> "list[tuple] | None":
        """Rows answering ``shape``, or ``None`` on a miss.

        An exact entry (same preference set) is returned as stored; a
        superset entry answers by re-filtering ``table_rows`` (the
        *current* table) against the cached skyline under the query's
        own dimensions.  ``version`` (the current catalog version)
        enables the columnized fast path.
        """
        with self._lock:
            exact = self._entries.get(shape.key)
            if exact is not None:
                self._entries.move_to_end(shape.key)
                self.stats.exact_hits += 1
                return list(exact.rows)
            best: "_Entry | None" = None
            want = shape.dim_set
            for entry in self._entries.values():
                if entry.shape.table != shape.table:
                    continue
                if not want <= entry.shape.dim_set:
                    continue
                if best is None or len(entry.rows) < len(best.rows):
                    best = entry
            if best is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(best.shape.key)
            self.stats.refilter_hits += 1
            return self._refilter(best, shape, table_rows, version)

    def _refilter(self, entry: _Entry, shape: CacheableShape,
                  table_rows: list[tuple],
                  version: "int | None") -> list[tuple]:
        """The rows of ``table_rows`` not dominated under ``shape``.

        Fast path: slice the entry's columnized base table (rebuilt
        here if stale) and run the shared dominance kernel over the
        cached skyline -- most candidates are dominated by the first few
        skyline members, so they drop out before later steps.  Falls
        back to generic row-wise filtering whenever the matrix cannot
        serve.
        """
        selected = entry.value_columns(shape.dims) if _np is not None \
            else None
        if selected is not None and version is not None:
            if entry.base_values is None or \
                    entry.base_version != version or \
                    len(entry.base_values) != len(table_rows):
                entry.base_values = _oriented_values(
                    table_rows, entry.shape.bound_dimensions())
                entry.base_version = version \
                    if entry.base_values is not None else None
            if entry.base_values is not None and \
                    entry.sky_values is not None:
                dominated = _dominated_by(
                    _columns(entry.base_values[:, selected]),
                    _columns(entry.sky_values[:, selected]))
                return [table_rows[i]
                        for i in _np.flatnonzero(~dominated).tolist()]
        mask = _dominated_mask(table_rows, entry.rows,
                               shape.bound_dimensions())
        return [row for row, dominated in zip(table_rows, mask)
                if not dominated]

    # -- store ------------------------------------------------------------

    def store(self, shape: CacheableShape, rows: list[tuple],
              schema: Schema, table_rows: "list[tuple] | None" = None,
              version: "int | None" = None) -> bool:
        """Cache ``rows`` as the skyline for ``shape``.

        ``table_rows`` is the base table the result was computed from;
        the store is refused (returns ``False``) if any dimension value
        in it is NULL -- the containment rule is proved for complete
        data only, and with null-free dimensions the engine's complete
        and incomplete algorithms agree.

        ``version`` is the catalog version read *before* the result was
        computed.  The store is also refused when the invalidation
        listener has already applied a newer event: that event's delta
        was checked against the entries of its time and can never
        invalidate this one.  The test runs under the listener's lock,
        so a mutation either is seen here or sees the stored entry.
        """
        rows = [tuple(row) for row in rows]
        indices = shape.indices
        for row in rows:
            if any(row[i] is None for i in indices):
                return False
        bdims = shape.bound_dimensions()
        base_values = None
        if table_rows is not None:
            base_values = _oriented_values(table_rows, bdims)
            if base_values is None:
                # Could not prove null-freeness vectorized; scan.
                for row in table_rows:
                    if any(row[i] is None for i in indices):
                        return False
            else:
                # The matrix skips DIFF dimensions; check those by hand.
                diff_idx = [i for (_, kind), i in zip(shape.dims, indices)
                            if kind is DimensionKind.DIFF]
                for i in diff_idx:
                    if any(row[i] is None for row in table_rows):
                        return False
        entry = _Entry(shape, tuple(rows), schema,
                       sky_values=_oriented_values(rows, bdims),
                       base_values=base_values,
                       base_version=version
                       if base_values is not None else None)
        with self._lock:
            if version is not None and version < self._applied_version:
                return False
            self._entries[shape.key] = entry
            self._entries.move_to_end(shape.key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return True

    # -- invalidation -----------------------------------------------------

    def invalidate_table(self, table: str) -> int:
        with self._lock:
            return self._drop_table(table.lower())

    def _drop_table(self, table: str) -> int:
        stale = [key for key, entry in self._entries.items()
                 if entry.shape.table == table]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def on_catalog_event(self, event: CatalogEvent) -> None:
        """Catalog listener: incremental invalidation from DML deltas."""
        with self._lock:
            self._applied_version = max(self._applied_version,
                                        event.version)
            if event.kind in ("register", "drop"):
                self._drop_table(event.table)
                self._advance_others(event)
                return
            stale = []
            for key, entry in self._entries.items():
                if entry.shape.table != event.table:
                    continue
                if event.kind == "insert":
                    if not self._insert_keeps(entry, event.rows):
                        stale.append(key)
                    else:
                        self._append_base(entry, event.rows,
                                          event.version)
                elif event.kind == "delete":
                    if any(row in entry.row_set for row in event.rows):
                        stale.append(key)
                    else:
                        # The table shrank in place; the columnized
                        # base no longer aligns.  Rebuilt lazily.
                        entry.base_values = None
                        entry.base_version = None
            for key in stale:
                del self._entries[key]
            self.stats.invalidations += len(stale)
            self._advance_others(event)

    def _advance_others(self, event: CatalogEvent) -> None:
        """A mutation of one table leaves every *other* table's
        columnized base aligned -- advance their version tags so the
        global catalog version does not stale them."""
        for entry in self._entries.values():
            if entry.shape.table != event.table and \
                    entry.base_values is not None:
                entry.base_version = event.version

    @staticmethod
    def _append_base(entry: _Entry, rows: tuple, version: int) -> None:
        """Keep the columnized base table aligned across an insert of
        (already validity-checked) rows."""
        if entry.base_values is None or _np is None:
            return
        appended = _oriented_values(list(rows),
                                    entry.shape.bound_dimensions())
        if appended is None:
            entry.base_values = None
            entry.base_version = None
            return
        entry.base_values = _np.concatenate(
            [entry.base_values, appended])
        entry.base_version = version

    @staticmethod
    def _insert_keeps(entry: _Entry, rows: tuple) -> bool:
        """True iff every inserted row leaves the cached skyline valid:
        null-free on the cached dimensions and strictly dominated by
        some cached member (under the full preference set ``P``)."""
        bdims = entry.shape.bound_dimensions()
        for row in rows:
            if any(row[i] is None for i in entry.shape.indices):
                return False
            if not any(dominates(winner, row, bdims)
                       for winner in entry.rows):
                return False
        return True
