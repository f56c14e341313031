"""Pairwise skyline-merge kernels for the hierarchical global phase.

The two-phase algorithms (Section 4 of the paper) funnel every local
skyline into one single-threaded global merge -- the scalability
ceiling visible in the executor-scaling figures.  This module provides
the building blocks for a *tournament-tree* alternative: local
skylines are merged pairwise in parallel rounds until one partial
remains.

Correctness rests on one property: with **complete data** (no nulls,
no NaN in any MIN/MAX dimension) dominance is transitive, and then

* ``merge_skylines(A, B)`` -- keep the rows of each side not dominated
  by any row of the other -- equals the flat BNL skyline of ``A + B``
  exactly, *including row order*, whenever ``A`` and ``B`` are
  themselves dominance-free (local skylines are).  Filtering against
  the full opposite side (rather than its survivors) is exact: a row
  of ``B`` that dominates something cannot itself be dominated by a
  row of ``B``'s own side, because local skylines are dominance-free,
  and transitivity forwards any cross-side dominance.
* the merge is therefore associative and order-invariant as a *set*,
  and merging **adjacent** partials preserves the concatenation order
  bit-for-bit -- which is how the hierarchical tree reproduces the
  flat global phase's output exactly.

With incomplete data (nulls, or NaN encoding them) dominance is *not*
transitive and a merge tree can drop rows a flat pass keeps; every
entry point here detects that (:func:`merge_unsafe_reason`) and the
caller must fall back to the flat all-pairs global phase.

:class:`MergeSummary` adds the Vlachou-style grid metadata: a partial's
bounding box plus per-occupied-grid-cell boxes over the *actual* row
values (never the cell edges, so float rounding cannot make the test
unsound).  Two summaries can prove a pair of partials mutually
non-dominating (concatenate without a single comparison) or one side
entirely dominated (drop it outright).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ..engine.batch import ColumnBatch
from .bnl import bnl_skyline
from .dominance import (BoundDimension, DimensionKind, DominanceStats,
                        dominates, equal_on_dimensions)
from .vectorized import (ColumnBlock, _columns, _dominated_by, columnize,
                         concat_partitions)
from .vectorized import np  # None when NumPy is unavailable

#: Grid resolution (cells per dimension) of a :class:`MergeSummary`.
MERGE_GRID_CELLS = 4

#: Above this many cell-pair tests the summary checks fall back to the
#: overall bounding boxes (the shortcut must stay cheaper than the
#: comparisons it saves).
_MAX_CELL_PAIRS = 256

_NULL_REASON = ("null skyline-dimension values: dominance is not "
                "transitive over incomplete rows")
_NAN_REASON = "NaN skyline-dimension values: dominance is not transitive"


def _value_dims(dims: Sequence[BoundDimension]) -> list[BoundDimension]:
    return [d for d in dims if d.kind is not DimensionKind.DIFF]


def merge_unsafe_reason(partials: "Sequence[Sequence[Sequence] | ColumnBatch]",
                        dims: Sequence[BoundDimension]) -> str | None:
    """Why a hierarchical merge of these partials (row lists or column
    batches) would be unsound, or ``None`` when it is provably safe.

    Nulls or NaN in a MIN/MAX dimension make dominance non-transitive
    (such a dimension carries no information), so the mutual-filter
    merge may disagree with the flat window pass.  DIFF dimensions are
    exempt: a null/NaN DIFF key only isolates its row further.  Typed
    batch columns are scanned without materialising rows.
    """
    value_dims = _value_dims(dims)
    for part in partials:
        for d in value_dims:
            if isinstance(part, ColumnBatch):
                column = part.column(d.index)
                encoded = column.as_f8()
                if encoded is not None:
                    data, mask = encoded
                    if mask.any():
                        return _NULL_REASON
                    if np.isnan(data).any():
                        return _NAN_REASON
                    continue
                values = column.to_values()
            else:
                values = (row[d.index] for row in part)
            for v in values:
                if v is None:
                    return _NULL_REASON
                if isinstance(v, float) and v != v:
                    return _NAN_REASON
    return None


# ---------------------------------------------------------------------------
# Scalar pairwise merge
# ---------------------------------------------------------------------------


def merge_skylines(left: Sequence[Sequence], right: Sequence[Sequence],
                   dims: Sequence[BoundDimension],
                   distinct: bool = False,
                   stats: DominanceStats | None = None,
                   check_deadline: Callable[[], None] | None = None
                   ) -> list[Sequence]:
    """Merge two complete-data skylines: rows of each side not dominated
    by the other, left survivors first.

    Equals ``bnl_skyline(left + right)`` exactly (rows and order) when
    both inputs are dominance-free and dominance is transitive.  Under
    ``distinct``, a right row equal on every dimension to *any* left
    row is dropped -- the left twin provably survives, matching the
    flat window's keep-the-incumbent rule.
    """
    comparisons = 0
    tick = 0
    out: list[Sequence] = []
    for t in left:
        tick += 1
        if check_deadline is not None and tick % 256 == 0:
            check_deadline()
        dominated = False
        for s in right:
            comparisons += 1
            if dominates(s, t, dims):
                dominated = True
                break
        if not dominated:
            out.append(t)
    for s in right:
        tick += 1
        if check_deadline is not None and tick % 256 == 0:
            check_deadline()
        dominated = False
        for t in left:
            comparisons += 1
            if dominates(t, s, dims) or \
                    (distinct and equal_on_dimensions(t, s, dims)):
                dominated = True
                break
        if not dominated:
            out.append(s)
    if stats is not None:
        stats.comparisons += comparisons
        stats.note_window(len(left) + len(right))
    return out


# ---------------------------------------------------------------------------
# Vectorized pairwise merge
# ---------------------------------------------------------------------------


def _rows_equal_any(cand: "np.ndarray", by: "np.ndarray") -> "np.ndarray":
    """Mask over ``cand`` rows exactly equal, on every oriented value
    dimension, to some row of ``by`` (-0.0 normalised so bytes agree)."""
    by_keys = {row.tobytes() for row in np.ascontiguousarray(by + 0.0)}
    cand_norm = np.ascontiguousarray(cand + 0.0)
    return np.fromiter((row.tobytes() in by_keys for row in cand_norm),
                       dtype=bool, count=len(cand))


def _vec_unmergeable(block: ColumnBlock | None) -> bool:
    """True when the block cannot drive the index-set merge faithfully
    (scalar fallback keeps the documented semantics instead)."""
    return (block is None or bool(block.null_mask.any())
            or block.has_nan_data or block.diff_keys_have_null()
            or block.diff_keys_have_nan())


def _merge_index_arrays(values: "np.ndarray", left_idx: "np.ndarray",
                        right_idx: "np.ndarray", distinct: bool,
                        stats: DominanceStats | None) -> "np.ndarray":
    left, right = _columns(values[left_idx]), _columns(values[right_idx])
    l_dead = _dominated_by(left, right, stats)
    r_dead = _dominated_by(right, left, stats)
    if distinct and len(left_idx) and len(right_idx):
        r_dead |= _rows_equal_any(values[right_idx], values[left_idx])
    return np.concatenate([left_idx[~l_dead], right_idx[~r_dead]])


def _merge_index_sets(block: ColumnBlock, left_idx: "np.ndarray",
                      right_idx: "np.ndarray", distinct: bool,
                      stats: DominanceStats | None) -> "np.ndarray":
    """Surviving row indices of merging two index sets of ``block``,
    left survivors first (each side's internal order preserved)."""
    values = block.values
    if block.diff_keys is None:
        return _merge_index_arrays(values, left_idx, right_idx,
                                   distinct, stats)
    # DIFF dimensions: dominance (and distinct-equality) only applies
    # within a DIFF-key group, so filter the two sides group by group.
    dead = np.zeros(block.num_rows, dtype=bool)
    left_groups: dict[tuple, list[int]] = {}
    right_groups: dict[tuple, list[int]] = {}
    for i in left_idx:
        left_groups.setdefault(block.diff_keys[i], []).append(int(i))
    for i in right_idx:
        right_groups.setdefault(block.diff_keys[i], []).append(int(i))
    for key, l_rows in left_groups.items():
        r_rows = right_groups.get(key)
        if not r_rows:
            continue
        lg = np.asarray(l_rows)
        rg = np.asarray(r_rows)
        dead[lg] = dead[rg] = True
        dead[_merge_index_arrays(values, lg, rg, distinct, stats)] = False
    return np.concatenate([left_idx[~dead[left_idx]],
                           right_idx[~dead[right_idx]]])


def merge_task(segments: "Sequence[Sequence[Sequence] | ColumnBatch]",
               dims: Sequence[BoundDimension],
               distinct: bool = False, vectorized: bool = True,
               check_deadline: Callable[[], None] | None = None,
               stats: DominanceStats | None = None
               ) -> "tuple[list | ColumnBatch, int, int]":
    """Fold consecutive partial skylines -- all row lists or all column
    batches -- into one, returned in the same representation.

    The group's rows are columnized once (a batch group straight from
    its typed columns), index sets are folded left to right and the
    survivors materialised at the end; ``vectorized`` off or rows that
    cannot be columnized faithfully fold :func:`merge_skylines` over
    the row views instead.  Picklable and returning ``(result,
    rows_in, comparisons)`` like :func:`~repro.core.vectorized.
    skyline_task`, so the scheduler records comparable metrics.
    """
    segments = [s if isinstance(s, ColumnBatch) else list(s)
                for s in segments]
    stats = stats if stats is not None else DominanceStats()
    if not segments:
        return [], 0, 0
    merged = concat_partitions(segments)
    is_batch = isinstance(merged, ColumnBatch)
    block = columnize(merged, dims) if vectorized else None
    if _vec_unmergeable(block):
        acc = segments[0].to_rows() if is_batch else segments[0]
        for seg in segments[1:]:
            acc = merge_skylines(acc, seg.to_rows() if is_batch else seg,
                                 dims, distinct, stats=stats,
                                 check_deadline=check_deadline)
        if is_batch:
            acc = ColumnBatch.from_rows(acc, merged.num_columns)
        return acc, len(merged), stats.comparisons
    acc = np.arange(len(segments[0]))
    offset = len(acc)
    for seg in segments[1:]:
        if check_deadline is not None:
            check_deadline()
        seg_idx = np.arange(offset, offset + len(seg))
        offset += len(seg)
        acc = _merge_index_sets(block, acc, seg_idx, distinct, stats)
    stats.note_window(len(merged))
    acc = acc.tolist()
    result = merged.take(acc) if is_batch else [merged[i] for i in acc]
    return result, len(merged), stats.comparisons


def vec_merge_skylines(left: Sequence[Sequence], right: Sequence[Sequence],
                       dims: Sequence[BoundDimension],
                       distinct: bool = False,
                       stats: DominanceStats | None = None,
                       check_deadline: Callable[[], None] | None = None
                       ) -> list[Sequence]:
    """Vectorized :func:`merge_skylines`; defers to the scalar kernel
    whenever the rows cannot be columnized faithfully."""
    return merge_task([left, right], dims, distinct, True, check_deadline,
                      stats)[0]


# ---------------------------------------------------------------------------
# Grid-cell dominance summaries (Vlachou-style metadata)
# ---------------------------------------------------------------------------


@dataclass
class MergeSummary:
    """Dominance metadata of one partial skyline, in *oriented* value
    space (smaller is better on every axis; MAX dimensions negated).

    ``cells`` maps a grid coordinate to the bounding box of the rows
    that fell into that cell -- boxes over actual row values, never
    cell edges, so the dominance tests below stay sound under float
    rounding.
    """

    lo: "np.ndarray"
    hi: "np.ndarray"
    cells: dict[tuple, tuple["np.ndarray", "np.ndarray"]]


def build_summaries(blocks: Sequence[ColumnBlock | None],
                    cells_per_dim: int = MERGE_GRID_CELLS
                    ) -> list[MergeSummary] | None:
    """Summaries for a round's partials on one shared grid, or ``None``
    when any partial cannot be summarised soundly (no NumPy, DIFF
    dimensions, nulls, or non-finite values) -- all-or-nothing because
    the grid spans the round's global bounding box."""
    if np is None or not blocks:
        return None
    for b in blocks:
        if b is None or b.diff_keys is not None or not b.num_rows \
                or b.null_mask.any() or not np.isfinite(b.values).all():
            return None
    lo = np.min([b.values.min(axis=0) for b in blocks], axis=0)
    hi = np.max([b.values.max(axis=0) for b in blocks], axis=0)
    width = (hi - lo) / cells_per_dim
    width[width <= 0] = 1.0
    out = []
    for b in blocks:
        coords = np.clip(((b.values - lo) / width).astype(np.int64),
                         0, cells_per_dim - 1)
        uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)  # shape varies across NumPy versions
        cells = {}
        for ci, coord in enumerate(uniq):
            member = b.values[inverse == ci]
            cells[tuple(int(c) for c in coord)] = \
                (member.min(axis=0), member.max(axis=0))
        out.append(MergeSummary(b.values.min(axis=0),
                                b.values.max(axis=0), cells))
    return out


def _cannot_dominate(a: MergeSummary, b: MergeSummary) -> bool:
    """True when provably *no* row of ``a`` dominates any row of ``b``:
    every (cell-of-a, cell-of-b) pair has a dimension on which all of
    ``a``'s rows are strictly worse."""
    if bool((a.lo > b.hi).any()):
        return True
    if len(a.cells) * len(b.cells) > _MAX_CELL_PAIRS:
        return False
    for alo, _ahi in a.cells.values():
        for _blo, bhi in b.cells.values():
            if not (alo > bhi).any():
                return False
    return True


def summary_disjoint(a: MergeSummary, b: MergeSummary) -> bool:
    """True when neither partial can dominate a row of the other, so
    their concatenation is itself dominance-free (merge = concat)."""
    return _cannot_dominate(a, b) and _cannot_dominate(b, a)


def summary_dominates(a: MergeSummary, b: MergeSummary) -> bool:
    """True when every row of ``b`` is provably *strictly* dominated by
    some row of ``a`` (every cell of ``b`` has a cell of ``a`` whose
    box upper corner beats its lower corner on all dimensions), so the
    whole partial ``b`` can be dropped without a comparison."""
    if bool((a.hi < b.lo).all()):
        return True
    if len(a.cells) * len(b.cells) > _MAX_CELL_PAIRS:
        return False
    a_boxes = list(a.cells.values())
    return all(any(bool((ahi < blo).all()) for _alo, ahi in a_boxes)
               for blo, _bhi in b.cells.values())


def combine_summaries(a: MergeSummary, b: MergeSummary) -> MergeSummary:
    """Summary of the concatenation of two partials summarised on the
    same round grid (cell coordinates are compatible by construction)."""
    cells = dict(a.cells)
    for coord, (blo, bhi) in b.cells.items():
        if coord in cells:
            alo, ahi = cells[coord]
            cells[coord] = (np.minimum(alo, blo), np.maximum(ahi, bhi))
        else:
            cells[coord] = (blo, bhi)
    return MergeSummary(np.minimum(a.lo, b.lo),
                        np.maximum(a.hi, b.hi), cells)


def reduce_group(group: Sequence, summaries: Sequence[MergeSummary] | None,
                 counters: dict | None = None) -> list:
    """Apply the summary shortcuts inside one fan-in group *before*
    scheduling a merge task.

    Drops members whose every row is provably dominated by another
    member, then concatenates **adjacent** provably-disjoint members
    (adjacency preserves the flat concatenation order bit-for-bit).
    Returns the segments still needing pairwise merging; a single
    returned segment means the group needs no task at all.  ``group``
    items are row lists or column batches.
    """
    if summaries is None or len(group) < 2:
        return list(group)
    alive = list(range(len(group)))
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for i in alive:
            for j in alive:
                if i != j and summary_dominates(summaries[i], summaries[j]):
                    alive.remove(j)
                    if counters is not None:
                        counters["short_circuits"] += 1
                    changed = True
                    break
            if changed:
                break
    segments: list[list[int]] = [[alive[0]]]
    seg_sums = [summaries[alive[0]]]
    for idx in alive[1:]:
        if summary_disjoint(seg_sums[-1], summaries[idx]):
            segments[-1].append(idx)
            seg_sums[-1] = combine_summaries(seg_sums[-1], summaries[idx])
            if counters is not None:
                counters["concat_merges"] += 1
        else:
            segments.append([idx])
            seg_sums.append(summaries[idx])
    return [group[seg[0]] if len(seg) == 1
            else concat_partitions([group[i] for i in seg])
            for seg in segments]


# ---------------------------------------------------------------------------
# Tree shape helpers + in-process reference driver
# ---------------------------------------------------------------------------


def merge_round_sizes(num_partials: int, fan_in: int) -> list[int]:
    """Partial counts per round, first to last: ``[10, 5, 3, 2, 1]``
    for ten partials at fan-in 2."""
    fan_in = max(2, int(fan_in))
    sizes = [max(1, int(num_partials))]
    while sizes[-1] > 1:
        sizes.append(math.ceil(sizes[-1] / fan_in))
    return sizes


def tree_shape(num_partials: int, fan_in: int) -> str:
    """Human-readable tree, e.g. ``'10 -> 5 -> 3 -> 2 -> 1'``."""
    return " -> ".join(str(s) for s in merge_round_sizes(num_partials,
                                                         fan_in))


def make_merge_counters() -> dict:
    """Fresh counter dict shared by the reference driver and the
    physical operators (mirrored into ``ExecutionContext.global_merge``)."""
    return {"rounds": 0, "round_tasks": [], "concat_merges": 0,
            "short_circuits": 0, "fallback": None}


def hierarchical_merge(partials: Sequence[Sequence[Sequence]],
                       dims: Sequence[BoundDimension],
                       distinct: bool = False,
                       fan_in: int = 2,
                       vectorized: bool = False,
                       use_summaries: bool = True,
                       cells_per_dim: int = MERGE_GRID_CELLS,
                       counters: dict | None = None,
                       stats: DominanceStats | None = None,
                       check_deadline: Callable[[], None] | None = None
                       ) -> list[Sequence]:
    """In-process reference driver for the tournament-tree merge.

    Always returns exactly ``bnl_skyline(concat(partials))`` -- same
    rows, same order -- running the flat merge outright when dominance
    is not provably transitive (:func:`merge_unsafe_reason`).  The
    engine's staged implementation (``plan/physical.py``) mirrors this
    loop with one scheduled task per merged group; the test suite
    exercises this driver directly for the property/differential legs.
    """
    counters = counters if counters is not None else make_merge_counters()
    partials = [list(p) for p in partials if len(p)]
    if not partials:
        return []
    reason = merge_unsafe_reason(partials, dims)
    if reason is not None:
        counters["fallback"] = reason
        return bnl_skyline([r for p in partials for r in p], dims,
                           distinct, stats=stats,
                           check_deadline=check_deadline)
    fan_in = max(2, int(fan_in))
    while len(partials) > 1:
        counters["rounds"] += 1
        summaries = None
        if use_summaries:
            summaries = build_summaries(
                [columnize(p, dims) for p in partials], cells_per_dim)
        next_partials = []
        tasks = 0
        for g in range(0, len(partials), fan_in):
            group = partials[g:g + fan_in]
            gsum = summaries[g:g + fan_in] if summaries is not None else None
            segments = reduce_group(group, gsum, counters)
            if len(segments) == 1:
                merged = segments[0]
            else:
                merged, peak, comps = merge_task(
                    segments, dims, distinct, vectorized,
                    check_deadline=check_deadline)
                tasks += 1
                if stats is not None:
                    stats.comparisons += comps
                    stats.note_window(peak)
            next_partials.append(merged)
        counters["round_tasks"].append(tasks)
        partials = next_partials
    return partials[0]
