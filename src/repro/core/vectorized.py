"""Vectorized columnar skyline kernels (NumPy).

The scalar kernels (:mod:`repro.core.bnl`, :mod:`repro.core.sfs`,
:mod:`repro.core.incomplete`) compare one pair of tuples at a time in
Python -- the hottest loop of the whole engine.  This module re-expresses
the same algorithms over *columns*: each of a partition's skyline
dimensions is cast once into one contiguous ``float64`` vector (MAX
dimensions negated so smaller is uniformly better, SQL nulls encoded as
NaN plus an explicit null mask for the dimensions that hold one) and
dominance is evaluated with NumPy broadcasting.

There is **one window kernel**, :func:`_block_skyline_indices` -- local
BNL, the null-bitmap local phase, the global phase and SFS all select
their survivors with it:

* *Key.*  Every row gets the rank-volume key ``-sum_j log(1 - F_j)``,
  ``F_j`` the fraction of rows strictly better in dimension ``j``: the
  log of the share of rank space the row could dominate.  Ranks make it
  scale-free (a heavy-tailed column cannot push useless outliers to the
  front), finite on ``+-inf`` and -- equal values share a rank, the
  terms add left to right -- weakly monotone under dominance even after
  rounding: a dominator never sorts after its victim unless their keys
  are equal.  Uniformly-null columns take no part.
* *Filter before sort.*  A group of 4096 rows or more is first run,
  unsorted, against the 32 best-keyed skyline rows of a strided
  512-row sample of itself (the elimination filter of LESS); only the
  survivors -- a tenth of a store_sales partition -- are ranked and
  sorted.  Filter points are rows of the group, so every row they
  remove has a dominator among the rows that stay and the skyline of
  the survivors is the skyline of the group.
* *Peel.*  One stable argsort by key, then rounds: take a head block
  (64 rows, doubling to 1024), reduce it to its own skyline, filter the
  *whole remainder* against it and compact.  The best-placed rows go
  first, so most of the input is gone before a window exists.
* *Tie pass.*  Rows of equal key can dominate each other across a
  block boundary; every such false survivor has a surviving equal-key
  dominator (true skyline rows always survive), so one pairwise pass per
  equal-key run of survivors makes the result exact for any weakly
  monotone key.
* *Column layout.*  There is one layout of the skyline input:
  ``(dims, rows)`` C-contiguous ``ColumnBlock.cols``, built by
  :func:`columnize` / :func:`columnize_batch` with one write per
  dimension and read by every kernel without a transpose.  The
  dominance primitives (:func:`_dominated_by`,
  :func:`_pairwise_dominated`) compare at most :data:`PAIR_BUDGET`
  pairs per broadcast, under a ufunc buffer bounded to
  :data:`UFUNC_BUFFER` elements; the flagged kernel and the serving
  cache's re-filter share them.  No kernel writes into a batch's
  arrays: a table's resident columns are shared by every query.

Semantics are pinned to the scalar reference implementation:

* ``r`` dominates ``s`` iff ``all(~(r > s))`` and ``any(r < s)`` over the
  oriented value dimensions.  Written this way the kernels inherit the
  scalar NaN/±inf behaviour for free: ``NaN > x`` and ``NaN < x`` are
  both false, so a NaN dimension neither blocks dominance nor
  contributes strictness -- exactly what
  :func:`repro.core.dominance.dominates` does (see the "NaN and
  infinities" note there).  ``±inf`` orders normally and vectorizes
  fully.  Because NaN *data* additionally makes dominance
  non-transitive (window results become order-dependent), the windowed
  BNL/SFS kernels route NaN-containing partitions through the scalar
  implementation so both stay bit-identical; the null-bitmap local
  phase groups rows by the dimensions they are null *or NaN* in, inside
  which dominance is transitive again, and the all-pairs flagged
  kernel needs no transitivity: both vectorize NaN data directly.
* SQL ``NULL`` maps to NaN in the columns, which makes the *same* formula
  implement the null-restricted comparison of
  :func:`~repro.core.dominance.dominates_incomplete`: a dimension where
  either side is null is skipped.  The separate null masks keep
  ``NULL`` distinguishable from genuine NaN data for DISTINCT equality
  (``NULL = NULL`` holds there, ``NaN = NaN`` does not).
* DIFF dimensions never vectorize as numbers; rows are grouped by their
  DIFF values and the numeric kernel runs per group (dominance requires
  equal DIFF values, so groups are independent).

There is also **one partition task**, :func:`skyline_task`: the
guard -> scalar fallback -> index selection -> DISTINCT sequence exists
once, parameterised by a mode (:data:`SKYLINE_MODES`) and accepting a
row list or a :class:`~repro.engine.batch.ColumnBatch`.  It
transparently **falls back to the scalar implementation** when a
dimension holds non-numeric values or when integers exceed the
exactly-representable ``float64`` range (|v| > 2**53) -- the scalar
kernels therefore remain the reference semantics, and the differential
suite (``tests/integration/test_differential.py``) asserts agreement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# The engine's batch module owns the single columnization point (the
# pinned float64 + NaN + null-mask encoding).
from ..engine.batch import ColumnBatch, encode_numeric_column
from ..errors import ExecutionError
from .bnl import bnl_skyline
from .dominance import (BoundDimension, DimensionKind, DominanceStats,
                        null_bitmap)
from .incomplete import bitmap_local_skyline, flagged_global_skyline
from .sfs import sfs_skyline

#: ``by`` rows per step of the flagged all-pairs kernel (one deadline
#: check per step).
BLOCK_ROWS = 256

#: Head-block sizes of the sort-first peel: the first blocks hold the
#: rows that dominate most and must be cheap to reduce; later ones
#: amortize the NumPy call overhead over a remainder that has shrunk.
HEAD_ROWS_MIN = 64
HEAD_ROWS_MAX = 1024

#: Pairs per broadcast comparison and candidate rows per pass: together
#: they bound the dominance primitives' temporaries (three boolean pair
#: masks, one compacted candidate copy) to about 1 MB at six dimensions.
PAIR_BUDGET = 1 << 16
CANDIDATE_SPAN = 1 << 13

#: NumPy's ufunc buffer (elements) while :func:`_dominated_by` runs.
#: At the default 8192 a broadcast comparison whose rows are shorter
#: than the buffer is copied through it: 65 536 pairs cost 9 us as
#: 8 x 8192 but 54 us as 64 x 1024 (NumPy 2.4.6), the shape of every
#: pass once candidates have dropped out -- and 10 us at 512.
UFUNC_BUFFER = 512

#: Filter before sort: a group of at least ``PREFILTER_MIN_ROWS`` rows
#: is first filtered against the ``FILTER_POINTS`` best-keyed skyline
#: rows of every ``n // SAMPLE_ROWS``-th of its own rows (512-575 of
#: them; strided, not random, so counters repeat per seed).  On a
#: smaller group the peel's own first round does that job as fast, and
#: more filter points cost more tests per row than they remove.
PREFILTER_MIN_ROWS = 4096
SAMPLE_ROWS = 512
FILTER_POINTS = 32


# ---------------------------------------------------------------------------
# Columnization
# ---------------------------------------------------------------------------


@dataclass
class ColumnBlock:
    """A partition's skyline dimensions in columnar form.

    ``cols`` is ``(k, n)`` C-contiguous float64, one vector per MIN/MAX
    dimension -- the layout the dominance primitives read -- oriented
    so smaller is better and with nulls encoded as NaN; ``nulls`` maps
    the position of each such dimension that holds a null to its null
    mask (NaN *data* stays unmasked); ``diff_keys`` holds one tuple of
    raw DIFF-dimension values per row (``None`` when the query has no
    DIFF dimensions).
    """

    cols: "np.ndarray"
    nulls: "dict[int, np.ndarray]"
    diff_keys: list[tuple] | None

    @property
    def num_rows(self) -> int:
        return self.cols.shape[1]

    @property
    def has_nan_data(self) -> bool:
        """True when a MIN/MAX dimension holds genuine NaN *data*.

        NaN makes dominance non-transitive (a NaN dimension carries no
        information, like a null), so window-based kernels become
        order-dependent -- the vectorized BNL/SFS paths defer to the
        scalar kernels to stay bit-identical with their documented
        window semantics.  The flag-based all-pairs kernel needs no
        transitivity and keeps vectorizing such data.
        """
        nan = np.isnan(self.cols)
        for j, mask in self.nulls.items():
            nan[j] &= ~mask
        return bool(nan.any())

    def groups(self, by_bitmap: bool = False) -> "list[np.ndarray] | None":
        """Ascending row-index arrays, one per DIFF-value group -- with
        ``by_bitmap`` one per (bitmap of the MIN/MAX dimensions a row is
        null or NaN in x DIFF value) group -- in first-seen order;
        ``None`` when every row is in one group."""
        keys = self.diff_keys
        unordered = np.isnan(self.cols) if by_bitmap else None
        if unordered is not None and unordered.any():
            bitmaps = (1 << np.arange(len(unordered), dtype=np.int64)) @ \
                unordered.astype(np.int64)
            if keys is None:
                return _equal_runs(bitmaps)
            keys = list(zip(bitmaps.tolist(), keys))
        if keys is None:
            return None
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return [np.asarray(idx) for idx in groups.values()]

    def diff_keys_have_null(self) -> bool:
        return self.diff_keys is not None and any(
            v is None for key in self.diff_keys for v in key)

    def diff_keys_have_nan(self) -> bool:
        """Hash-based DIFF grouping cannot express ``NaN != NaN``."""
        return self.diff_keys is not None and any(
            isinstance(v, float) and v != v
            for key in self.diff_keys for v in key)


def _equal_runs(keys: "np.ndarray") -> list["np.ndarray"]:
    """Ascending index arrays of the rows of equal (non-empty) ``keys``,
    in first-seen order: one stable argsort."""
    order = np.argsort(keys, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    runs.sort(key=lambda run: run[0])
    return runs


def _oriented_block(n: int, dims: Sequence[BoundDimension],
                    encode: Callable[[int], "tuple | None"],
                    diff_keys: Callable[[list], list[tuple]]
                    ) -> ColumnBlock | None:
    """Fill a block's ``cols`` with one contiguous write per dimension.

    ``encode(index)`` gives a column's ``(data, null mask)`` (see
    :meth:`repro.engine.batch.Column.as_f8`) or ``None`` when it cannot
    be encoded faithfully.  ``data`` is cast straight into its row of
    ``cols`` -- negated for MAX -- and never written itself.
    """
    value_dims = [d for d in dims if d.kind is not DimensionKind.DIFF]
    diff_dims = [d for d in dims if d.kind is DimensionKind.DIFF]
    cols = np.empty((len(value_dims), n))
    nulls = {}
    for j, dim in enumerate(value_dims):
        encoded = encode(dim.index)
        if encoded is None:
            return None
        data, mask = encoded
        if dim.kind is DimensionKind.MAX:
            np.negative(data, out=cols[j], dtype=np.float64)
        else:
            cols[j] = data
        if mask is not None and mask.any():
            cols[j][mask] = np.nan
            nulls[j] = mask
    return ColumnBlock(cols, nulls, diff_keys(diff_dims) if diff_dims
                       else None)


def columnize(rows: "Sequence[Sequence] | ColumnBatch",
              dims: Sequence[BoundDimension]) -> ColumnBlock | None:
    """Convert rows to a :class:`ColumnBlock`, or ``None`` when the data
    cannot be vectorized faithfully (non-numeric values, ints beyond the
    float64-exact range).

    The per-column encoding is the engine-wide single columnization
    point, :func:`repro.engine.batch.encode_numeric_column`; this
    function adds the skyline specifics (MAX negation so smaller is
    uniformly better, DIFF keys kept as raw tuples).  A
    :class:`ColumnBatch` goes through :func:`columnize_batch`.
    """
    if isinstance(rows, ColumnBatch):
        return columnize_batch(rows, dims)
    rows = rows if isinstance(rows, list) else list(rows)
    return _oriented_block(
        len(rows), dims,
        lambda index: encode_numeric_column([row[index] for row in rows]),
        lambda diff_dims: [tuple(row[d.index] for d in diff_dims)
                           for row in rows])


def columnize_batch(batch: ColumnBatch,
                    dims: Sequence[BoundDimension]) -> ColumnBlock | None:
    """Build a :class:`ColumnBlock` straight from an engine
    :class:`~repro.engine.batch.ColumnBatch` -- no per-row work.

    The batch data plane already stores numeric columns as typed
    arrays, so each dimension is one cast of such an array into its
    row of ``cols``; the batch's arrays are only read (a table's
    resident columns are shared by every query).  Columns the batch
    kept as Python lists go through the shared row encoder; a column
    that cannot encode faithfully returns ``None`` (scalar fallback),
    exactly like :func:`columnize`.
    """
    return _oriented_block(
        batch.num_rows, dims, lambda index: batch.column(index).as_f8(),
        lambda diff_dims: list(zip(*(batch.column(d.index).to_values()
                                     for d in diff_dims))))


# ---------------------------------------------------------------------------
# Block dominance primitives
# ---------------------------------------------------------------------------


def _pairwise_dominated(by: "np.ndarray", cand: "np.ndarray"
                        ) -> "np.ndarray":
    """``(by rows, cand rows)`` mask: ``by[:, i]`` dominates
    ``cand[:, j]``; both arguments are ``(dims, rows)`` arrays.

    One 2-D comparison per dimension over contiguous vectors, written
    into reused buffers: a 3-D broadcast with a reduction over the tiny
    dimension axis is the slow path in NumPy, and so are strided reads.
    """
    shape = (by.shape[1], cand.shape[1])
    worse = np.zeros(shape, dtype=bool)    # by worse anywhere
    better = np.zeros(shape, dtype=bool)   # by strictly better anywhere
    scratch = np.empty(shape, dtype=bool)
    for b, c in zip(by, cand):
        b = b[:, None]
        worse |= np.greater(b, c, out=scratch)
        better |= np.less(b, c, out=scratch)
    np.logical_not(worse, out=worse)
    worse &= better
    return worse


def _dominated_by(cand: "np.ndarray", by: "np.ndarray",
                  stats: DominanceStats | None = None) -> "np.ndarray":
    """Mask over ``cand`` rows dominated by *some* row of ``by`` (both
    ``(dims, rows)`` arrays).

    Every broadcast covers at most :data:`PAIR_BUDGET` pairs, and
    already-dominated candidates drop out of later steps -- so the
    ``by`` step grows as the candidates thin out.  ``by`` stays whole:
    passing the same array twice gives the flag semantics (dominated
    rows keep eliminating).
    """
    out = np.zeros(cand.shape[1], dtype=bool)
    previous = np.setbufsize(UFUNC_BUFFER)  # context-local in NumPy
    try:
        for lo in range(0, cand.shape[1], CANDIDATE_SPAN):
            live = cand[:, lo:lo + CANDIDATE_SPAN]
            index = np.arange(lo, lo + live.shape[1])
            start = 0
            while start < by.shape[1] and len(index):
                chunk = by[:, start:start + PAIR_BUDGET // len(index)]
                start += chunk.shape[1]
                if stats is not None:
                    stats.comparisons += chunk.shape[1] * len(index)
                dead = _pairwise_dominated(chunk, live).any(axis=0)
                if dead.any():
                    out[index[dead]] = True
                    # compress, unlike live[:, ~dead], stays C-contiguous.
                    live = np.compress(~dead, live, axis=1)
                    index = index[~dead]
    finally:
        np.setbufsize(previous)
    return out


def _volume_keys(cols: "Sequence[np.ndarray]") -> "np.ndarray":
    """Rank-volume sort keys from one value vector per dimension
    (smaller first; the *Key* of the module docstring).

    Equal values share the rank of their first occurrence in sorted
    order, so ``r <= s`` in a dimension implies ``term(r) <= term(s)``;
    floating-point addition is monotone in each operand, and
    ``1 - F >= 1/n`` keeps every term finite.
    """
    n = len(cols[0])
    terms = -np.log1p(np.arange(n) / -n)
    keys = np.zeros(n)
    for col in cols:
        order = np.argsort(col)
        ordered = col[order]
        rank = np.arange(n)
        rank[1:][ordered[1:] == ordered[:-1]] = 0
        keys[order] += terms[np.maximum.accumulate(rank, out=rank)]
    return keys


def _equal_key_dominated(keys: "np.ndarray", cols: "np.ndarray",
                         stats: DominanceStats | None) -> "np.ndarray":
    """Mask over key-ordered peel survivors dominated by a survivor of
    *equal* key (the *Tie pass* of the module docstring).

    Rounding ties a dominator with its victim at 1e16 magnitudes under
    a raw-sum key, under the rank key only beyond ~1e14 rows -- but
    weak monotonicity is all floating point guarantees.
    """
    dead = np.zeros(len(keys), dtype=bool)
    edges = np.flatnonzero(np.concatenate(
        ([True], keys[1:] != keys[:-1], [True])))
    runs = np.flatnonzero(np.diff(edges) > 1)
    for lo, hi in zip(edges[runs].tolist(), edges[runs + 1].tolist()):
        run = cols[:, lo:hi]
        dead[lo:hi] = _dominated_by(run, run, stats)
    return dead


def _peel(cols: "np.ndarray", stats: DominanceStats | None,
          check_deadline: Callable[[], None] | None) -> "np.ndarray":
    """Skyline positions of a ``(dims, rows)`` array, best key first
    (*Key*, *Peel* and *Tie pass* of the module docstring); compacts
    only its own sorted copy."""
    keys = _volume_keys(cols)
    order = np.argsort(keys, kind="stable")
    cols = np.take(cols, order, axis=1)
    kept_rows, kept_cols = [], []
    head = HEAD_ROWS_MIN
    while len(order):
        if check_deadline is not None:
            check_deadline()
        block = cols[:, :head]
        skyline = ~_dominated_by(block, block, stats)
        block = np.compress(skyline, block, axis=1)
        kept_rows.append(order[:head][skyline])
        kept_cols.append(block)
        alive = head + np.flatnonzero(
            ~_dominated_by(cols[:, head:], block, stats))
        for col in cols:  # compact our own copy in place: no second one
            col[:len(alive)] = col[alive]
        cols = cols[:, :len(alive)]
        order = order[alive]
        head = min(head * 2, HEAD_ROWS_MAX)
    kept = np.concatenate(kept_rows)
    return kept[~_equal_key_dominated(
        keys[kept], np.concatenate(kept_cols, axis=1), stats)]


def _block_skyline_indices(cols: "np.ndarray",
                           stats: DominanceStats | None = None,
                           check_deadline: Callable[[], None] | None = None
                           ) -> "np.ndarray":
    """Indices (ascending) of the skyline rows of ``(dims, rows)``
    ``cols``.

    *Filter before sort*, then the sort-first peel of the module
    docstring.  Requires a transitive dominance relation over the rows
    and NaN only as a uniformly-null column (both guaranteed per
    DIFF/null-bitmap group by the callers' guards).
    """
    rows = np.arange(cols.shape[1])
    live = [j for j, col in enumerate(cols)
            if len(col) and not np.isnan(col[0])]
    if not live:  # no rows, or an all-null group: nothing dominates
        return rows
    if len(live) < len(cols):
        cols = cols[live]
    if len(rows) >= PREFILTER_MIN_ROWS:
        # Filter points are rows of this very group, so whatever they
        # remove has a dominator among the rows that stay.
        stride = len(rows) // SAMPLE_ROWS
        best = stride * _peel(cols[:, ::stride], stats, check_deadline)
        if check_deadline is not None:
            check_deadline()
        rows = np.flatnonzero(~_dominated_by(
            cols, np.take(cols, best[:FILTER_POINTS], axis=1), stats))
        cols = np.take(cols, rows, axis=1)
    kept = rows[_peel(cols, stats, check_deadline)]
    if stats is not None:
        stats.note_window(len(kept))
    return np.sort(kept)


def _flagged_indices(cols: "np.ndarray",
                     stats: DominanceStats | None = None,
                     check_deadline: Callable[[], None] | None = None
                     ) -> "np.ndarray":
    """Indices surviving the flag-based all-pairs test (Section 5.7).

    Unlike the window kernel, dominated rows are only *flagged* -- every
    row keeps eliminating others until all pairs were examined, which is
    what makes the result correct under cyclic (incomplete) dominance.
    Flagged rows stay on the ``by`` side but are never re-*tested*.
    """
    live = cols
    alive = np.arange(cols.shape[1])
    for start in range(0, cols.shape[1], BLOCK_ROWS):
        if check_deadline is not None:
            check_deadline()
        if not len(alive):
            break
        keep = ~_dominated_by(live, cols[:, start:start + BLOCK_ROWS],
                              stats)
        live = np.compress(keep, live, axis=1)
        alive = alive[keep]
    if stats is not None:
        stats.note_window(cols.shape[1])
    return alive


def _grouped_indices(select: Callable, block: ColumnBlock,
                     stats: DominanceStats | None,
                     check_deadline: Callable[[], None] | None,
                     by_bitmap: bool = False) -> list[int]:
    """Per-group index selection (:meth:`ColumnBlock.groups`), merged
    in ascending order."""
    groups = block.groups(by_bitmap)
    if groups is None:  # one group: the columns as they are, no copy
        return select(block.cols, stats, check_deadline).tolist()
    indices: list[int] = []
    for group in groups:
        chosen = select(np.take(block.cols, group, axis=1), stats,
                        check_deadline)
        indices.extend(group[chosen].tolist())
    indices.sort()
    return indices


def _monotone_scores(cols: "np.ndarray") -> "np.ndarray":
    """Per-row monotone scores, summed strictly left to right.

    Matches :func:`repro.core.sfs.monotone_score` bit for bit (the
    columns are already oriented), so scalar and vectorized SFS sort --
    and hence pick DISTINCT representatives -- identically.
    """
    if not len(cols):
        return np.zeros(cols.shape[1])
    with np.errstate(invalid="ignore"):  # +inf + -inf -> NaN is expected
        scores = cols[0].copy()
        for col in cols[1:]:
            scores += col
    return scores


def _sfs_indices(block: ColumnBlock, stats: DominanceStats | None,
                 check_deadline: Callable[[], None] | None) -> list[int]:
    """Skyline indices of a NaN/null-free block in scalar SFS's output
    order: ascending monotone score, ties in input order (the order
    DISTINCT dedup must see to pick the scalar representative).

    Pinned behaviour shared with the scalar kernel: *any* non-finite
    score (NaN, or absorbing +-inf tying a dominator with its victim)
    makes the score order meaningless, and the result is BNL's -- same
    rows, input order.  The survivors come from the one window kernel
    either way; it presorts by a key of its own.
    """
    indices = _grouped_indices(_block_skyline_indices, block, stats,
                               check_deadline)
    scores = _monotone_scores(block.cols)
    if not np.isfinite(scores).all():
        return indices
    chosen = np.asarray(indices, dtype=np.intp)
    return chosen[np.argsort(scores[chosen], kind="stable")].tolist()


# ---------------------------------------------------------------------------
# DISTINCT handling
# ---------------------------------------------------------------------------


def _distinct_positions(rows: Sequence[Sequence],
                        dims: Sequence[BoundDimension]) -> list[int]:
    """Position of the first row per equal-skyline-dimension-values
    class.

    Equality follows :func:`~repro.core.dominance.equal_on_dimensions`:
    raw ``==`` per dimension, so ``NULL = NULL`` holds while NaN is
    never equal to anything (including itself) -- NaN values get a
    per-occurrence sentinel so hashing cannot merge them.
    """
    seen: set = set()
    kept: list[int] = []
    for i, row in enumerate(rows):
        key = tuple(
            object() if isinstance(v, float) and v != v else v
            for v in (row[d.index] for d in dims))
        if key in seen:
            continue
        seen.add(key)
        kept.append(i)
    return kept


# ---------------------------------------------------------------------------
# The partition task (picklable, engine-facing)
# ---------------------------------------------------------------------------


def _has_nan(block: ColumnBlock) -> bool:
    """Guard of the complete-data window modes.

    NaN data: dominance loses transitivity, so the window result is
    order-dependent -- defer to the scalar window semantics (scalar SFS
    detects the NaN scores and routes through scalar BNL, the pinned
    behaviour both implementations share).  Nulls never get here:
    :func:`_reject_nulls` refuses them first (encoded as NaN they would
    silently switch to null-skipping semantics).
    """
    return block.has_nan_data or block.diff_keys_have_nan()


def _ungroupable_diff_keys(block: ColumnBlock) -> bool:
    """Guard of the flagged all-pairs mode: nulls in DIFF dimensions
    make the per-DIFF-group decomposition unsound (a null DIFF value
    compares equal-restricted against *every* group).  NaN *data* is
    fine -- flagging needs no transitivity."""
    return block.diff_keys_have_null() or block.diff_keys_have_nan()


def _reject_nulls(partition: "list | ColumnBatch",
                  block: ColumnBlock | None,
                  dims: Sequence[BoundDimension]) -> None:
    """Raise :class:`~repro.errors.ExecutionError` naming the first
    MIN/MAX dimension that holds a NULL: the complete-data modes compare
    every value, so ``SKYLINE OF COMPLETE`` (or a forced complete
    algorithm) asserts there are none.  A NULL DIFF value is legal (it
    is one more group).  Reads the block's null masks where there is a
    block, the partition otherwise."""
    value_dims = [(position, d) for position, d in enumerate(dims, 1)
                  if d.kind is not DimensionKind.DIFF]
    if block is not None and not block.nulls:  # the common case
        return
    for j, (position, dim) in enumerate(value_dims):
        if block is not None:
            has_null = j in block.nulls
        elif isinstance(partition, ColumnBatch):
            has_null = np.any(partition.column(dim.index).null_flags())
        else:
            has_null = any(row[dim.index] is None for row in partition)
        if has_null:
            name = dim.name or f"#{position} ({dim.kind.value})"
            raise ExecutionError(
                f"skyline dimension {name} holds NULL, but SKYLINE OF "
                f"COMPLETE (or a forced complete algorithm) asserts that "
                f"no MIN/MAX dimension does; without COMPLETE the "
                f"'auto' strategy runs the incomplete algorithm")


class _Mode(NamedTuple):
    """One variant of the skyline operator (Listing 8): what differs
    between them is the dominance predicate and the deletion rule."""

    #: True when the block must take the scalar reference instead.
    unsafe: Callable[[ColumnBlock], bool]
    #: ``(block, stats, check_deadline)`` -> surviving row indices.
    select: Callable
    #: The scalar reference kernel.
    reference: Callable
    #: Whether SKYLINE ... DISTINCT applies in this mode.
    distinct: bool
    #: Whether the mode's predicate handles NULL in MIN/MAX dimensions
    #: (otherwise :func:`_reject_nulls` runs once per task).
    null_aware: bool


#: The four modes :func:`skyline_task` runs, keyed by the plain string
#: the physical operators carry (a string pickles by value, so the task
#: and its mode ship to process workers as is).  BNL and SFS differ
#: only in output order, incomplete data only in the predicate
#: (null-restricted, applied per null-bitmap group of the task, where
#: it is transitive) and the deferred deletion (``flagged``: rows are
#: flagged, never deleted early, which is what stays correct under
#: cyclic dominance).
SKYLINE_MODES: dict[str, _Mode] = {
    "complete": _Mode(
        _has_nan,
        functools.partial(_grouped_indices, _block_skyline_indices),
        bnl_skyline, True, False),
    "bitmap-local": _Mode(
        ColumnBlock.diff_keys_have_nan,
        functools.partial(_grouped_indices, _block_skyline_indices,
                          by_bitmap=True),
        bitmap_local_skyline, False, True),
    "sfs": _Mode(_has_nan, _sfs_indices, sfs_skyline, True,
                 False),
    "flagged": _Mode(
        _ungroupable_diff_keys,
        functools.partial(_grouped_indices, _flagged_indices),
        flagged_global_skyline, True, True),
}


def skyline_task(partition: "Sequence[Sequence] | ColumnBatch",
                 dims: Sequence[BoundDimension], mode: str,
                 distinct: bool = False, vectorized: bool = True,
                 check_deadline: Callable[[], None] | None = None,
                 stats: DominanceStats | None = None
                 ) -> "tuple[list | ColumnBatch, int, int]":
    """The skyline of one partition -- every local, global and fold
    computation of the engine is this function.

    ``partition`` is a row list or a :class:`ColumnBatch` and the
    result comes back in the same representation: a batch's oriented
    columns are cast from its typed arrays (no per-row columnization) and survivors are selected by index, so the batch
    plane never materialises rows unless a guard forces the scalar
    reference.  ``mode`` keys :data:`SKYLINE_MODES`.  ``vectorized``
    off, data that cannot be columnized faithfully or a tripped mode
    guard all run the mode's scalar reference kernel on the row view.
    A complete-data mode over a NULL MIN/MAX value raises
    :class:`~repro.errors.ExecutionError`.

    Top-level and called with plain-data arguments, hence shippable to
    process-pool workers.  Returns ``(result, window_peak,
    comparisons)``; ``comparisons`` counts *evaluated* directed
    dominance tests -- vectorized blocks cannot short-circuit inside a
    pair, so the count is comparable but not identical to the scalar
    kernels'.
    """
    spec = SKYLINE_MODES[mode]
    distinct = distinct and spec.distinct
    stats = stats if stats is not None else DominanceStats()
    is_batch = isinstance(partition, ColumnBatch)
    if not is_batch and not isinstance(partition, list):
        partition = list(partition)
    block = columnize(partition, dims) if vectorized else None
    if not spec.null_aware:
        _reject_nulls(partition, block, dims)
    if block is None or spec.unsafe(block):
        rows = partition.to_rows() if is_batch else partition
        result = spec.reference(rows, dims, distinct=distinct, stats=stats,
                                check_deadline=check_deadline)
        if is_batch:
            result = ColumnBatch.from_rows(result, partition.num_columns)
        return result, stats.window_peak, stats.comparisons
    indices = spec.select(block, stats, check_deadline)
    result = partition.take(indices) if is_batch \
        else [partition[i] for i in indices]
    if distinct:
        # Only the survivors are materialised as rows, not the batch.
        keep = _distinct_positions(
            result.to_rows() if is_batch else result, dims)
        result = result.take(keep) if is_batch \
            else [result[i] for i in keep]
    return result, stats.window_peak, stats.comparisons


# ---------------------------------------------------------------------------
# The null-bitmap distribution (Section 5.7)
# ---------------------------------------------------------------------------


def batch_null_bitmaps(batch: ColumnBatch,
                       dims: Sequence[BoundDimension]) -> "np.ndarray":
    """Per-row null bitmaps over the skyline dimensions, columnar.

    Matches :func:`repro.core.dominance.null_bitmap` bit for bit: bit
    ``i`` set iff the row is null in the *i*-th dimension of ``dims``.
    Computed from the batch's null masks in one vectorized pass.
    """
    acc = np.zeros(batch.num_rows, dtype=np.int64)
    for i, dim in enumerate(dims):
        flags = batch.column(dim.index).null_flags()
        if isinstance(flags, list):
            flags = np.asarray(flags, dtype=bool)
        acc |= flags.astype(np.int64) << i
    return acc


def pack_by_null_bitmap(partitions: "Sequence[list | ColumnBatch]",
                        dims: Sequence[BoundDimension], bins: int
                        ) -> "list[list | ColumnBatch]":
    """The null-bitmap distribution (Section 5.7) of ``partitions`` (all
    row lists or all batches) onto at most ``bins`` partitions.

    Rows null in the same skyline dimensions form a group, and a group
    is never split: the ``bitmap-local`` mode then takes each group's
    skyline inside the task, where the null-restricted dominance is
    transitive.  Groups go largest first to the partition holding the
    fewest rows so far (longest processing time first); inside a
    partition they keep first-seen order, rows their input order, and
    partitions are ordered by their first row.  One stable argsort,
    one ``take`` per partition.
    """
    is_batch = isinstance(partitions[0], ColumnBatch)
    whole = ColumnBatch.concat(partitions) if is_batch \
        else [row for part in partitions for row in part]
    if not len(whole):
        return [whole]
    bitmaps = batch_null_bitmaps(whole, dims) if is_batch else np.fromiter(
        (null_bitmap(row, dims) for row in whole), np.int64, len(whole))
    groups = _equal_runs(bitmaps)
    loads = [0] * min(bins, len(groups))
    members: list[list] = [[] for _ in loads]
    for group in sorted(groups, key=len, reverse=True):  # stable
        target = loads.index(min(loads))
        loads[target] += len(group)
        members[target].append(group)
    packed = []
    for member in sorted(members, key=lambda m: min(g[0] for g in m)):
        member.sort(key=lambda group: group[0])
        rows = np.concatenate(member)
        packed.append(whole.take(rows) if is_batch
                      else [whole[i] for i in rows.tolist()])
    return packed


# ---------------------------------------------------------------------------
# Dominance re-filter (serving-layer result cache)
# ---------------------------------------------------------------------------


def vec_dominated_mask(rows: "Sequence[Sequence] | ColumnBatch",
                       by_rows: "Sequence[Sequence] | ColumnBatch",
                       dims: Sequence[BoundDimension]
                       ) -> "np.ndarray | None":
    """Boolean array: is ``rows[i]`` dominated by *some* row of
    ``by_rows`` (complete-data semantics)?  Either side may be a
    :class:`ColumnBatch`, read through its typed columns.

    The serving layer's dominance-aware result cache answers a
    subset-preference query by filtering the base table's resident
    columns against a small cached skyline, and finds the rows a
    deleted member dominated the same way.  Returns ``None`` when the
    data cannot be columnized faithfully (non-numeric or DIFF
    dimensions, nulls) -- callers then fall back to the scalar
    :func:`~repro.core.dominance.dominates` loop, which is always exact.
    """
    if any(d.is_diff for d in dims):
        return None
    cand = columnize(rows, dims)
    by = columnize(by_rows, dims)
    if cand is None or by is None:
        return None
    if cand.nulls or by.nulls:
        # Nulls demand the incomplete semantics; the cache never stores
        # nullable preference sets, so just refuse.
        return None
    return _dominated_by(cand.cols, by.cols)
