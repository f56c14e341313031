"""Array kernels of the batch-native relational operators.

Hash join, hash aggregate and DISTINCT on :class:`ColumnBatch`es reduce
to index arrays over *codes*: each key becomes a small non-negative
integer, equal where the keys are equal, and every kernel reads a table
at that code instead of searching or sorting.  An integer key whose
span (``max - min + 1``) is within a small multiple of the row count is
its own code less the minimum; any other key (floats, a sparse range)
is numbered by one ``np.unique``.  :func:`join_codes` gives both sides
of a join one code space, :func:`join_build` turns the build side into a
CSR table (per code: count, start, rows in arrival order) and
:func:`join_indices` probes it by direct addressing; :func:`group_ids`
numbers dense codes in first-seen order with one ``np.minimum.at``
scatter, and :func:`aggregate` runs the grouped reductions.  Each
reproduces the row operators of :mod:`repro.plan.physical` exactly:
same rows, same order, same Python values.  Where arrays cannot promise
that a kernel raises :class:`Inexact` and the operator runs its row
body, counted by reason in ``summary()["fallbacks"]``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batch import (B1, F8, I8, OBJ, Column, ColumnBatch,
                    int64_fits_float_exact)


class Inexact(Exception):
    """The arrays cannot reproduce the row operator bit for bit.
    ``reason``: ``fallback_obj_key`` (a key column stored as a Python
    list), ``fallback_nan_key`` (NaN keys match by object identity in a
    ``dict``), ``fallback_inexact_cast`` (int64 beyond 2**53 meeting
    float64), ``fallback_int_overflow`` (an integer sum that may leave
    int64), ``fallback_nan_aggregate`` (min/max/DISTINCT over NaN depend
    on arrival order) or ``fallback_obj_aggregate`` (an aggregated
    column stored as a list)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _typed(column: Column, reason: str) -> Column:
    """``column`` if array-backed; a fully masked stand-in for an
    all-null list (an outer join's null side: no value to infer a type
    from); any other list is ``reason`` to fall back."""
    if column.kind != OBJ:
        return column
    if any(value is not None for value in column.data):
        raise Inexact(reason)
    return Column(F8, np.zeros(len(column)), np.ones(len(column), dtype=bool))


def key_array(column: Column, as_float: bool = False) -> tuple:
    """``(data, null mask or None)`` of one key column; ``==`` on the
    data is Python's on the values (``1 == 1.0 == True``).  The data is
    ``int64``, or ``float64`` under ``as_float`` (set when any side of
    the join holds floats), which casts an int/bool column exactly or
    not at all."""
    if not len(column):
        return np.empty(0, dtype=np.float64 if as_float else np.int64), None
    column = _typed(column, "fallback_obj_key")
    data = column.data
    null = column.mask if column.mask is not None and column.mask.any() \
        else None
    if column.kind == F8:
        if null is not None and null.all():
            # An all-null stand-in: no value, so no float to meet.
            data = np.zeros(len(data), dtype=np.float64 if as_float
                            else np.int64)
        elif np.isnan(data if null is None else data[~null]).any():
            raise Inexact("fallback_nan_key")
    elif as_float:
        if not int64_fits_float_exact(data):
            raise Inexact("fallback_inexact_cast")
        data = data.astype(np.float64)
    elif column.kind == B1:
        data = data.astype(np.int64)
    return data, null


#: A code space of up to ``_SPAN_PER_ROW`` entries per row (plus
#: ``_SPAN_SLACK``) is addressed directly; a wider one is numbered by a
#: sort.  A table that size costs about what one pass over the rows does.
_SPAN_PER_ROW, _SPAN_SLACK = 4, 1024


def _addressable(width: int, num_rows: int) -> bool:
    return width <= _SPAN_PER_ROW * num_rows + _SPAN_SLACK


def _span(values, num_rows: int) -> tuple | None:
    """``(lowest, span)`` of integer ``values`` whose span is
    addressable beside ``num_rows`` rows; None for floats or a sparse
    range.  The span is a Python int: ``max - min`` may leave int64."""
    if values.dtype.kind != "i":
        return None
    if not len(values):
        return 0, 0
    low = int(values.min())
    span = int(values.max()) - low + 1
    return (low, span) if _addressable(span, num_rows) else None


def _column_codes(data, null, num_rows: int) -> tuple:
    """``(codes, radix)`` of one key column: codes below ``radix - 1``
    equal where the values are, ``radix - 1`` for a null."""
    if data.dtype == bool:
        data = data.astype(np.int64)
    span = _span(data if null is None else data[~null], num_rows)
    if span is None:
        values, codes = np.unique(data, return_inverse=True)
        size = len(values)
        if null is not None:
            codes = np.where(null, size, codes)
        return codes, size + 1
    low, size = span
    codes = np.full(len(data), size, dtype=np.intp)
    # A null's data is arbitrary: only the values are shifted.
    np.subtract(data, low, out=codes,
                where=True if null is None else ~null)
    return codes, size + 1


def _first_seen(code, width: int) -> tuple:
    """``(ids, first_rows)`` of codes below ``width``: ids numbered in
    first-seen order, and the row that opened each."""
    num_rows = len(code)
    if not _addressable(width, num_rows):
        _, first, inverse = np.unique(code, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return rank[inverse], first[order]
    first = np.full(width, num_rows, dtype=np.intp)
    np.minimum.at(first, code, np.arange(num_rows))
    opened = np.zeros(num_rows + 1, dtype=bool)  # the last: unused codes
    opened[first] = True
    first_rows = np.flatnonzero(opened[:num_rows])
    label = np.empty(width, dtype=np.intp)
    label[code[first_rows]] = np.arange(len(first_rows))
    return label[code], first_rows


def group_ids(keys: Sequence[tuple], num_rows: int) -> tuple:
    """``(ids, first_rows)``: a dense group id per row, numbered in
    first-seen order, and the row that opened each group.  ``keys`` are
    ``(data, null or None)`` pairs; a null is one more value of its
    column, as ``None`` is in a ``dict`` key.  Several columns combine
    in a mixed radix of their codes."""
    if not keys:
        return (np.zeros(num_rows, dtype=np.intp),
                np.zeros(min(num_rows, 1), dtype=np.intp))
    code, width = None, 1
    for data, null in keys:
        column, radix = _column_codes(data, null, num_rows)
        if code is None:
            code, width = column, radix
            continue
        if not _addressable(width * radix, num_rows):
            # Renumber first, to keep the mixed radix small.
            code, first = _first_seen(code, width)
            width = len(first)
        code = code * radix + column
        width *= radix
    return _first_seen(code, width)


def joint_codes(keys: Sequence[Sequence[tuple]]) -> list[tuple]:
    """Several join key columns as one.  ``keys[j][i]`` is column ``j``
    of batch ``i``; returns one ``(codes, null)`` per batch, codes equal
    where every column is, null where any is."""
    sizes = [len(data) for data, _ in keys[0]]
    columns = [(np.concatenate([data for data, _ in column]),
                np.concatenate([np.zeros(len(data), dtype=bool)
                                if null is None else null
                                for data, null in column]))
               for column in keys]
    codes = group_ids(columns, sum(sizes))[0]
    null = np.logical_or.reduce([null for _, null in columns])
    bounds = np.cumsum(sizes)[:-1]
    return list(zip(np.split(codes, bounds), np.split(null, bounds)))


def join_codes(keys: Sequence[tuple], build: int) -> tuple:
    """``(codes, size)``: one join key in one code space.  ``keys`` holds
    a :func:`key_array` pair per batch, ``keys[build]`` the build
    side's; ``codes`` has one array per batch, equal where the keys are.
    Code ``size`` matches nothing: a null, or a probe value outside the
    build side's span."""
    num_rows = sum(len(data) for data, _ in keys)
    data, null = keys[build]
    span = _span(data if null is None else data[~null], num_rows)
    if span is not None:
        low, size = span
        high = low + size - 1
        codes = []
        for data, null in keys:
            # Range-check the raw values: only a key inside the build
            # side's span is shifted, so no subtraction can wrap.
            inside = (data >= low) & (data <= high)
            if null is not None:
                inside &= ~null
            code = np.full(len(data), size, dtype=np.intp)
            codes.append(np.subtract(data, low, out=code, where=inside))
        return codes, size
    values, inverse = np.unique(np.concatenate([d for d, _ in keys]),
                                return_inverse=True)
    size = len(values)
    bounds = np.cumsum([len(d) for d, _ in keys])[:-1]
    return [code if null is None else np.where(null, size, code)
            for (_, null), code in zip(keys, np.split(inverse, bounds))], \
        size


def join_build(codes, size: int) -> tuple:
    """The build side as a CSR table over codes below ``size``:
    ``(counts, starts, rows)``, each code's rows ``rows[starts[c]:
    starts[c] + counts[c]]`` in arrival order (``counts[size]`` is 0)."""
    rows = np.flatnonzero(codes < size)
    counts = np.bincount(codes[rows], minlength=size + 1)
    starts = np.cumsum(counts) - counts
    if len(rows) and counts.max() > 1:
        # code * n + row is unique per row: any sort is the stable one.
        rows = rows[np.argsort(codes[rows] * len(codes) + rows)]
    else:
        placed = np.empty(len(rows), dtype=np.intp)
        placed[starts[codes[rows]]] = rows
        rows = placed
    return counts, starts, rows


def join_indices(codes, build: tuple) -> tuple:
    """``(probe_rows, build_rows)`` of every match: probe rows in order,
    each with its matches in build-side arrival order; no null matches."""
    counts, starts, rows = build
    hits = counts[codes]
    if not len(codes) or hits.max() <= 1:
        probe = np.flatnonzero(hits)
        return probe, rows[starts[codes[probe]]]
    # Pair k of probe row i reads rows[starts[code_i] + k - first pair of i].
    shift = starts[codes] - (np.cumsum(hits) - hits)
    pairs = np.arange(int(hits.sum()))
    return (np.repeat(np.arange(len(codes)), hits),
            rows[np.repeat(shift, hits) + pairs])


def pad_unmatched(probe, build_rows, num_rows: int, null_row: int) -> tuple:
    """Outer-join pairs: every probe row at least once, an unmatched one
    paired in place with ``null_row`` (see :func:`with_null_row`)."""
    hits = np.bincount(probe, minlength=num_rows)
    repeats = np.maximum(hits, 1)
    padded = np.full(int(repeats.sum()), null_row, dtype=np.intp)
    padded[np.repeat(hits > 0, repeats)] = build_rows
    return np.repeat(np.arange(num_rows), repeats), padded


def with_null_row(batch: ColumnBatch) -> ColumnBatch:
    """``batch`` plus one trailing all-null row: what an outer join
    gathers beside a probe row without a match."""
    columns = []
    for column in batch.columns:
        if column.kind == OBJ:
            columns.append(Column(OBJ, column.data + [None]))
            continue
        columns.append(Column(
            column.kind, np.append(column.data, column.data.dtype.type(0)),
            np.append(column.null_flags(), True)))
    return ColumnBatch(columns, num_rows=len(batch) + 1)


def aggregate(name: str, distinct: bool, column: Column, ids,
              num_groups: int) -> Column:
    """``count``/``sum``/``min``/``max``/``avg`` of ``column`` per group,
    typed like the row operator's result: nulls skipped, a group without
    values null (``count``: 0)."""
    column = _typed(column, "fallback_obj_aggregate")
    kind, data = column.kind, column.data
    rows = np.arange(len(ids)) if column.mask is None \
        else np.flatnonzero(~column.mask)
    has_nan = kind == F8 and bool(np.isnan(data[rows]).any())
    if distinct:
        if has_nan:
            raise Inexact("fallback_nan_aggregate")
        # First occurrence of each (group, value), still in input order.
        rows = rows[group_ids([(ids[rows], None), (data[rows], None)],
                              len(rows))[1]]
    ids, data = ids[rows], data[rows]
    counts = np.bincount(ids, minlength=num_groups)
    if name == "count":
        return Column(I8, counts.astype(np.int64))
    empty = counts == 0
    mask = empty if empty.any() else None
    if name in ("min", "max"):
        if has_nan:
            raise Inexact("fallback_nan_aggregate")
        out = np.zeros(num_groups, dtype=data.dtype)
        if kind != F8:
            # Equal ints (bools) are identical, so which of equal
            # extremes came first decides nothing: reduce, no sort.
            if len(data):
                out[:] = data.max() if name == "min" else data.min()
                (np.minimum if name == "min" else np.maximum).at(
                    out, ids, data)
                out[empty] = 0
            return Column(kind, out, mask)
        # By group, then value: like the row loop's strict comparisons,
        # a stable sort keeps the first seen of equal extremes (-0.0, 0.0).
        order = np.lexsort((data if name == "min" else -data, ids))
        out[~empty] = data[order[(np.cumsum(counts) - counts)[~empty]]]
        return Column(kind, out, mask)
    if kind == B1:
        # sum(True) is True but sum(True, True) is 2: no one dtype.
        raise Inexact("fallback_inexact_cast")
    if name == "sum" and kind == I8:
        bound = max(abs(int(data.min())), abs(int(data.max()))) \
            if len(data) else 0
        if bound * int(counts.max()) >= 2 ** 63:
            raise Inexact("fallback_int_overflow")
        out = np.zeros(num_groups, dtype=np.int64)
        np.add.at(out, ids, data)
        return Column(I8, out, mask)
    if kind == I8 and not int64_fits_float_exact(data):
        raise Inexact("fallback_inexact_cast")
    # Float sums accumulate in input order, as the row loop does.
    totals = np.bincount(ids, weights=data, minlength=num_groups)
    if name == "avg":
        with np.errstate(invalid="ignore"):
            return Column(F8, totals / counts, mask)
    # The row loop starts from the first value, not 0.0: a group holding
    # nothing but -0.0 sums to -0.0.
    plain = np.bincount(ids, weights=~((data == 0) & np.signbit(data)),
                        minlength=num_groups)
    totals[(plain == 0) & ~empty] = -0.0
    return Column(F8, totals, mask)
