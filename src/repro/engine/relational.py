"""Array kernels of the batch-native relational operators.

Hash join, hash aggregate and DISTINCT on :class:`ColumnBatch`es reduce
to :func:`join_indices` (sorted build side + ``searchsorted`` probe ->
index arrays to gather with), :func:`group_ids` (dense group ids in
first-seen order) and the grouped reductions of :func:`aggregate`.
Each reproduces the row operators of :mod:`repro.plan.physical`
exactly: same rows, same order, same Python values.  Where arrays
cannot promise that a kernel raises :class:`Inexact` and the operator
runs its row body, counted by reason in ``summary()["fallbacks"]``.
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
    data is Python's on the values (``1 == 1.0 == True``).  ``as_float``
    casts an int/bool column to meet a float one, exactly or not at all."""
    if not len(column):
        return np.empty(0, dtype=np.float64 if as_float else np.int64), None
    column = _typed(column, "fallback_obj_key")
    data = column.data
    null = column.mask if column.mask is not None and column.mask.any() \
        else None
    if column.kind == F8:
        if np.isnan(data if null is None else data[~null]).any():
            raise Inexact("fallback_nan_key")
    elif as_float:
        if not int64_fits_float_exact(data):
            raise Inexact("fallback_inexact_cast")
        data = data.astype(np.float64)
    elif column.kind == B1:
        data = data.astype(np.int64)
    return data, null


def group_ids(keys: Sequence[tuple], num_rows: int) -> tuple:
    """``(ids, first_rows)``: a dense group id per row, numbered in
    first-seen order, and the row that opened each group.  ``keys`` are
    :func:`key_array` pairs; a null is one more value of its column, as
    ``None`` is in a ``dict`` key."""
    if not keys:
        return (np.zeros(num_rows, dtype=np.intp),
                np.zeros(min(num_rows, 1), dtype=np.intp))
    code, width = None, 1
    for data, null in keys:
        if len(keys) == 1 and null is None:
            code = data
            break
        values, inverse = np.unique(data, return_inverse=True)
        radix = len(values) + 1  # one more for the nulls
        if null is not None:
            inverse = np.where(null, radix - 1, inverse)
        if code is None:
            code, width = inverse, radix
            continue
        if width * radix >= 2 ** 62:
            # Re-densify before the mixed radix can leave int64.
            code = np.unique(code, return_inverse=True)[1]
            width = int(code.max()) + 1
        code = code * radix + inverse
        width *= radix
    _, first, inverse = np.unique(code, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


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


def join_build(data, null) -> tuple:
    """The build side: its non-null keys sorted (stably: equal keys
    stay in arrival order) and the row each came from."""
    order = np.argsort(data, kind="stable")
    if null is not None:
        order = order[~null[order]]
    return data[order], order


def join_indices(data, null, build: tuple) -> tuple:
    """``(probe_rows, build_rows)`` of every match: probe rows in order,
    each with its matches in build-side arrival order; no null matches."""
    keys, order = build
    low = np.searchsorted(keys, data, "left")
    counts = np.searchsorted(keys, data, "right") - low
    if null is not None:
        counts[null] = 0
    probe = np.repeat(np.arange(len(data)), counts)
    within = np.arange(len(probe)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    return probe, order[np.repeat(low, counts) + within]


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
