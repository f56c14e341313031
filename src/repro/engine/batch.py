"""Columnar batches -- the unit of exchange of the batch data plane.

A :class:`ColumnBatch` is a partition's rows stored column-wise: each
:class:`Column` holds one attribute for every row of the batch.  Numeric
columns are backed by typed NumPy arrays (``float64`` / ``int64`` /
``bool``) plus an explicit null mask, so filters, projections and the
skyline kernels can evaluate whole columns at once; columns that cannot
be stored faithfully in a typed array (strings, mixed int/float,
integers beyond ``int64``) stay a plain Python list, which the
operators evaluate row at a time.

Conversion is **exact and lossless** in both directions:
``ColumnBatch.from_rows(rows).to_rows() == rows`` bit for bit, including
value *types* (an ``int`` column round-trips as ``int``, never
``float``), SQL ``NULL`` (``None``), NaN data (kept distinct from nulls
via the mask) and ±inf.  The row path therefore remains the reference
semantics: any operator may drop from batches to rows at any point
without changing results.

This module also owns the **single columnization point** of the engine:
:func:`encode_numeric_column` implements the pinned null-mask/NaN
encoding (SQL ``NULL`` -> NaN plus mask bit, integers beyond the
float64-exact range refuse to encode) that
:func:`repro.core.vectorized.columnize` historically inlined; the
skyline kernels and the batch plane now share it.

Batches are picklable (arrays and lists both travel through the process
backend) and cheap to slice: ``take``/``compress`` produce new batches
without materialising rows, and ``slice`` is a zero-copy view (how
scans read :meth:`repro.engine.catalog.Table.column_batch`).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Sequence

import numpy as np

#: Largest integer magnitude exactly representable as float64; larger
#: ints would change comparison outcomes under conversion, so they
#: refuse to encode as floats (scalar fallback instead).
MAX_EXACT_INT = 2 ** 53

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Column storage kinds: float64, int64, bool (each with an optional
#: null mask) and the plain-Python-list fallback.
F8, I8, B1, OBJ = "f8", "i8", "b1", "obj"

#: NumPy dtype per array-backed kind.
_DTYPES = {F8: "float64", I8: "int64", B1: "bool"}

#: Flat per-value byte estimate for ``obj`` (Python-list) columns:
#: a pointer (8) plus a small-object payload allowance.  Deliberately
#: deterministic -- tracked memory high-water marks must not depend on
#: ``sys.getsizeof`` details that vary across interpreters.
_OBJ_VALUE_BYTES = 48


def encode_numeric_column(values: Sequence) -> "tuple | None":
    """The pinned float64 encoding of one column of SQL values.

    Returns ``(data, null_mask)`` -- ``data`` is float64 with SQL
    ``NULL`` encoded as NaN, ``null_mask`` marks the encoded nulls (NaN
    *data* stays unmasked) -- or ``None`` when the column cannot be
    encoded faithfully: non-numeric values or integers beyond the
    float64-exact range (|v| > 2**53).
    """
    kinds = set(map(type, values))
    has_null = type(None) in kinds
    if not kinds <= {int, float, bool, type(None)}:
        return None
    if int in kinds and any(
            type(v) is int and (v > MAX_EXACT_INT or v < -MAX_EXACT_INT)
            for v in values):
        return None
    if has_null:
        null_mask = np.asarray([v is None for v in values], dtype=bool)
        data = np.asarray([np.nan if v is None else float(v)
                           for v in values], dtype=np.float64)
    else:
        null_mask = np.zeros(len(values), dtype=bool)
        data = np.asarray(values, dtype=np.float64)
    return data, null_mask


def int64_fits_float_exact(data) -> bool:
    """True when every int64 in ``data`` casts to float64 exactly.

    Bounds are checked via min/max, never ``np.abs`` -- ``abs`` itself
    overflows at INT64_MIN and would let out-of-range values through.
    Shared by :meth:`Column.as_f8` and the expression layer's cast
    guards so the exactness rule cannot drift between them.
    """
    return not len(data) or (
        int(data.min()) >= -MAX_EXACT_INT
        and int(data.max()) <= MAX_EXACT_INT)


def without_positions(values: list, positions: "list[int]") -> list:
    """A copy of ``values`` without ``positions`` (ascending), chained
    from the slices between them: O(len) for one position or many."""
    bounds = [-1, *positions, len(values)]
    return list(chain.from_iterable(
        values[lo + 1:hi] for lo, hi in zip(bounds, bounds[1:])))


class Column:
    """One attribute of a batch: typed array + null mask, or a list.

    ``data`` is a NumPy array for the ``f8``/``i8``/``b1`` kinds (with
    ``mask`` marking nulls; values under the mask are placeholders) and
    a plain Python list for ``obj``.  Construction goes through
    :meth:`from_values`, which picks the faithful storage.

    Columns are treated as **immutable** throughout the engine:
    operations return new columns and may freely alias each other's
    arrays (e.g. a comparison result sharing an operand's null mask).
    """

    __slots__ = ("kind", "data", "mask")

    def __init__(self, kind: str, data, mask=None) -> None:
        self.kind = kind
        self.data = data
        self.mask = mask

    def __len__(self) -> int:
        return len(self.data)

    def __getstate__(self):
        return (self.kind, self.data, self.mask)

    def __setstate__(self, state) -> None:
        self.kind, self.data, self.mask = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Column({self.kind}, n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Resident bytes of this column's storage.

        Exact for array-backed kinds (buffer plus null mask); a
        deterministic per-value estimate for ``obj`` lists (pointer plus
        a flat payload allowance), so memory accounting stays stable
        across runs and platforms.
        """
        if self.kind != OBJ:
            total = int(self.data.nbytes)
            if self.mask is not None:
                total += int(self.mask.nbytes)
            return total
        return 8 + len(self.data) * _OBJ_VALUE_BYTES

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence) -> "Column":
        """Encode one column of Python values into faithful storage.

        float columns (optionally with nulls) become ``f8`` with nulls
        as NaN + mask; int columns within ``int64`` become ``i8``; bool
        columns become ``b1``; everything else -- strings, mixed
        numeric types, big ints -- stays a Python list (``obj``).
        """
        values = values if isinstance(values, list) else list(values)
        if not values:
            return cls(OBJ, values)
        kinds = set(map(type, values))
        has_null = type(None) in kinds
        kinds.discard(type(None))
        if kinds == {float}:
            if has_null:
                mask = np.asarray([v is None for v in values], dtype=bool)
                data = np.asarray([np.nan if v is None else v
                                   for v in values], dtype=np.float64)
            else:
                mask = None
                data = np.asarray(values, dtype=np.float64)
            return cls(F8, data, mask)
        if kinds == {int}:
            if any(v is not None and not _INT64_MIN <= v <= _INT64_MAX
                   for v in values):
                return cls(OBJ, values)
            if has_null:
                mask = np.asarray([v is None for v in values], dtype=bool)
                data = np.asarray([0 if v is None else v
                                   for v in values], dtype=np.int64)
            else:
                mask = None
                data = np.asarray(values, dtype=np.int64)
            return cls(I8, data, mask)
        if kinds == {bool}:
            if has_null:
                mask = np.asarray([v is None for v in values], dtype=bool)
                data = np.asarray([bool(v) for v in values], dtype=bool)
            else:
                mask = None
                data = np.asarray(values, dtype=bool)
            return cls(B1, data, mask)
        return cls(OBJ, values)

    @classmethod
    def constant(cls, value: Any, n: int) -> "Column":
        """A column repeating ``value`` ``n`` times (literal broadcast)."""
        if n:
            if type(value) is float:
                return cls(F8, np.full(n, value, dtype=np.float64))
            if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                return cls(I8, np.full(n, value, dtype=np.int64))
            if type(value) is bool:
                return cls(B1, np.full(n, value, dtype=bool))
        return cls(OBJ, [value] * n)

    @classmethod
    def nulls(cls, n: int) -> "Column":
        """An all-null column (e.g. an all-``None`` literal)."""
        return cls(OBJ, [None] * n)

    # -- inspection -------------------------------------------------------

    @property
    def is_array(self) -> bool:
        return self.kind != OBJ

    def has_nulls(self) -> bool:
        if self.kind == OBJ:
            return any(v is None for v in self.data)
        return self.mask is not None and bool(self.mask.any())

    def null_flags(self):
        """Boolean null indicator per row (ndarray or list)."""
        if self.kind == OBJ:
            return [v is None for v in self.data]
        if self.mask is not None:
            return self.mask
        return np.zeros(len(self.data), dtype=bool)

    def as_f8(self) -> "tuple | None":
        """``(data, null mask)``: values that cast to float64 exactly,
        for the caller to cast into a buffer of its own.

        A typed column hands out its own array, not a copy -- callers
        must never write into it -- and its values under a null are
        undefined; the mask is ``None`` when no row is null.  A list
        column goes through :func:`encode_numeric_column`.  Returns
        ``None`` when exactness would be lost (``i8`` beyond 2**53) or
        for list columns that :func:`encode_numeric_column` rejects.
        """
        if self.kind == OBJ:
            return encode_numeric_column(self.data)
        if self.kind == I8 and not int64_fits_float_exact(self.data):
            return None
        return self.data, self.mask if self.has_nulls() else None

    # -- conversion -------------------------------------------------------

    def to_values(self) -> list:
        """The column back as exact Python values (nulls as ``None``)."""
        if self.kind == OBJ:
            return list(self.data)
        values = self.data.tolist()
        if self.mask is not None and self.mask.any():
            for i in self.mask.nonzero()[0].tolist():
                values[i] = None
        return values

    # -- slicing ----------------------------------------------------------

    def slice(self, start: int, stop: int) -> "Column":
        """Rows ``[start, stop)``: a view (arrays), a list slice (obj)."""
        mask = self.mask[start:stop] if self.mask is not None else None
        return Column(self.kind, self.data[start:stop], mask)

    def take(self, indices) -> "Column":
        """Rows at ``indices`` (a list or intp array), in that order."""
        if self.kind == OBJ:
            data = self.data
            if not isinstance(indices, list):
                indices = indices.tolist()
            return Column(OBJ, [data[i] for i in indices])
        idx = np.asarray(indices, dtype=np.intp)
        mask = self.mask[idx] if self.mask is not None else None
        return Column(self.kind, self.data[idx], mask)

    def compress(self, keep) -> "Column":
        """Rows where ``keep`` (bool ndarray or list) is True."""
        if self.kind == OBJ:
            return Column(OBJ, [v for v, k in zip(self.data, keep) if k])
        keep = np.asarray(keep, dtype=bool)
        mask = self.mask[keep] if self.mask is not None else None
        return Column(self.kind, self.data[keep], mask)

    def extend(self, values: list) -> "Column":
        """A new column: this one plus ``values``, only they encoded.
        A list stays a list; a typed column takes values of its own
        type and ``None`` (a first one adds the mask).  Only a value it
        cannot hold -- an ``int`` into ``f8``, a big int, a string --
        re-encodes the whole column from values (:meth:`concat`), which
        leaves it ``obj``."""
        if self.kind == OBJ and self.data:
            return Column(OBJ, self.data + values)
        delta = Column.from_values(values)
        if self.kind != OBJ and all(v is None for v in values):
            # from_values cannot type NULLs alone; any kind holds them.
            delta = Column(self.kind,
                           np.zeros(len(values), self.data.dtype),
                           np.ones(len(values), dtype=bool))
        return Column.concat([self, delta])

    def delete(self, positions: "list[int]") -> "Column":
        """A new column without the rows at ``positions`` (ascending)."""
        if self.kind == OBJ:
            return Column(OBJ, without_positions(self.data, positions))
        mask = None if self.mask is None else np.delete(self.mask, positions)
        return Column(self.kind, np.delete(self.data, positions), mask)

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """Stack columns of the same attribute (re-encoded via values
        when storage kinds disagree).

        Zero-row columns are excluded from the kind vote: an empty
        partition columnizes as ``obj`` (``from_rows`` cannot infer a
        type from no values), and letting it outvote typed siblings
        would degrade the whole concatenated column to an untyped
        list.  An all-empty input keeps the first column's storage.
        """
        live = [c for c in columns if len(c)]
        if live:
            columns = live
        elif len(columns) > 1:
            columns = list(columns[:1])
        kinds = {c.kind for c in columns}
        if len(kinds) != 1 or OBJ in kinds:
            merged: list = []
            for column in columns:
                merged.extend(column.to_values())
            return cls.from_values(merged)
        kind = next(iter(kinds))
        data = np.concatenate([c.data for c in columns])
        if any(c.mask is not None for c in columns):
            mask = np.concatenate([
                c.mask if c.mask is not None else
                np.zeros(len(c.data), dtype=bool) for c in columns])
        else:
            mask = None
        return cls(kind, data, mask)


class ColumnBatch:
    """A partition of rows in columnar form; see the module docstring."""

    __slots__ = ("columns", "_num_rows", "_rows", "__weakref__")

    def __init__(self, columns: Sequence[Column],
                 num_rows: int | None = None) -> None:
        self.columns = list(columns)
        if num_rows is None:
            if not self.columns:
                raise ValueError("a zero-column batch needs num_rows")
            num_rows = len(self.columns[0])
        self._num_rows = num_rows
        self._rows: list[tuple] | None = None

    def __getstate__(self):
        # By value; a batch shipped as a shared-memory handle travels as
        # a repro.engine.shm.SharedBatch instead.
        return (self.columns, self._num_rows)

    def __setstate__(self, state) -> None:
        self.columns, self._num_rows = state
        self._rows = None

    # -- inspection -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self._num_rows

    def column(self, index: int) -> Column:
        return self.columns[index]

    @property
    def nbytes(self) -> int:
        """Resident bytes across all columns (see :attr:`Column.nbytes`).

        This is what the execution context's tracked (non-simulated)
        memory high-water marks sum up.
        """
        return sum(column.nbytes for column in self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ",".join(c.kind for c in self.columns)
        return f"ColumnBatch({self._num_rows} rows, [{kinds}])"

    # -- conversion -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[tuple],
                  num_columns: int) -> "ColumnBatch":
        """Columnize a partition (the batch-plane entry point)."""
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls([Column(OBJ, []) for _ in range(num_columns)],
                       num_rows=0)
        columns = [Column.from_values(list(values))
                   for values in zip(*rows)]
        batch = cls(columns, num_rows=len(rows))
        batch._rows = rows
        return batch

    def to_rows(self) -> list[tuple]:
        """The batch back as row tuples (cached; exact round-trip)."""
        if self._rows is None:
            if not self.columns:
                self._rows = [()] * self._num_rows
            else:
                self._rows = list(zip(*[c.to_values()
                                        for c in self.columns]))
        return self._rows

    # -- slicing ----------------------------------------------------------

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows ``[start, stop)`` (clamped like a list slice), zero-copy:
        array columns are views of this batch's buffers and the source
        row tuples are carried along (``to_rows()`` rebuilds nothing)."""
        start, stop, _ = slice(start, stop).indices(self._num_rows)
        batch = ColumnBatch([c.slice(start, stop) for c in self.columns],
                            num_rows=max(0, stop - start))
        if self._rows is not None:
            batch._rows = self._rows[start:stop]
        return batch

    def extend(self, rows: "list[tuple]") -> "ColumnBatch":
        """A new batch: this one plus ``rows``, columnizing only them
        (catalog DML on resident columns; row tuples carried along)."""
        batch = ColumnBatch(
            [column.extend(list(values)) for column, values
             in zip(self.columns, zip(*rows))] if rows else self.columns,
            num_rows=self._num_rows + len(rows))
        batch._rows = self.to_rows() + rows
        return batch

    def delete(self, positions: "list[int]") -> "ColumnBatch":
        """A new batch without the rows at ``positions`` (ascending)."""
        batch = ColumnBatch([c.delete(positions) for c in self.columns],
                            num_rows=self._num_rows - len(positions))
        batch._rows = without_positions(self.to_rows(), positions)
        return batch

    def select(self, ordinals: Sequence[int]) -> "ColumnBatch":
        """The columns at ``ordinals``, in that order, zero-copy: the
        :class:`Column` objects themselves are shared (how a fused scan
        chain narrows a table's resident columns to the ones it reads)."""
        return ColumnBatch([self.columns[i] for i in ordinals],
                           num_rows=self._num_rows)

    def set_read_only(self) -> None:
        """Make the array buffers, and every view of them, refuse
        writes: an in-place kernel fails loudly, corrupts nothing."""
        for column in self.columns:
            if column.is_array:
                column.data.flags.writeable = False
                if column.mask is not None:
                    column.mask.flags.writeable = False

    def take(self, indices) -> "ColumnBatch":
        """Rows at ``indices`` (a list or intp array, passed through)."""
        if not isinstance(indices, (list, np.ndarray)):
            indices = list(indices)
        return ColumnBatch([c.take(indices) for c in self.columns],
                           num_rows=len(indices))

    def compress(self, keep) -> "ColumnBatch":
        keep = np.asarray(keep, dtype=bool)
        return ColumnBatch([c.compress(keep) for c in self.columns],
                           num_rows=int(keep.sum()))

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """One batch holding every row of ``batches``, in order."""
        batches = [b for b in batches]
        if not batches:
            raise ValueError("concat needs at least one batch")
        if len(batches) == 1:
            return batches[0]
        width = batches[0].num_columns
        columns = [Column.concat([b.columns[j] for b in batches])
                   for j in range(width)]
        return cls(columns, num_rows=sum(b.num_rows for b in batches))
