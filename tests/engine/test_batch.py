"""ColumnBatch storage semantics: exact round-trips and slicing."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import OBJ, ColumnBatch, encode_numeric_column

NAN = float("nan")
INF = float("inf")


def same_value(a, b) -> bool:
    """Equality that treats NaN as equal to NaN and checks types."""
    if a is None or b is None:
        return a is None and b is None
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def assert_round_trip(rows, width):
    batch = ColumnBatch.from_rows(list(rows), width)
    # Drop the cached row view so to_rows really decodes the columns.
    batch._rows = None
    back = batch.to_rows()
    assert len(back) == len(rows)
    for original, decoded in zip(rows, back):
        for a, b in zip(original, decoded):
            assert same_value(a, b), (original, decoded)


class TestRoundTrip:
    def test_float_int_bool_string_columns(self):
        rows = [(1.5, 7, True, "x"), (2.5, -3, False, "y"),
                (0.0, 2 ** 60, True, "z")]
        assert_round_trip(rows, 4)

    def test_nulls_in_every_kind(self):
        rows = [(1.5, 7, True, "x"), (None, None, None, None)]
        assert_round_trip(rows, 4)

    def test_nan_and_inf_stay_distinct_from_null(self):
        rows = [(NAN,), (INF,), (-INF,), (None,), (1.0,)]
        assert_round_trip(rows, 1)

    def test_int_beyond_int64_falls_back_to_list(self):
        rows = [(2 ** 70,), (-2 ** 70,), (5,)]
        batch = ColumnBatch.from_rows(rows, 1)
        assert batch.column(0).kind == OBJ
        assert_round_trip(rows, 1)

    def test_mixed_int_float_column_keeps_types(self):
        rows = [(1,), (2.5,)]
        batch = ColumnBatch.from_rows(rows, 1)
        assert batch.column(0).kind == OBJ
        assert_round_trip(rows, 1)

    def test_empty_batch(self):
        batch = ColumnBatch.from_rows([], 3)
        assert batch.num_rows == 0
        assert batch.to_rows() == []

    def test_typed_storage_is_used_when_faithful(self):
        rows = [(1.5, 7, True), (2.5, -3, False)]
        batch = ColumnBatch.from_rows(rows, 3)
        assert [c.kind for c in batch.columns] == ["f8", "i8", "b1"]


class TestSlicing:
    ROWS = [(1.0, "a", 1), (2.0, "b", None), (None, "c", 3),
            (4.0, "d", 4)]

    def test_take_preserves_order_and_values(self):
        batch = ColumnBatch.from_rows(self.ROWS, 3)
        taken = batch.take([2, 0])
        assert taken.to_rows() == [self.ROWS[2], self.ROWS[0]]

    def test_compress(self):
        batch = ColumnBatch.from_rows(self.ROWS, 3)
        kept = batch.compress([True, False, True, False])
        assert kept.to_rows() == [self.ROWS[0], self.ROWS[2]]

    def test_concat_same_and_mixed_kinds(self):
        left = ColumnBatch.from_rows(self.ROWS[:2], 3)
        right = ColumnBatch.from_rows(self.ROWS[2:], 3)
        merged = ColumnBatch.concat([left, right])
        assert merged.to_rows() == self.ROWS
        # Mixed storage kinds (f8 vs obj) re-encode via values.
        odd = ColumnBatch.from_rows([(2 ** 70, "x", 1)], 3)
        merged = ColumnBatch.concat([left, odd])
        assert merged.to_rows() == self.ROWS[:2] + [(2 ** 70, "x", 1)]

    def test_pickle_round_trip(self):
        batch = ColumnBatch.from_rows(self.ROWS, 3)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.to_rows() == self.ROWS


class TestZeroRowBatches:
    """Zero-row batches flow through shuffles and merge rounds; their
    storage kind and null masks must survive every operation."""

    def test_pickle_round_trip_preserves_shape(self):
        batch = ColumnBatch.from_rows([], 3)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.num_rows == 0
        assert len(clone.columns) == 3
        assert clone.to_rows() == []

    def test_take_nothing_from_empty(self):
        batch = ColumnBatch.from_rows([], 2)
        assert batch.take([]).to_rows() == []
        assert batch.compress([]).to_rows() == []

    def test_concat_with_empty_keeps_typed_kind(self):
        typed = ColumnBatch.from_rows([(1.5, 7), (2.5, -3)], 2)
        empty = typed.take([])
        assert [c.kind for c in typed.columns] == ["f8", "i8"]
        for order in ([empty, typed], [typed, empty],
                      [empty, typed, empty]):
            merged = ColumnBatch.concat(order)
            assert merged.to_rows() == typed.to_rows()
            assert [c.kind for c in merged.columns] == ["f8", "i8"]

    def test_concat_of_only_empties(self):
        a = ColumnBatch.from_rows([], 2)
        b = ColumnBatch.from_rows([], 2)
        merged = ColumnBatch.concat([a, b])
        assert merged.num_rows == 0
        assert len(merged.columns) == 2

    def test_concat_with_empty_keeps_null_mask(self):
        batch = ColumnBatch.from_rows([(1.0,), (None,)], 1)
        empty = batch.take([])
        merged = ColumnBatch.concat([empty, batch])
        assert merged.to_rows() == [(1.0,), (None,)]

    def test_columnize_batch_on_zero_rows(self):
        from repro.core.algorithms import make_dimensions
        from repro.core.vectorized import columnize_batch
        batch = ColumnBatch.from_rows([(1.0, 2.0)], 2).take([])
        block = columnize_batch(batch,
                                make_dimensions([(0, "min"), (1, "min")]))
        assert block.cols.shape == (2, 0) and not block.nulls


def _nullable(values):
    return st.one_of(values, st.none() | values)


#: One strategy per storage kind: f8 (NaN / +-inf data beside masked
#: nulls), i8, b1, and obj (strings, mixed int/float, beyond-int64).
_COLUMN_KINDS = [
    _nullable(st.floats(allow_nan=True, allow_infinity=True)),
    _nullable(st.integers(-2 ** 63, 2 ** 63 - 1)),
    _nullable(st.booleans()),
    st.text(max_size=3) | st.none(),
    st.integers(-5, 5) | st.floats(allow_nan=False),
    st.integers(2 ** 63, 2 ** 70),
]


@st.composite
def _tables(draw):
    """``(rows, width)``: 0-4 columns of one kind each, 0-40 rows."""
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), max_size=4))
    n = draw(st.integers(0, 40))
    columns = [draw(st.lists(kind, min_size=n, max_size=n))
               for kind in kinds]
    return [tuple(col[i] for col in columns) for i in range(n)], len(kinds)


class TestSlice:
    """``ColumnBatch.slice``: the zero-copy read of resident columns."""

    @settings(max_examples=150, deadline=None)
    @given(_tables(), st.integers(-5, 45), st.integers(-5, 45))
    def test_slice_equals_row_slice_with_types(self, table, a, b):
        rows, width = table
        batch = ColumnBatch.from_rows(rows, width) if width \
            else ColumnBatch([], num_rows=len(rows))
        expected = rows[a:b]
        piece = batch.slice(a, b)
        assert piece.num_rows == len(piece) == len(expected)
        assert piece.num_columns == width
        if width:
            # The source tuples ride along: no rebuild, same objects.
            assert all(x is y for x, y in zip(piece.to_rows(), expected))
            piece._rows = None  # now really decode the sliced columns
        decoded = piece.to_rows()
        assert len(decoded) == len(expected)
        for want, got in zip(expected, decoded):
            assert len(want) == len(got)
            assert all(same_value(x, y) for x, y in zip(want, got))

    def test_empty_and_reversed_bounds(self):
        batch = ColumnBatch.from_rows([(1.0, "a"), (2.0, "b")], 2)
        for a, b in ((0, 0), (2, 2), (2, 1), (5, 9)):
            piece = batch.slice(a, b)
            assert piece.num_rows == 0 and piece.to_rows() == []
            assert piece.num_columns == 2

    def test_slice_is_a_view_not_a_copy(self):
        rows = [(float(i), i, i % 2 == 0, None if i % 3 else float(i))
                for i in range(100)]
        batch = ColumnBatch.from_rows(rows, 4)
        piece = batch.slice(10, 60).slice(5, 20)  # slices of slices too
        for whole, part in zip(batch.columns, piece.columns):
            assert part.kind == whole.kind
            assert np.shares_memory(part.data, whole.data)
        assert np.shares_memory(piece.column(3).mask, batch.column(3).mask)
        assert piece.nbytes < batch.nbytes

    def test_read_only_store_rejects_writes_through_views(self):
        rows = [(float(i), None if i % 3 else i) for i in range(10)]
        batch = ColumnBatch.from_rows(rows, 2)
        batch.set_read_only()
        piece = batch.slice(2, 8)
        for column in piece.columns + batch.columns:
            with pytest.raises(ValueError):
                column.data[0] = 0
        with pytest.raises(ValueError):
            piece.column(1).mask[0] = True
        assert piece.to_rows() == rows[2:8]

    def test_pickled_slice_carries_only_its_rows(self):
        rows = [(float(i), i, f"s{i}") for i in range(5000)]
        batch = ColumnBatch.from_rows(rows, 3)
        batch.set_read_only()
        piece = batch.slice(100, 200)
        blob = pickle.dumps(piece)
        assert len(blob) < len(pickle.dumps(batch)) / 10
        assert pickle.loads(blob).to_rows() == rows[100:200]


class TestSelect:
    """``ColumnBatch.select``: how a fused scan chain narrows a table's
    resident columns to the ones it reads."""

    @staticmethod
    def _assert_rows(batch, expected):
        decoded = batch.to_rows()
        assert len(decoded) == batch.num_rows == len(expected)
        for want, got in zip(expected, decoded):
            assert len(want) == len(got)
            assert all(same_value(x, y) for x, y in zip(want, got))

    @settings(max_examples=150, deadline=None)
    @given(_tables(), st.data())
    def test_select_equals_row_projection_with_types(self, table, data):
        rows, width = table
        batch = ColumnBatch.from_rows(rows, width) if width \
            else ColumnBatch([], num_rows=len(rows))
        # Any order, repeats allowed, possibly no column at all.
        chosen = data.draw(st.lists(st.integers(0, width - 1), max_size=6)
                           if width else st.just([]))
        expected = [tuple(r[i] for i in chosen) for r in rows]
        picked = batch.select(chosen)
        assert picked.num_columns == len(chosen)
        self._assert_rows(picked, expected)
        # Zero-copy: the very same Column objects, no row cache carried.
        assert all(picked.columns[j] is batch.columns[i]
                   for j, i in enumerate(chosen))
        # ... and it survives the pipe to a worker by value.
        self._assert_rows(pickle.loads(pickle.dumps(picked)), expected)
        # A slice of a selection is the selection of the slice.
        self._assert_rows(picked.slice(1, 7),
                          batch.slice(1, 7).select(chosen).to_rows())

    def test_select_shares_memory_with_the_source(self):
        rows = [(float(i), i, i % 2 == 0, None if i % 3 else float(i))
                for i in range(100)]
        batch = ColumnBatch.from_rows(rows, 4)
        picked = batch.select([3, 0]).slice(10, 60)
        assert np.shares_memory(picked.column(0).data, batch.column(3).data)
        assert np.shares_memory(picked.column(0).mask, batch.column(3).mask)
        assert np.shares_memory(picked.column(1).data, batch.column(0).data)
        assert picked.nbytes < batch.nbytes / 2

    def test_select_round_trips_through_shared_memory(self):
        from repro.engine.shm import (SharedColumnStore, leaked_segments,
                                      shared_memory_available)
        if not shared_memory_available():
            pytest.skip("shared memory not available")
        before = set(leaked_segments())
        rows = [(float(i), i, f"s{i}", None if i % 3 else float(i))
                for i in range(500)]
        batch = ColumnBatch.from_rows(rows, 4)
        batch.set_read_only()
        picked = batch.select([3, 2, 0]).slice(100, 400)
        store = SharedColumnStore(min_batch_bytes=0)
        try:
            (handle,), _ = store.export((picked,))
            blob = pickle.dumps(handle)
            assert store.stats()["handles_served"] == 1
            assert len(blob) < len(pickle.dumps(picked)) / 2
            self._assert_rows(
                pickle.loads(blob),
                [(r[3], r[2], r[0]) for r in rows[100:400]])
        finally:
            store.close()
        assert set(leaked_segments()) <= before


class TestEncodeNumericColumn:
    """The shared columnization point keeps the pinned semantics."""

    def test_nulls_become_nan_plus_mask(self):
        data, mask = encode_numeric_column([1.0, None, 3.0])
        assert mask.tolist() == [False, True, False]
        assert np.isnan(data[1])

    def test_nan_data_stays_unmasked(self):
        data, mask = encode_numeric_column([NAN, 2.0])
        assert mask.tolist() == [False, False]
        assert np.isnan(data[0])

    def test_non_numeric_refuses(self):
        assert encode_numeric_column(["a", 1.0]) is None

    def test_int_beyond_float64_exact_refuses(self):
        assert encode_numeric_column([2 ** 53 + 1]) is None

    def test_bools_and_exact_ints_encode(self):
        data, mask = encode_numeric_column([True, False, 2 ** 53])
        assert data.tolist() == [1.0, 0.0, float(2 ** 53)]
        assert not mask.any()
