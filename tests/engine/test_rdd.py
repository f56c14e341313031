"""RDD and BatchRDD partitioning semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import ColumnBatch
from repro.engine.rdd import RDD, BatchRDD, partition_bounds


def _split(rows, k):
    return [rows[start:stop] for start, stop in partition_bounds(len(rows), k)]


class TestConstruction:
    def test_splits_evenly(self):
        assert partition_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_partition(self):
        assert partition_bounds(2, 1) == [(0, 2)]

    def test_more_partitions_than_rows(self):
        assert partition_bounds(1, 4) == [(0, 1), (1, 1), (1, 1), (1, 1)]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_bounds(0, 0)

    @given(st.lists(st.tuples(st.integers()), max_size=50),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_split_preserves_order_and_content(self, rows, k):
        assert RDD(_split(rows, k)).collect() == rows


class TestPartitionBounds:
    @given(st.integers(0, 200), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_bounds_tile_the_rows_evenly(self, num_rows, k):
        bounds = partition_bounds(num_rows, k)
        assert len(bounds) == k
        assert bounds[0][0] == 0 and bounds[-1][1] == num_rows
        assert all(stop == start for (_, stop), (start, _)
                   in zip(bounds, bounds[1:]))
        sizes = [stop - start for start, stop in bounds]
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            partition_bounds(5, 0)


class TestBatchRDD:
    ROWS = [(float(i % 7), i, None if i % 5 else "x") for i in range(20)]

    def _pair(self):
        rdd = RDD(_split(self.ROWS, 3))
        return rdd, BatchRDD([ColumnBatch.from_rows(p, 3)
                              for p in rdd.partitions])

    def test_mirrors_the_row_rdd(self):
        rdd, batches = self._pair()
        assert batches.num_partitions == rdd.num_partitions
        assert batches.partition_sizes() == rdd.partition_sizes()
        assert batches.count() == rdd.count()
        assert batches.collect() == rdd.collect()
        assert batches.to_row_rdd().partitions == rdd.partitions

    def test_concat_is_alltuples(self):
        rdd, batches = self._pair()
        assert batches.concat().to_rows() == rdd.collect()

    def test_concat_of_no_partitions_raises(self):
        with pytest.raises(ValueError, match="empty"):
            BatchRDD([]).concat()
