"""Resilient-distributed-dataset stand-in.

An :class:`RDD` here is simply a list of partitions (each a list of row
tuples), and a :class:`BatchRDD` one :class:`ColumnBatch` per partition.
Both only hold and inspect partitions: the operators in
:mod:`repro.plan.physical` build new ones stage by stage, including the
two distributions of the skyline operator -- ``AllTuples`` for the
global skyline (``SkylineGlobalExec``, Section 5.5) and the null-bitmap
partitioning of the incomplete algorithm, whole bitmap groups packed
into at most ``default_parallelism`` partitions
(``core.vectorized.pack_by_null_bitmap``, Section 5.7).

Unlike Spark, there is no laziness or lineage -- that machinery is
irrelevant to the behaviours this reproduction studies; the *partition
structure*, which drives both parallelism and the local/global skyline
split, is faithfully preserved.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .batch import ColumnBatch


def partition_bounds(num_rows: int, num_partitions: int
                     ) -> list[tuple[int, int]]:
    """``(start, stop)`` of each partition of the even contiguous scan
    split, as Spark spreads an input over the available parallelism
    (Section 5.5): the row scans cut row lists here, the columnar scans
    slice a table's resident :class:`ColumnBatch` at the same bounds
    and :func:`repro.core.skyline` partitions its input alike."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    size, extra = divmod(num_rows, num_partitions)
    bounds = []
    start = 0
    for i in range(num_partitions):
        stop = start + size + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class RDD:
    """A partitioned collection of row tuples."""

    __slots__ = ("partitions",)

    def __init__(self, partitions: Sequence[list[tuple]]) -> None:
        self.partitions: list[list[tuple]] = [list(p) for p in partitions]

    # -- inspection ------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def count(self) -> int:
        return sum(len(p) for p in self.partitions)

    def collect(self) -> list[tuple]:
        result: list[tuple] = []
        for partition in self.partitions:
            result.extend(partition)
        return result

    def iter_rows(self) -> Iterator[tuple]:
        for partition in self.partitions:
            yield from partition

    def partition_sizes(self) -> list[int]:
        return [len(p) for p in self.partitions]

    def __repr__(self) -> str:
        return f"RDD(partitions={self.partition_sizes()})"


class BatchRDD:
    """A partitioned collection of :class:`ColumnBatch`es.

    The columnar twin of :class:`RDD`: one batch per partition, used by
    the batch data plane (scan, filter, project, join, aggregate,
    skyline) when the session's ``columnar`` flag is on.  Mirrors the
    RDD inspection API so the execution context's metrics recording
    works unchanged, and converts losslessly to a row RDD for operators
    that stay row-oriented (sorts, nested-loop joins).
    """

    __slots__ = ("batches",)

    def __init__(self, batches: Sequence[ColumnBatch]) -> None:
        self.batches: list[ColumnBatch] = list(batches)

    # -- inspection ------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self.batches)

    def count(self) -> int:
        return sum(b.num_rows for b in self.batches)

    def partition_sizes(self) -> list[int]:
        return [b.num_rows for b in self.batches]

    def collect(self) -> list[tuple]:
        result: list[tuple] = []
        for batch in self.batches:
            result.extend(batch.to_rows())
        return result

    # -- conversion ------------------------------------------------------

    def to_row_rdd(self) -> RDD:
        """The same partitions as row lists (exact round-trip)."""
        return RDD([batch.to_rows() for batch in self.batches])

    def concat(self) -> ColumnBatch:
        """All partitions merged into one batch (``AllTuples``)."""
        if not self.batches:
            raise ValueError("cannot concat an empty BatchRDD")
        return ColumnBatch.concat(self.batches)

    def __repr__(self) -> str:
        return f"BatchRDD(partitions={self.partition_sizes()})"
