"""Resilient-distributed-dataset stand-in.

An :class:`RDD` here is simply a list of partitions (each a list of row
tuples).  It supports the narrow and wide transformations the physical
operators need: per-partition mapping, filtering, hash repartitioning,
key-based repartitioning (used for the null-bitmap distribution of the
incomplete skyline algorithm) and coalescing to a single partition (the
``AllTuples`` distribution required by the global skyline node).

Unlike Spark, transformations are eager -- the laziness/lineage machinery
is irrelevant to the behaviours this reproduction studies; the *partition
structure*, which drives both parallelism and the local/global skyline
split, is faithfully preserved.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Iterable, Iterator, Sequence

from .batch import ColumnBatch


def _canonical_key(key: Any) -> Any:
    """Collapse numerically equal keys onto one representative.

    The builtin ``hash()`` guarantees ``hash(x) == hash(y)`` whenever
    ``x == y`` across int/float/bool; a ``repr``-based encoding must
    replicate that so equal keys still co-locate: bools become ints,
    and integral floats (every float ``v`` with ``v.is_integer()``
    converts to int exactly) become ints -- ``1``, ``1.0`` and ``True``
    all hash alike, as does ``2.0**60`` with ``2**60``.
    """
    if isinstance(key, tuple):
        return tuple(_canonical_key(k) for k in key)
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    return key


def stable_hash(key: Any) -> int:
    """A process- and run-stable hash for shuffle placement.

    The builtin ``hash()`` is randomised per process for strings
    (``PYTHONHASHSEED``), so hash-partitioning with it places rows
    differently across runs and across the driver and pool workers.
    CRC32 over a canonical ``repr`` encoding is deterministic
    everywhere: ``repr`` of the supported key types (ints, floats,
    strings, bools, None, and tuples of them) is itself deterministic
    across processes and Python versions, and numerically equal keys
    are canonicalised first so they keep co-locating like they did
    under ``hash()``.
    """
    return zlib.crc32(repr(_canonical_key(key)).encode("utf-8"))


def partition_bounds(num_rows: int, num_partitions: int
                     ) -> list[tuple[int, int]]:
    """``(start, stop)`` of each partition of the even contiguous scan
    split: :meth:`RDD.from_rows` cuts row lists here and the columnar
    scans slice a table's resident :class:`ColumnBatch` at the same."""
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

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[tuple],
                  num_partitions: int = 1) -> "RDD":
        """Distribute ``rows`` round-robin-in-chunks over partitions.

        Mirrors Spark's default behaviour of splitting the input evenly
        across the available parallelism ("if there are 10 executors for
        10,000,000 tuples, each executor will receive roughly 1 million
        tuples each" -- Section 5.5).
        """
        rows = list(rows)
        return cls([rows[start:stop] for start, stop
                    in partition_bounds(len(rows), num_partitions)])

    @classmethod
    def empty(cls, num_partitions: int = 1) -> "RDD":
        return cls([[] for _ in range(max(1, num_partitions))])

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

    # -- narrow transformations -----------------------------------------

    def map_partitions(self, fn: Callable[[list[tuple]], list[tuple]]
                       ) -> "RDD":
        return RDD([fn(p) for p in self.partitions])

    def map_rows(self, fn: Callable[[tuple], tuple]) -> "RDD":
        return RDD([[fn(row) for row in p] for p in self.partitions])

    def filter_rows(self, predicate: Callable[[tuple], bool]) -> "RDD":
        return RDD([[row for row in p if predicate(row)]
                    for p in self.partitions])

    # -- wide transformations (shuffles) ----------------------------------

    def coalesce_to_one(self) -> "RDD":
        """The ``AllTuples`` distribution: everything on one partition.

        The global skyline node "must ensure that all tuples from the
        local skyline are handled by the same executor" (Section 5.5).
        """
        return RDD([self.collect()])

    def repartition(self, num_partitions: int) -> "RDD":
        """Round-robin shuffle into ``num_partitions`` partitions."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        return RDD.from_rows(self.collect(), num_partitions)

    def partition_by_key(self, key_fn: Callable[[tuple], Any]) -> "RDD":
        """One partition per distinct key, in first-seen key order.

        Used for the null-bitmap distribution of the incomplete skyline
        algorithm (Section 5.7): all tuples with the same bitmap of null
        skyline dimensions land in the same partition.
        """
        groups: dict[Any, list[tuple]] = {}
        for row in self.iter_rows():
            groups.setdefault(key_fn(row), []).append(row)
        if not groups:
            return RDD([[]])
        return RDD(list(groups.values()))

    def hash_partition(self, key_fn: Callable[[tuple], Any],
                       num_partitions: int) -> "RDD":
        """Hash shuffle by key into a fixed number of partitions."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        partitions: list[list[tuple]] = [[] for _ in range(num_partitions)]
        for row in self.iter_rows():
            partitions[stable_hash(key_fn(row)) % num_partitions].append(row)
        return RDD(partitions)

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

    # -- wide transformations (shuffles) ----------------------------------

    def take_partitions(self, index_lists: "Sequence[Sequence[int]]"
                        ) -> "BatchRDD":
        """Batch-native shuffle: slice the concatenated collection into
        one partition per index list (indices are positions in
        row-iteration order).  An empty shuffle keeps the schema by
        taking zero rows instead of degrading to an untyped batch."""
        merged = self.concat()
        if not index_lists:
            return BatchRDD([merged.take([])])
        return BatchRDD([merged.take(list(ix)) for ix in index_lists])

    def hash_partition(self, key_fn: Callable[[tuple], Any],
                       num_partitions: int) -> "BatchRDD":
        """Hash shuffle by key, placing rows exactly like
        :meth:`RDD.hash_partition` (same crc32 ``stable_hash``) while
        moving only column slices, never materialised partitions."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        merged = self.concat()
        index_lists: list[list[int]] = [[] for _ in range(num_partitions)]
        for i, row in enumerate(merged.iter_rows()):
            index_lists[stable_hash(key_fn(row)) % num_partitions].append(i)
        return BatchRDD([merged.take(ix) for ix in index_lists])

    def __repr__(self) -> str:
        return f"BatchRDD(partitions={self.partition_sizes()})"
