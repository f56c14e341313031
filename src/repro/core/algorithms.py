"""The four evaluated skyline strategies as pure functions (Section 6.3).

These are the algorithm cores used by the physical skyline operators; the
engine adds data distribution, metrics and plan integration on top.  They
are also directly usable as a standalone library ("give me the skyline of
these tuples") without touching SQL at all.

1. ``distributed_complete``    -- local BNL per partition, then global BNL
                                  over the union (Section 5.6).
2. ``non_distributed_complete``-- skip local skylines, single global BNL.
3. ``distributed_incomplete``  -- null-bitmap-partitioned local BNL, then
                                  flag-based all-pairs global (Section 5.7).
4. ``reference``               -- semantics of the plain-SQL NOT EXISTS
                                  rewrite (Listing 4): naive all-pairs.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from .bnl import bnl_skyline
from .dominance import (BoundDimension, DimensionKind, DominanceStats,
                        dominates, dominates_incomplete,
                        equal_on_dimensions)
from .incomplete import flagged_global_skyline, local_skylines_incomplete
from .sfs import sfs_skyline


class Algorithm(enum.Enum):
    """The algorithms compared in the paper's evaluation (Section 6.3)."""

    DISTRIBUTED_COMPLETE = "distributed complete"
    NON_DISTRIBUTED_COMPLETE = "non-distributed complete"
    DISTRIBUTED_INCOMPLETE = "distributed incomplete"
    REFERENCE = "reference"

    @classmethod
    def of(cls, value: "Algorithm | str") -> "Algorithm":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value or member.name == value.upper():
                return member
        raise ValueError(f"unknown algorithm {value!r}")


def make_dimensions(specs: Sequence[tuple[int, "DimensionKind | str"]]
                    ) -> list[BoundDimension]:
    """Convenience: ``[(index, 'min'), (index, 'max'), ...]`` to bound dims."""
    return [BoundDimension(index, DimensionKind.of(kind))
            for index, kind in specs]


def distributed_complete(partitions: Sequence[Sequence[Sequence]],
                         dims: Sequence[BoundDimension],
                         distinct: bool = False,
                         stats: DominanceStats | None = None,
                         check_deadline: Callable[[], None] | None = None
                         ) -> list[Sequence]:
    """Local BNL skyline per partition, global BNL over the union.

    The flagship algorithm: local skylines run in parallel (one task per
    partition), the global pass sees only the surviving tuples.
    """
    local_union: list[Sequence] = []
    for partition in partitions:
        local_union.extend(
            bnl_skyline(partition, dims, distinct=distinct, stats=stats,
                        check_deadline=check_deadline))
    return bnl_skyline(local_union, dims, distinct=distinct, stats=stats,
                       check_deadline=check_deadline)


def non_distributed_complete(partitions: Sequence[Sequence[Sequence]],
                             dims: Sequence[BoundDimension],
                             distinct: bool = False,
                             stats: DominanceStats | None = None,
                             check_deadline: Callable[[], None] | None = None
                             ) -> list[Sequence]:
    """Single global BNL over all tuples; gives up on parallelism."""
    rows: list[Sequence] = []
    for partition in partitions:
        rows.extend(partition)
    return bnl_skyline(rows, dims, distinct=distinct, stats=stats,
                       check_deadline=check_deadline)


def distributed_incomplete(partitions: Sequence[Sequence[Sequence]],
                           dims: Sequence[BoundDimension],
                           distinct: bool = False,
                           stats: DominanceStats | None = None,
                           check_deadline: Callable[[], None] | None = None
                           ) -> list[Sequence]:
    """Null-bitmap local skylines, flag-based all-pairs global skyline.

    Correct for incomplete data (and trivially for complete data, where
    it degenerates to a single partition and loses all parallelism --
    the behaviour Section 6.6 warns about).
    """
    rows: list[Sequence] = []
    for partition in partitions:
        rows.extend(partition)
    local = local_skylines_incomplete(rows, dims, distinct=False,
                                      stats=stats,
                                      check_deadline=check_deadline)
    return flagged_global_skyline(local, dims, distinct=distinct,
                                  stats=stats,
                                  check_deadline=check_deadline)


def reference(partitions: Sequence[Sequence[Sequence]],
              dims: Sequence[BoundDimension],
              distinct: bool = False,
              stats: DominanceStats | None = None,
              complete: bool = True,
              check_deadline: Callable[[], None] | None = None
              ) -> list[Sequence]:
    """Semantics of the plain-SQL NOT EXISTS rewrite (Listing 4).

    For every outer tuple, scan the whole relation for a dominating inner
    tuple -- the quadratic anti-join plan Spark derives from the rewritten
    query.  Serves as both the baseline algorithm and the correctness
    oracle.  Note the rewrite never applies DISTINCT semantics unless the
    caller adds them, matching the plain-SQL formulation.
    """
    rows: list[Sequence] = []
    for partition in partitions:
        rows.extend(partition)
    test = dominates if complete else dominates_incomplete
    comparisons = 0
    result: list[Sequence] = []
    for i, outer in enumerate(rows):
        if check_deadline is not None and i % 64 == 0:
            check_deadline()
        is_dominated = False
        for inner in rows:
            comparisons += 1
            if test(inner, outer, dims):
                is_dominated = True
                break
        if not is_dominated:
            result.append(outer)
    if stats is not None:
        stats.comparisons += comparisons
        stats.note_window(len(rows))
    if distinct:
        deduped: list[Sequence] = []
        for row in result:
            if not any(equal_on_dimensions(row, kept, dims)
                       for kept in deduped):
                deduped.append(row)
        result = deduped
    return result


def skyline(rows: Sequence[Sequence], dims: Sequence[BoundDimension],
            distinct: bool = False, complete: bool = True,
            algorithm: "Algorithm | str" = Algorithm.DISTRIBUTED_COMPLETE,
            num_partitions: int = 1,
            stats: DominanceStats | None = None) -> list[Sequence]:
    """One-call skyline over a flat list of tuples.

    The friendly front door of the algorithm library: pick an algorithm,
    optionally a partition count (for the distributed variants), and get
    the skyline back.  ``complete=False`` forces null-aware semantics for
    the reference algorithm; the incomplete algorithm is always null-aware.
    """
    algorithm = Algorithm.of(algorithm)
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    rows = list(rows)
    if num_partitions == 1:
        partitions: list[list[Sequence]] = [rows]
    else:
        size, extra = divmod(len(rows), num_partitions)
        partitions = []
        start = 0
        for i in range(num_partitions):
            end = start + size + (1 if i < extra else 0)
            partitions.append(rows[start:end])
            start = end
    if algorithm is Algorithm.DISTRIBUTED_COMPLETE:
        return distributed_complete(partitions, dims, distinct, stats)
    if algorithm is Algorithm.NON_DISTRIBUTED_COMPLETE:
        return non_distributed_complete(partitions, dims, distinct, stats)
    if algorithm is Algorithm.DISTRIBUTED_INCOMPLETE:
        return distributed_incomplete(partitions, dims, distinct, stats)
    return reference(partitions, dims, distinct, stats, complete=complete)


def sfs_complete(partitions: Sequence[Sequence[Sequence]],
                 dims: Sequence[BoundDimension],
                 distinct: bool = False,
                 stats: DominanceStats | None = None,
                 check_deadline: Callable[[], None] | None = None
                 ) -> list[Sequence]:
    """Distributed SFS: local SFS per partition, global SFS over the union.

    The sorting-based alternative the paper defers to future work;
    benchmarked in the ablation suite.
    """
    local_union: list[Sequence] = []
    for partition in partitions:
        local_union.extend(sfs_skyline(partition, dims, distinct=distinct,
                                       stats=stats,
                                       check_deadline=check_deadline))
    return sfs_skyline(local_union, dims, distinct=distinct, stats=stats,
                       check_deadline=check_deadline)
