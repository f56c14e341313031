"""The evaluated skyline strategies as a library (Section 6.3).

:data:`STRATEGY_MODES` is the one place that says what each strategy
runs: the :func:`~repro.core.vectorized.skyline_task` mode of its local
node and of its ``AllTuples`` global node (Sections 5.5-5.7).  The
planner lowers a skyline operator through it (Listing 8), and
:func:`skyline` runs the same two phases over a flat list of tuples,
without the SQL engine:

1. ``distributed-complete``     -- local BNL per partition, then global
                                   BNL over the union (Section 5.6).
2. ``non-distributed-complete`` -- skip local skylines, single global BNL.
3. ``distributed-incomplete``   -- null-bitmap-partitioned local BNL,
                                   then flag-based all-pairs global
                                   (Section 5.7).
4. ``sfs``                      -- Sort-Filter-Skyline in both phases
                                   (the sorting-based future work).

:func:`reference` is the semantics of the plain-SQL NOT EXISTS rewrite
(Listing 4): naive all-pairs, the baseline and the oracle.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from ..engine.rdd import partition_bounds
from .dominance import (BoundDimension, DimensionKind, DominanceStats,
                        dominates, dominates_incomplete,
                        equal_on_dimensions)
from .vectorized import pack_by_null_bitmap, skyline_task

#: Strategy -> (local mode, global mode), both keys of
#: :data:`repro.core.vectorized.SKYLINE_MODES`; ``None`` runs no local
#: phase.
STRATEGY_MODES: dict[str, tuple[str | None, str]] = {
    "distributed-complete": ("complete", "complete"),
    "non-distributed-complete": (None, "complete"),
    "distributed-incomplete": ("bitmap-local", "flagged"),
    "sfs": ("sfs", "sfs"),
}


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

    @property
    def strategy(self) -> "str | None":
        """The :data:`STRATEGY_MODES` key (the ``skyline_algorithm=``
        session option) that runs this algorithm; ``None`` for the
        reference, which is a plain-SQL rewrite, not a strategy."""
        if self is Algorithm.REFERENCE:
            return None
        return self.value.replace(" ", "-")


def make_dimensions(specs: Sequence[tuple[int, "DimensionKind | str"]]
                    ) -> list[BoundDimension]:
    """Convenience: ``[(index, 'min'), (index, 'max'), ...]`` to bound dims."""
    return [BoundDimension(index, DimensionKind.of(kind))
            for index, kind in specs]


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

    Runs the strategy's two phases with the engine's scalar kernels:
    the rows are cut into ``num_partitions`` contiguous slices as a scan
    cuts a table, each slice's local skyline is taken (the
    ``bitmap-local`` phase packs whole null-bitmap groups into at most
    ``num_partitions`` slices first, as ``SkylineLocalExec`` does), and
    one global task reduces their union.  The answer is the list a
    ``vectorized=False, columnar=False`` session with
    ``num_executors=num_partitions`` returns.  A complete strategy over a NULL MIN/MAX value raises
    :class:`~repro.errors.ExecutionError`; ``complete=False`` only
    switches the reference to null-aware dominance.
    """
    algorithm = Algorithm.of(algorithm)
    rows = list(rows)
    # Cut first: it also rejects ``num_partitions < 1`` for the reference.
    bounds = partition_bounds(len(rows), num_partitions)
    if algorithm is Algorithm.REFERENCE:
        return reference([rows], dims, distinct, stats, complete=complete)
    local_mode, global_mode = STRATEGY_MODES[algorithm.strategy]
    if local_mode is not None:
        partitions = [rows[start:stop] for start, stop in bounds]
        if local_mode == "bitmap-local":
            partitions = pack_by_null_bitmap(partitions, dims,
                                             num_partitions)
        rows = [row for partition in partitions for row in skyline_task(
            partition, dims, local_mode, distinct, vectorized=False,
            stats=stats)[0]]
    return skyline_task(rows, dims, global_mode, distinct, vectorized=False,
                        stats=stats)[0]
