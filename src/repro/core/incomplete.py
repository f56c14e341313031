"""Skyline computation for incomplete (null-containing) data.

Section 5.7 and Appendix A of the paper.  With nulls, dominance loses
transitivity and may be cyclic (``a ≺ b ≺ c ≺ a``), so two adaptations
are required:

* **Local skylines** are only computed inside *null-bitmap groups*: all
  tuples with nulls in exactly the same skyline dimensions, where
  dominance is again transitive and plain BNL is safe (Lemma 5.1
  proves no global-skyline answer is lost this way) -- the
  ``bitmap-local`` mode of :func:`repro.core.vectorized.skyline_task`,
  whose scalar reference is :func:`bitmap_local_skyline`.

* The **global skyline** must not delete dominated tuples prematurely: a
  dominated tuple may be the only witness against another tuple.  The
  paper's fix is flag-based all-pairs testing -- mark dominated tuples,
  delete only after *all* pairs were examined.

For regression purposes this module also contains
:func:`gulzar_global_skyline`, the *incorrect* cluster-ordered algorithm
of Gulzar et al. [20] whose counterexample (Appendix A) our tests verify.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .bnl import bnl_skyline
from .dominance import (BoundDimension, DominanceStats,
                        dominates_incomplete, equal_on_dimensions)


def bitmap_local_skyline(rows: Sequence[Sequence],
                         dims: Sequence[BoundDimension],
                         distinct: bool = False,
                         stats: DominanceStats | None = None,
                         check_deadline: Callable[[], None] | None = None
                         ) -> list[Sequence]:
    """The local skyline of one ``bitmap-local`` task (Section 5.7):
    BNL under the null-restricted test once per group of rows null in
    the same skyline dimensions, among which the test is transitive;
    the union of the groups' skylines, in input order.

    A NaN compares like a null, so it counts as one here: one window
    over a NaN row and the numbers of its null bitmap can drop the only
    witness against a row of another group (Lemma 5.1 needs a surviving
    dominator).
    """
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(tuple(row[d.index] is None
                                or row[d.index] != row[d.index]
                                for d in dims), []).append(i)
    kept: list[int] = []
    for positions in groups.values():
        survivors = iter(bnl_skyline(
            [rows[i] for i in positions], dims, distinct, stats,
            dominates_incomplete, check_deadline))
        # BNL's window keeps its rows in input order: a subsequence.
        survivor = next(survivors, None)
        for i in positions:
            if rows[i] is survivor:
                kept.append(i)
                survivor = next(survivors, None)
    return [rows[i] for i in sorted(kept)]


def flagged_global_skyline(rows: Sequence[Sequence],
                           dims: Sequence[BoundDimension],
                           distinct: bool = False,
                           stats: DominanceStats | None = None,
                           check_deadline: Callable[[], None] | None = None
                           ) -> list[Sequence]:
    """Correct global skyline under cyclic dominance (Section 5.7).

    Compares all pairs, *flags* dominated tuples, and deletes flagged
    tuples only once every pair has been examined.  Even a dominated
    tuple keeps eliminating others -- this is exactly what the algorithm
    of [20] misses (see :func:`gulzar_global_skyline`).
    """
    rows = list(rows)
    n = len(rows)
    dominated = [False] * n
    comparisons = 0
    for i in range(n):
        if check_deadline is not None and i % 64 == 0:
            check_deadline()
        for j in range(i + 1, n):
            comparisons += 1
            if dominates_incomplete(rows[i], rows[j], dims):
                dominated[j] = True
            comparisons += 1
            if dominates_incomplete(rows[j], rows[i], dims):
                dominated[i] = True
    if stats is not None:
        stats.comparisons += comparisons
        stats.note_window(n)
    survivors = [row for row, flag in zip(rows, dominated) if not flag]
    if distinct:
        survivors = _drop_skyline_duplicates(survivors, dims)
    return survivors


def _drop_skyline_duplicates(rows: list[Sequence],
                             dims: Sequence[BoundDimension]
                             ) -> list[Sequence]:
    """Keep one arbitrary representative per skyline-dimension value set."""
    kept: list[Sequence] = []
    for row in rows:
        if not any(equal_on_dimensions(row, other, dims) for other in kept):
            kept.append(row)
    return kept


def gulzar_global_skyline(clusters: Sequence[Sequence[Sequence]],
                          dims: Sequence[BoundDimension]
                          ) -> list[Sequence]:
    """The *incorrect* global skyline of Gulzar et al. [20] (Appendix A).

    Visits clusters in order; for the current point ``p`` it compares
    against all not-yet-deleted points of *subsequent* clusters, deleting
    points ``p`` dominates immediately and flagging ``p`` when dominated.
    Premature deletion loses witnesses under cyclic dominance: on the
    counterexample ``a=(1,*,10), b=(3,2,*), c=(*,5,3)`` (all MIN) it
    wrongly returns ``[c]`` although the true skyline is empty.

    Provided *only* to document and test the bug; never used by the
    engine.
    """
    remaining: list[list[Sequence]] = [list(c) for c in clusters]
    for i, cluster in enumerate(remaining):
        survivors_i: list[Sequence] = []
        for p in cluster:
            p_dominated = False
            for j in range(i + 1, len(remaining)):
                survivors_j: list[Sequence] = []
                for q in remaining[j]:
                    if dominates_incomplete(p, q, dims):
                        continue  # premature deletion -- the bug
                    if dominates_incomplete(q, p, dims):
                        p_dominated = True
                    survivors_j.append(q)
                remaining[j] = survivors_j
            if not p_dominated:
                survivors_i.append(p)
        remaining[i] = survivors_i
    result: list[Sequence] = []
    for cluster in remaining:
        result.extend(cluster)
    return result
