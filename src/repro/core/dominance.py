"""Dominance testing between tuples (Definition 3.1 of the paper).

This module is the "new utility" of Section 5.5: it takes the values and
kinds of the skyline dimensions of two tuples and checks whether one
dominates the other.  It is deliberately free of any engine dependency so
the skyline algorithms in :mod:`repro.core` stay pure and testable.

Two semantics are provided:

* :func:`dominates` -- the classic definition for *complete* data
  (Definition 3.1): ``r`` dominates ``s`` iff all DIFF dimensions are
  equal, ``r`` is at least as good in every MIN/MAX dimension, and
  strictly better in at least one.

* :func:`dominates_incomplete` -- the null-restricted definition for
  *incomplete* data (Section 3): every comparison is restricted to the
  dimensions where *both* tuples are non-null.  This relation is not
  transitive and may contain cycles, which is why the global skyline of
  incomplete data needs the flag-based all-pairs algorithm
  (:mod:`repro.core.incomplete`).

**NaN and infinities (pinned semantics).**  Float special values follow
directly from the comparison-based definitions and are relied upon by
the vectorized kernels (:mod:`repro.core.vectorized`), so they are
contractual:

* A ``NaN`` value in a MIN/MAX dimension compares false in *both*
  directions, so that dimension neither blocks dominance nor counts as
  strictly better -- a NaN dimension carries *no information*, much
  like the null-restricted comparison skips a null dimension.  Unlike
  ``NULL``, ``NaN`` in a DIFF dimension is never equal to anything
  (``NaN != NaN``), so it blocks dominance there.
* ``+inf``/``-inf`` order normally (``-inf`` is the best MIN value and
  the worst MAX value).
* SFS presorting is unsound when monotone scores degenerate to NaN;
  :func:`repro.core.sfs.sfs_skyline` detects this and computes such
  inputs with BNL, keeping all kernels in agreement (regression-tested
  by ``tests/core/test_vectorized.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence


class DimensionKind(enum.Enum):
    """How a skyline dimension is optimized (Listing 3 of the paper)."""

    MIN = "MIN"
    MAX = "MAX"
    DIFF = "DIFF"

    @classmethod
    def of(cls, value: "DimensionKind | str") -> "DimensionKind":
        if isinstance(value, cls):
            return value
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(
                f"unknown skyline dimension kind {value!r}; "
                f"expected MIN, MAX or DIFF") from None


@dataclass(frozen=True)
class BoundDimension:
    """A skyline dimension bound to a tuple ordinal.

    ``index`` is the position of the dimension's value inside the row
    tuples handed to the comparators; ``kind`` says whether lower values
    win (MIN), higher values win (MAX), or values must match (DIFF).
    ``name``, the dimension as the query wrote it, only labels errors.
    """

    index: int
    kind: DimensionKind
    name: str = field(default="", compare=False)

    @property
    def is_diff(self) -> bool:
        return self.kind is DimensionKind.DIFF


@dataclass
class DominanceStats:
    """Counters for the cost analysis of Section 6.

    The paper identifies the number of dominance tests as the main cost
    factor of skyline computation; algorithms thread one of these through
    so benchmarks can report comparison counts alongside times.
    """

    comparisons: int = 0
    window_peak: int = 0

    def note_window(self, size: int) -> None:
        if size > self.window_peak:
            self.window_peak = size

    def merge(self, other: "DominanceStats") -> None:
        self.comparisons += other.comparisons
        if other.window_peak > self.window_peak:
            self.window_peak = other.window_peak


def dominates(r: Sequence, s: Sequence,
              dims: Sequence[BoundDimension]) -> bool:
    """True iff ``r`` dominates ``s`` under complete-data semantics.

    Assumes no nulls in the skyline dimensions; see
    :func:`dominates_incomplete` otherwise.  Comparisons are performed
    dimension by dimension in the given order, short-circuiting as soon as
    ``r`` is worse anywhere (the paper notes the dimension order can
    slightly influence dominance-check cost for exactly this reason).

    Equivalently: ``r`` dominates ``s`` iff ``not (rv > sv)`` holds on
    every MIN dimension (mirrored for MAX) and ``rv < sv`` on at least
    one -- the formulation the vectorized kernels use, which pins the
    NaN behaviour documented in the module docstring.
    """
    strictly_better = False
    for dim in dims:
        rv = r[dim.index]
        sv = s[dim.index]
        kind = dim.kind
        if kind is DimensionKind.DIFF:
            if rv != sv:
                return False
        elif kind is DimensionKind.MIN:
            if rv > sv:
                return False
            if rv < sv:
                strictly_better = True
        else:  # MAX
            if rv < sv:
                return False
            if rv > sv:
                strictly_better = True
    return strictly_better


def dominates_incomplete(r: Sequence, s: Sequence,
                         dims: Sequence[BoundDimension]) -> bool:
    """True iff ``r`` dominates ``s`` under incomplete-data semantics.

    Comparisons are restricted to the dimensions where both tuples are
    non-null (Section 3 of the paper, following [20]).  If no MIN/MAX
    dimension is comparable, ``r`` cannot dominate ``s``.
    """
    strictly_better = False
    for dim in dims:
        rv = r[dim.index]
        sv = s[dim.index]
        if rv is None or sv is None:
            continue
        kind = dim.kind
        if kind is DimensionKind.DIFF:
            if rv != sv:
                return False
        elif kind is DimensionKind.MIN:
            if rv > sv:
                return False
            if rv < sv:
                strictly_better = True
        else:  # MAX
            if rv < sv:
                return False
            if rv > sv:
                strictly_better = True
    return strictly_better


def null_bitmap(row: Sequence, dims: Sequence[BoundDimension]) -> int:
    """Bitmap index of null positions among the skyline dimensions.

    Bit ``i`` is set iff the row is null in the *i*-th skyline dimension.
    Rows with equal bitmaps have nulls in exactly the same dimensions, so
    dominance among them is transitive -- this is the partitioning key of
    the incomplete algorithm (Section 5.7).
    """
    bitmap = 0
    for i, dim in enumerate(dims):
        if row[dim.index] is None:
            bitmap |= 1 << i
    return bitmap


def equal_on_dimensions(r: Sequence, s: Sequence,
                        dims: Sequence[BoundDimension]) -> bool:
    """True if two rows agree on every skyline dimension.

    Used to implement ``SKYLINE OF DISTINCT``: of several tuples with
    identical skyline-dimension values only one (arbitrary) is kept.
    """
    return all(r[dim.index] == s[dim.index] for dim in dims)
