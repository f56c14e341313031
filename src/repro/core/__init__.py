"""Skyline algorithms -- the paper's core contribution, SQL-free.

Everything here operates on plain Python tuples (or column batches) and
:class:`~repro.core.dominance.BoundDimension` descriptors, so the
algorithms are usable (and tested) without the SQL layer that
integrates them; :func:`skyline` runs the very kernels the engine's
skyline operators run.
"""

from .algorithms import Algorithm, make_dimensions, reference, skyline
from .bnl import bnl_skyline
from .dominance import (BoundDimension, DimensionKind, DominanceStats,
                        dominates, dominates_incomplete,
                        equal_on_dimensions, has_null_dimension,
                        null_bitmap)
from .incomplete import flagged_global_skyline, gulzar_global_skyline
from .sfs import monotone_score, sfs_skyline
from .vectorized import columnize

__all__ = [
    "Algorithm",
    "BoundDimension",
    "DimensionKind",
    "DominanceStats",
    "bnl_skyline",
    "columnize",
    "dominates",
    "dominates_incomplete",
    "equal_on_dimensions",
    "flagged_global_skyline",
    "gulzar_global_skyline",
    "has_null_dimension",
    "make_dimensions",
    "monotone_score",
    "null_bitmap",
    "reference",
    "sfs_skyline",
    "skyline",
]
