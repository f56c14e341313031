"""Skyline algorithms -- the paper's core contribution, engine-free.

Everything here operates on plain Python tuples and
:class:`~repro.core.dominance.BoundDimension` descriptors, so the
algorithms are usable (and tested) independently of the SQL engine that
integrates them.
"""

from .algorithms import (Algorithm, distributed_complete,
                         distributed_incomplete, make_dimensions,
                         non_distributed_complete, reference, sfs_complete,
                         skyline)
from .bnl import bnl_skyline
from .dominance import (BoundDimension, DimensionKind, DominanceStats,
                        compare, dominates, dominates_incomplete,
                        equal_on_dimensions, has_null_dimension,
                        null_bitmap)
from .incomplete import (flagged_global_skyline, gulzar_global_skyline,
                         local_skylines_incomplete,
                         partition_by_null_bitmap)
from .sfs import monotone_score, sfs_skyline
from .vectorized import (columnize, vec_bnl_skyline,
                         vec_flagged_global_skyline, vec_sfs_skyline)

__all__ = [
    "Algorithm",
    "BoundDimension",
    "DimensionKind",
    "DominanceStats",
    "bnl_skyline",
    "columnize",
    "compare",
    "distributed_complete",
    "distributed_incomplete",
    "dominates",
    "dominates_incomplete",
    "equal_on_dimensions",
    "flagged_global_skyline",
    "gulzar_global_skyline",
    "has_null_dimension",
    "local_skylines_incomplete",
    "make_dimensions",
    "monotone_score",
    "non_distributed_complete",
    "null_bitmap",
    "partition_by_null_bitmap",
    "reference",
    "sfs_complete",
    "sfs_skyline",
    "skyline",
    "vec_bnl_skyline",
    "vec_flagged_global_skyline",
    "vec_sfs_skyline",
]
