"""Multi-tenant async serving layer.

``python -m repro.serve`` boots a JSON-lines TCP endpoint over a shared
:class:`CatalogService`: one catalog and statistics store, one worker
pool per backend flavour, the catalog's plan cache, and the
dominance-aware :class:`SkylineResultCache` that answers
subset-preference skyline queries from cached supersets.  See
``docs/serving.md``.
"""

from .app import SkylineServer, Tenant
from .cache import (CacheableShape, CacheStats, SkylineResultCache,
                    cacheable_shape)
from .catalog import CatalogService
from .scheduler import AdmissionScheduler, SchedulerStats

__all__ = [
    "AdmissionScheduler",
    "CacheStats",
    "CacheableShape",
    "CatalogService",
    "SchedulerStats",
    "SkylineResultCache",
    "SkylineServer",
    "Tenant",
    "cacheable_shape",
]
