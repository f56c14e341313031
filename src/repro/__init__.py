"""repro: Integration of Skyline Queries into Spark SQL (EDBT 2023).

A pure-Python reproduction of Grasmann, Pichler & Selzer's skyline
integration: a Spark-SQL-like engine (parser, analyzer, Catalyst-style
optimizer, physical planner, simulated distributed execution) with the
skyline operator integrated into every pipeline stage, plus the
standalone skyline algorithm library, dataset generators, and the full
benchmark harness regenerating the paper's tables and figures.

Quickstart::

    import repro
    from repro import smin, smax

    session = repro.connect(num_executors=4)
    session.create_table(
        "hotels",
        [("name", STRING), ("price", DOUBLE), ("rating", DOUBLE)],
        [("A", 120.0, 4.5), ("B", 90.0, 4.0), ("C", 150.0, 3.0)])

    # SQL with the extended syntax (Listing 2 of the paper):
    best = session.sql(
        "SELECT name, price, rating FROM hotels "
        "SKYLINE OF price MIN, rating MAX").collect()

    # Or the DataFrame API (Section 5.8):
    best = session.table("hotels").skyline(
        smin("price"), smax("rating")).collect()
"""

from .api import (DataFrame, GroupedData, QueryResult, SessionConfig,
                  SkylineSession, connect)
from .core import (Algorithm, BoundDimension, DimensionKind, DominanceStats,
                   bnl_skyline, dominates, dominates_incomplete, skyline)
from .engine import (BACKEND_NAMES, BOOLEAN, DOUBLE, INTEGER, STRING, Backend,
                     ClusterConfig, Field, ForeignKey, LocalBackend,
                     ProcessBackend, Row, Schema, create_backend)
from .engine.functions import (avg, coalesce, col, count, ifnull, lit,
                               sdiff, smax, smin, sql_max, sql_min, sql_sum)
from .engine.faults import FaultPlan
from .errors import (AnalysisError, BenchmarkTimeout, ExecutionError,
                     ParseError, PlanningError, QueryTimeout, ReproError,
                     ServerOverloadedError, TaskError, WorkerCrashError)

__version__ = "1.1.0"

#: The stable public surface: ``repro.connect()`` is the supported
#: entry point; everything listed here keeps working across minor
#: versions (deprecated aliases emit ``DeprecationWarning`` first).
__all__ = [
    "Algorithm",
    "AnalysisError",
    "BenchmarkTimeout",
    "BOOLEAN",
    "BoundDimension",
    "ClusterConfig",
    "DOUBLE",
    "DataFrame",
    "DimensionKind",
    "DominanceStats",
    "ExecutionError",
    "FaultPlan",
    "Field",
    "ForeignKey",
    "GroupedData",
    "INTEGER",
    "ParseError",
    "PlanningError",
    "QueryResult",
    "QueryTimeout",
    "ReproError",
    "ServerOverloadedError",
    "TaskError",
    "WorkerCrashError",
    "Row",
    "STRING",
    "Schema",
    "SessionConfig",
    "SkylineSession",
    "avg",
    "bnl_skyline",
    "coalesce",
    "col",
    "connect",
    "count",
    "dominates",
    "dominates_incomplete",
    "ifnull",
    "lit",
    "sdiff",
    "skyline",
    "smax",
    "smin",
    "sql_max",
    "sql_min",
    "sql_sum",
]
