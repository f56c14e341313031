"""The engine substrate: types, rows, expressions, RDDs, cluster, catalog."""

from .backends import (BACKEND_NAMES, Backend, FaultStats, LocalBackend,
                       ProcessBackend, RetryPolicy, SharedBackend, StageTask,
                       create_backend)
from .batch import Column, ColumnBatch, encode_numeric_column
from .catalog import Catalog, CatalogEvent, ForeignKey, Table
from .cluster import ClusterConfig, ExecutionContext
from .faults import FaultPlan, InjectedFault, SimulatedWorkerCrash, activate
from .rdd import RDD, BatchRDD
from .row import Field, Row, Schema, infer_schema
from .types import (BOOLEAN, DOUBLE, INTEGER, STRING, BooleanType, DataType,
                    DoubleType, IntegerType, StringType, common_type,
                    infer_type, is_numeric, is_orderable)

__all__ = [
    "BACKEND_NAMES",
    "BOOLEAN",
    "Backend",
    "BatchRDD",
    "BooleanType",
    "Catalog",
    "CatalogEvent",
    "ClusterConfig",
    "Column",
    "ColumnBatch",
    "LocalBackend",
    "ProcessBackend",
    "SharedBackend",
    "StageTask",
    "create_backend",
    "DOUBLE",
    "DataType",
    "DoubleType",
    "ExecutionContext",
    "FaultPlan",
    "FaultStats",
    "Field",
    "ForeignKey",
    "InjectedFault",
    "RetryPolicy",
    "SimulatedWorkerCrash",
    "activate",
    "INTEGER",
    "IntegerType",
    "RDD",
    "Row",
    "STRING",
    "Schema",
    "StringType",
    "Table",
    "common_type",
    "encode_numeric_column",
    "infer_schema",
    "infer_type",
    "is_numeric",
    "is_orderable",
]
