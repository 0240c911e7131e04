"""A-Store: virtual denormalization via array index reference for
main-memory OLAP — a full reproduction of Zhang et al. (ICDE/TKDE 2016).

Quickstart::

    from repro import AStoreEngine, generate_ssb

    db = generate_ssb(sf=0.01)          # seeded SSB data, AIR-loaded
    engine = AStoreEngine(db)
    result = engine.query(
        "SELECT d_year, sum(lo_revenue) AS revenue "
        "FROM lineorder, date WHERE lo_orderdate = d_datekey "
        "AND d_year >= 1993 GROUP BY d_year ORDER BY d_year"
    )
    for row in result.to_dicts():
        print(row)
"""

from .core import (
    AIRColumn,
    Bitmap,
    Column,
    Database,
    DataType,
    DictColumn,
    Dictionary,
    FixedColumn,
    Reference,
    SelectionVector,
    StringColumn,
    Table,
)
from .core.statistics import collect_statistics, validate_references
from .datagen import generate_ssb, generate_tpch
from .io import dump_csv, load_csv, load_database, save_database
from .engine import AStoreEngine, EngineOptions, ExecutionStats, QueryResult, VARIANTS
from .errors import (
    AStoreError,
    BindError,
    ExecutionError,
    ParseError,
    PlanError,
    SchemaError,
    StorageError,
    UpdateError,
)
from .plan import CacheModel, LogicalPlan, PhysicalPlan, bind, optimize
from .sqlparser import parse

__version__ = "1.0.0"

__all__ = [
    "AIRColumn", "AStoreEngine", "AStoreError", "bind", "BindError",
    "Bitmap", "CacheModel", "Column", "Database", "DataType", "DictColumn",
    "Dictionary", "EngineOptions", "ExecutionError", "ExecutionStats",
    "FixedColumn", "generate_ssb", "generate_tpch",
    "load_csv", "load_database", "LogicalPlan", "optimize", "parse", "ParseError", "PhysicalPlan",
    "PlanError", "QueryResult", "Reference", "SchemaError",
    "save_database", "SelectionVector", "StorageError", "StringColumn", "Table",
    "UpdateError", "validate_references", "VARIANTS",
]
