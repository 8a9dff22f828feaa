"""Hierarchical grid spatial index for 2D point records.

Core flow: wrap points in a PointCollection (or any IndexableSource),
build a GridIndex or HierGridIndex over it, then call nearest() and
range_query(). The sweep module rasterizes query cost over a lattice for
benchmarking, and the bruteforce module provides the reference answers
everything is tested against.
"""
from .geometry import (
    BinCoord,
    Extents,
    GridShape,
    Point2D,
    bounding_extents,
    default_smallest_dimension,
    dist_sq,
    neighborhood,
    resolve_bin,
)
from .sources import (
    EmptySourceError,
    IndexableSource,
    PointCollection,
    Record,
    RecordId,
    SubGridSource,
    load_points,
    save_points,
)
from .gridindex import (
    BinList,
    FilledGrid,
    GridIndex,
    OutsideExtentsError,
    QueryResult,
    RenderedGrid,
)
from .hierarchy import HierConfig, HierGridIndex
from .bruteforce import (
    BruteForceIndex,
    OracleResult,
    QuadLeaf,
    oracle_quadtree,
)
from .datasets import DEFAULT_EXTENTS, gaussian_points, uniform_points
from .pgm import pgm_bytes, write_pgm
from .sweep import (
    CostField,
    MatchReport,
    SweepStats,
    colorize,
    match_battery,
    range_battery,
    summarize,
    sweep_cost,
)

__version__ = "0.1.0"

__all__ = [
    "BinCoord",
    "BinList",
    "BruteForceIndex",
    "CostField",
    "DEFAULT_EXTENTS",
    "EmptySourceError",
    "Extents",
    "FilledGrid",
    "GridIndex",
    "GridShape",
    "HierConfig",
    "HierGridIndex",
    "IndexableSource",
    "MatchReport",
    "OracleResult",
    "OutsideExtentsError",
    "Point2D",
    "PointCollection",
    "QuadLeaf",
    "QueryResult",
    "Record",
    "RecordId",
    "RenderedGrid",
    "SubGridSource",
    "SweepStats",
    "bounding_extents",
    "colorize",
    "default_smallest_dimension",
    "dist_sq",
    "gaussian_points",
    "load_points",
    "match_battery",
    "neighborhood",
    "oracle_quadtree",
    "pgm_bytes",
    "range_battery",
    "resolve_bin",
    "save_points",
    "summarize",
    "sweep_cost",
    "uniform_points",
    "write_pgm",
    "__version__",
]
