"""Parameter curation: factor tables, selection rules, and per-day buckets."""

from .factors import FactorTable, build_factor_tables
from .selection import select_percentile, select_window
from .pathcuration import (
    DayBoundGraphs,
    bfs_distances,
    build_bound_graphs,
    curate_reachable_pairs,
    curate_unreachable_pairs,
    sweep_bound_graphs,
)
from .buckets import (
    ParameterBucket,
    ParamGenOptions,
    generate_parameters,
    read_buckets,
    write_buckets,
)

__all__ = [
    "FactorTable",
    "build_factor_tables",
    "select_window",
    "select_percentile",
    "DayBoundGraphs",
    "build_bound_graphs",
    "bfs_distances",
    "curate_reachable_pairs",
    "curate_unreachable_pairs",
    "sweep_bound_graphs",
    "ParameterBucket",
    "ParamGenOptions",
    "generate_parameters",
    "write_buckets",
    "read_buckets",
]
