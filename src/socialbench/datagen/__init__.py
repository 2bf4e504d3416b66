"""Temporal graph generation, cutoff splitting, and dataset serialization."""

from .config import GenConfig
from .generator import generate_temporal_graph
from .split import SnapshotAndStream, cutoff_instant, split_at_cutoff
from .serialize import (
    deserialize,
    read_dataset,
    read_stream,
    read_temporal_graph,
    serialize,
    write_dataset,
    write_stream,
    write_temporal_graph,
)

__all__ = [
    "GenConfig",
    "generate_temporal_graph",
    "SnapshotAndStream",
    "cutoff_instant",
    "split_at_cutoff",
    "serialize",
    "deserialize",
    "write_dataset",
    "read_dataset",
    "read_stream",
    "read_temporal_graph",
    "write_stream",
    "write_temporal_graph",
]
