"""Temporal graph generation, cutoff splitting, and dataset serialization."""

from .config import GenConfig
from .generator import generate_temporal_graph
from .split import SnapshotAndStream, cutoff_instant, split_at_cutoff
from .serialize import (
    deserialize,
    read_dataset,
    read_stream,
    write_dataset,
    write_stream,
)

__all__ = [
    "GenConfig",
    "generate_temporal_graph",
    "SnapshotAndStream",
    "cutoff_instant",
    "split_at_cutoff",
    "deserialize",
    "write_dataset",
    "read_dataset",
    "read_stream",
    "write_stream",
]
