"""Temporal graph generation, cutoff splitting, and dataset serialization."""

from .config import GenConfig
from .generator import generate_temporal_graph
from .split import SnapshotAndStream, cutoff_instant, split_at_cutoff
from .serialize import read_dataset, write_dataset

__all__ = [
    "GenConfig",
    "generate_temporal_graph",
    "SnapshotAndStream",
    "cutoff_instant",
    "split_at_cutoff",
    "write_dataset",
    "read_dataset",
]
