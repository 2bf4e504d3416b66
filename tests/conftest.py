"""Shared fixtures: one midsize generated world reused across test modules."""

import pytest

from socialbench.datagen import (
    GenConfig,
    cutoff_instant,
    generate_temporal_graph,
    split_at_cutoff,
)


@pytest.fixture(scope="session")
def gen_config():
    return GenConfig(seed=24, num_persons=500)


@pytest.fixture(scope="session")
def graph(gen_config):
    return generate_temporal_graph(gen_config)


@pytest.fixture(scope="session")
def sas(graph, gen_config):
    split = split_at_cutoff(graph, gen_config)
    # Tests of deletes read the shared stream; it must keep at least the
    # delete kinds it has held so far, so that their coverage cannot shrink.
    assert {op.op_type for op in split.stream} >= {"DEL1", "DEL8"}
    return split


@pytest.fixture(scope="session")
def cutoff(gen_config):
    return cutoff_instant(gen_config)
