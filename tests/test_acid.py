"""Isolation and atomicity scenarios, plus the fault-injected control stores.

Each scenario runs a seeded (or given) interleaving of reads and
writes as ordered steps; the cascade scenario also races one free
prober thread against the delete.  The reference store must pass every
seed and every fixed interleaving; the two deliberately broken stores must fail at the
interleavings their defects target, which demonstrates the scenarios can
actually detect the anomalies they hunt.
"""

import pytest

from socialbench.acid import (
    NonVersionedReadStore,
    SplitCascadeStore,
    run_cascade_atomicity,
    run_traversal_anomaly,
)
from socialbench.refstore import ReferenceStore


class TestTraversalAnomaly:
    def test_reference_store_passes_random_seeds(self):
        for seed in range(12):
            result = run_traversal_anomaly(ReferenceStore, seed=seed)
            assert result.passed, (seed, result.violations)

    def test_reference_store_passes_every_fixed_interleaving(self):
        for delete_hop in range(5):
            for insert_hop in range(5):
                result = run_traversal_anomaly(
                    ReferenceStore, delete_after_hop=delete_hop,
                    insert_after_hop=insert_hop)
                assert result.passed, (delete_hop, insert_hop, result.violations)

    def test_result_records_interleaving(self):
        result = run_traversal_anomaly(ReferenceStore, seed=3,
                                       delete_after_hop=2, insert_after_hop=1)
        assert result.details["deleteAfterHop"] == 2
        assert result.details["insertAfterHop"] == 1
        assert result.name == "traversal_anomaly"

    def test_non_versioned_store_fails_early_delete(self):
        result = run_traversal_anomaly(NonVersionedReadStore,
                                       delete_after_hop=1, insert_after_hop=4)
        assert not result.passed
        assert result.violations

    def test_non_versioned_store_sees_phantom_insert(self):
        result = run_traversal_anomaly(NonVersionedReadStore,
                                       delete_after_hop=4, insert_after_hop=0)
        assert not result.passed

    def test_non_versioned_store_fails_somewhere_on_random_seeds(self):
        failures = sum(
            1 for seed in range(20)
            if not run_traversal_anomaly(NonVersionedReadStore, seed=seed).passed)
        assert failures > 0


class _DeletesNothingStore(ReferenceStore):
    def _apply_delete(self, op):
        return self._version, 0


class TestCascadeAtomicity:
    def test_reference_store_passes_random_seeds(self):
        for seed in range(12):
            result = run_cascade_atomicity(ReferenceStore, seed=seed)
            assert result.passed, (seed, result.violations)
            assert result.details["midProbeRan"] is False

    def test_split_cascade_store_fails(self):
        result = run_cascade_atomicity(SplitCascadeStore, seed=0)
        assert not result.passed
        assert result.details["midProbeRan"] is True
        assert any("parent" in v or "root" in v for v in result.violations)

    def test_split_cascade_store_fails_on_every_seed(self):
        for seed in range(8):
            result = run_cascade_atomicity(SplitCascadeStore, seed=seed)
            assert not result.passed, seed

    def test_delete_that_never_applies_is_a_violation(self):
        result = run_cascade_atomicity(_DeletesNothingStore, seed=0)
        assert not result.passed
        assert result.violations == ["post 9301 still visible after its delete"]


class TestDeterminism:
    @pytest.mark.parametrize("runner", [run_traversal_anomaly,
                                        run_cascade_atomicity])
    def test_same_seed_same_interleaving(self, runner):
        a = runner(ReferenceStore, seed=11)
        b = runner(ReferenceStore, seed=11)
        assert a.details == b.details
        assert a.passed and b.passed
