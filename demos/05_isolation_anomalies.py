"""Hunt for read anomalies that snapshot isolation must prevent.

Two adversarial scenarios run a multi-hop reader against writers, once
per seed, each seed picking where the writes fall among the reads:

  traversal anomaly   a reader walks a friendship chain while writers
                      delete an edge ahead of it and insert a shortcut
                      behind it; under one consistent read version the
                      walk can never observe both the new edge and the
                      missing old one.

  cascade atomicity   a reader repeatedly probes a post's comment tree
                      while a delete cascades through it, and one more
                      reader thread races that delete; the tree must
                      vanish in one step, never a comment before its
                      parent.

The reference store passes every interleaving.  Two deliberately broken
stores, one reading live state without version pinning and one
tombstoning cascades in separate steps, are run as controls: the same
scenarios catch both.
"""

from socialbench.acid import (
    NonVersionedReadStore,
    ReferenceStore,
    SplitCascadeStore,
    run_cascade_atomicity,
    run_traversal_anomaly,
)


def sweep(label, scenario, store_factory, seeds=30, **kwargs):
    results = [scenario(store_factory=store_factory, seed=s, **kwargs)
               for s in range(seeds)]
    failed = [r for r in results if not r.passed]
    print(f"  {label:28s} {seeds - len(failed):3d}/{seeds} clean")
    return failed


def main():
    print("reference store (snapshot isolation):")
    sweep("traversal anomaly", run_traversal_anomaly, ReferenceStore)
    sweep("cascade atomicity", run_cascade_atomicity, ReferenceStore)

    print("\ncontrol: reads without version pinning:")
    failed = sweep("traversal anomaly", run_traversal_anomaly,
                   NonVersionedReadStore)
    if failed:
        print(f"    first violation: {failed[0].violations[0]}")

    forced = run_traversal_anomaly(store_factory=NonVersionedReadStore, seed=0,
                                   delete_after_hop=1, insert_after_hop=4)
    print(f"  forced worst-case interleaving passed: {forced.passed}")
    for line in forced.violations[:2]:
        print(f"    {line}")

    print("\ncontrol: cascade split into separate commits:")
    failed = sweep("cascade atomicity", run_cascade_atomicity,
                   SplitCascadeStore)
    if failed:
        detail = failed[0].details
        print(f"    mid-cascade state observed: {detail.get('midProbeRan')}")
        print(f"    first violation: {failed[0].violations[0]}")


if __name__ == "__main__":
    main()
