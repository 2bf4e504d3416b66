"""Generate a small temporal social network and look inside it.

The generator produces a three-year history of persons, friendships,
forums, messages, likes, and memberships.  Every entity carries a
half-open lifecycle [creation, deletion), so the same dataset describes
the network at any instant of the simulation.  A cutoff 97 percent of
the way through the window splits that history into a bulk-load
snapshot and a typed insert/delete stream.
"""

import collections
import tempfile
from pathlib import Path

from socialbench.datagen import (
    GenConfig,
    generate_temporal_graph,
    split_at_cutoff,
    write_dataset,
)
from socialbench.simtime import format_instant


def main():
    cfg = GenConfig(seed=7, num_persons=300)
    graph = generate_temporal_graph(cfg)

    print("generated collections:")
    for name, count in graph.counts().items():
        print(f"  {name:10s} {count:6d}")

    ever_deleted = [p for p in graph.persons.values()
                    if p.lifecycle.deletion is not None]
    print(f"\npersons that leave during the simulation: {len(ever_deleted)}")
    if ever_deleted:
        def owned_by(person):
            return [m for m in graph.messages.values()
                    if m.creator_person_id == person.id]

        victim = max(ever_deleted, key=lambda p: len(owned_by(p)))
        owned = owned_by(victim)
        print(f"  e.g. person {victim.id}: "
              f"joins {format_instant(victim.lifecycle.creation)}, "
              f"leaves {format_instant(victim.lifecycle.deletion)}")
        shared_end = sum(1 for m in owned
                         if m.lifecycle.deletion == victim.lifecycle.deletion)
        print(f"  their {len(owned)} messages end with them: "
              f"{shared_end} share the exact deletion instant (cascade)")

    sas = split_at_cutoff(graph, cfg)
    print(f"\ncutoff: {format_instant(sas.cutoff)}")
    part = sas.partition_counts()
    print(f"  snapshot entities  {part['snapshot']:6d}")
    print(f"  stream inserts     {part['inserts']:6d}")
    print(f"  stream deletes     {part['deletes']:6d}")
    print(f"  retired pre-cutoff {part['retired']:6d}")

    by_type = collections.Counter(op.op_type for op in sas.stream)
    print("\nstream operations by type:")
    for op_type in sorted(by_type):
        print(f"  {op_type}  {by_type[op_type]:5d}")

    gaps = [op.scheduled_time - op.dependency_time for op in sas.stream]
    print(f"\nsmallest dependency gap in the stream: {min(gaps)} ms "
          f"(guaranteed floor: {cfg.t_safe} ms)")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "dataset"
        write_dataset(graph, sas, out)
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        print(f"\nwrote {len(files)} artifact files:")
        for f in files:
            print(f"  {f}")


if __name__ == "__main__":
    main()
