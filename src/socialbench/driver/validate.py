"""Lockstep cross-validation of two stores.

Runs the same schedule sequentially against both stores, comparing
every result as it appears.  Query results must match exactly: both
stores break ties the same way, so the weighted-path query returns the
same cheapest path from each.  Triggered short reads are derived from
the first store's results and then executed on both, which keeps the
two stores answering exactly the same question stream even when they
diverge.
"""

from __future__ import annotations

from .config import DriverConfig
from .schedule import Schedule
from .triggers import follow_ups

# Divergences kept as examples in the report per variant; diffCount
# counts them all.
MAX_DIFFS_PER_VARIANT = 3


def cross_validate(store_a, store_b, schedule: Schedule,
                   config: DriverConfig | None = None) -> dict:
    """Replay a schedule against both stores and report divergences."""
    config = config or DriverConfig()
    diffs: list[dict] = []
    per_variant: dict[str, int] = {}
    updates = queries = 0

    def record(variant: str, params, a, b, where: str) -> None:
        per_variant[variant] = per_variant.get(variant, 0) + 1
        if per_variant[variant] <= MAX_DIFFS_PER_VARIANT:
            diffs.append({"variant": variant, "params": params,
                          "storeA": a, "storeB": b, "at": where})

    def run_query(variant: str, params: dict, depth: int, key: tuple) -> None:
        nonlocal queries
        queries += 1
        a = store_a.execute_query(variant, params)
        b = store_b.execute_query(variant, params)
        if a != b:
            record(variant, params, a, b, f"entry {key[0]}")
        for child in follow_ups(config.seed, key, variant, params, a,
                                config.triggers, depth):
            run_query(*child)

    for entry in schedule.entries:
        if entry.op is not None:
            updates += 1
            ra = store_a.execute_update(entry.op)
            rb = store_b.execute_update(entry.op)
            if ra.get("cascadeNodes") != rb.get("cascadeNodes"):
                record(entry.op.op_type, entry.op.payload, ra, rb,
                       f"entry {entry.seq}")
        else:
            run_query(entry.query.variant, entry.query.params,
                      entry.query.depth, (entry.seq,))

    return {
        "updates": updates,
        "queries": queries,
        "diffCount": sum(per_variant.values()),
        "diffs": diffs,
        "variantsWithDiffs": sorted(per_variant),
    }
