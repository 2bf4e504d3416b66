"""Lockstep cross-validation of two stores.

Runs the same schedule sequentially against both stores, comparing
every result as it appears.  Query results must match exactly, except
the weighted-path query where any cheapest path is acceptable, so only
reachability and total weight are compared.  Triggered short reads are
derived from the first store's results and then executed on both, which
keeps the two stores answering exactly the same question stream even
when their tie-breaking differs.
"""

from __future__ import annotations

from ..errors import ValidationFailed
from ..rng import derive_rng
from .config import DriverConfig
from .schedule import UPDATE, Schedule
from .triggers import derive_triggers

# Divergences kept as examples in the report per variant; diffCount
# counts them all.
MAX_DIFFS_PER_VARIANT = 3


def _results_match(variant: str, a, b) -> bool:
    if variant.startswith("CR14"):
        if (a is None) != (b is None):
            return False
        return a is None or a["weight"] == b["weight"]
    return a == b


def cross_validate(store_a, store_b, schedule: Schedule,
                   config: DriverConfig | None = None,
                   raise_on_diff: bool = False) -> dict:
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
        if not _results_match(variant, a, b):
            record(variant, params, a, b, f"entry {key[0]}")
        rng = derive_rng(config.seed, *key)
        for ordinal, (child_variant, child_params, child_depth) in enumerate(
                derive_triggers(variant, params, a, rng, config.triggers, depth)):
            run_query(child_variant, child_params, child_depth, key + (ordinal,))

    for entry in schedule.entries:
        if entry.kind == UPDATE:
            updates += 1
            ra = store_a.execute_update(entry.op)
            rb = store_b.execute_update(entry.op)
            if ra.get("cascadeNodes") != rb.get("cascadeNodes"):
                record(entry.op.op_type, entry.op.payload, ra, rb,
                       f"entry {entry.seq}")
        else:
            run_query(entry.query.variant, entry.query.params,
                      entry.query.depth, (entry.seq,))

    report = {
        "updates": updates,
        "queries": queries,
        "diffCount": sum(per_variant.values()),
        "diffs": diffs,
        "variantsWithDiffs": sorted(per_variant),
    }
    if raise_on_diff and diffs:
        first = diffs[0]
        raise ValidationFailed(first["variant"], f"{report['diffCount']} divergences, "
                               f"first at {first['at']}")
    return report
