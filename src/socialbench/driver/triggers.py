"""Short reads spawned by complex-read results.

Complex reads surface entities; the workload then pokes at those
entities with short reads, the way an interactive client would follow
links on a result page.  The fan-out is bounded and the chain random
ness is fully determined by the RNG handed in, so two evaluators fed
the same results spawn the same follow-ups.
"""

from __future__ import annotations

import random

from ..rng import derive_rng
from .config import TriggerConfig


def derive_triggers(variant: str, params: dict, result,
                    rng: random.Random, config: TriggerConfig,
                    depth: int = 0) -> list[tuple[str, dict, int]]:
    """Follow-up (variant, params, depth) triples for one query result."""
    out: list[tuple[str, dict, int]] = []
    if variant.startswith("CR3"):
        for row in (result or [])[:config.sr2_per_cr]:
            out.append(("SR2", {"personId": row["personId"]}, 1))
    elif variant == "CR13b":
        if result and result.get("shortestPathLength", -1) >= 0:
            out.append(("SR2", {"personId": params["person1Id"]}, 1))
            out.append(("SR2", {"personId": params["person2Id"]}, 1))
    elif variant.startswith("CR14"):
        if result is not None:
            for pid in result["path"][:config.sr2_per_cr]:
                out.append(("SR2", {"personId": pid}, 1))
    elif variant == "SR2":
        rows = result or []
        for row in rows[:config.sr6_per_sr2]:
            out.append(("SR6", {"messageId": row["messageId"]}, depth))
        if rows and depth < config.sr2_depth_cap:
            if rng.random() < config.sr2_self_prob ** depth:
                author = rng.choice(rows)["rootAuthorId"]
                out.append(("SR2", {"personId": author}, depth + 1))
    return out


def follow_ups(seed: int, key: tuple, variant: str, params: dict, result,
               config: TriggerConfig, depth: int) -> list[tuple[str, dict, int, tuple]]:
    """The (variant, params, depth, key) reads one result triggers.

    key names the read within the run: a scheduled read's is (seq,), and
    the ordinal-th read it triggers gets key + (ordinal,).  The key seeds
    the draw, so every evaluator of one schedule follows the same links.
    """
    children = derive_triggers(variant, params, result, derive_rng(seed, *key), config, depth)
    return [(*child, key + (ordinal,)) for ordinal, child in enumerate(children)]
