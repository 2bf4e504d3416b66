"""Generator configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigInvalid, check_config_types
from ..simtime import MS_PER_SECOND, SIM_END, SIM_START


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one deterministic generation run.

    The same config always produces byte-identical serialized output,
    and read_dataset relies on it: a dataset is read by generating the
    world its config.json names and checking every other file against it.
    t_safe is the minimum simulation-time separation between the creation
    of an entity and any later operation that depends on it; the generator
    enforces it while sampling, so emitted streams never need repair.
    """

    seed: int
    num_persons: int
    simulation_start: int = SIM_START
    simulation_end: int = SIM_END
    cutoff_fraction: float = 0.97
    t_safe: int = 10 * MS_PER_SECOND
    degree_exponent: float = 2.5
    homophily_weight: float = 0.5
    flashmob_count: int = 2
    person_deletion_rate: float = 0.04
    content_scale: float = 1.0
    delete_forums_of_deleted_moderator: bool = True

    def __post_init__(self) -> None:
        check_config_types(self)
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalid("seed", "must fit in 64 bits")
        if self.num_persons < 0:
            raise ConfigInvalid("num_persons", "must be non-negative")
        if self.simulation_end <= self.simulation_start:
            raise ConfigInvalid("simulation_end", "must be after simulation_start")
        if not 0.0 < self.cutoff_fraction <= 1.0:
            raise ConfigInvalid("cutoff_fraction", "must be in (0, 1]")
        if self.t_safe <= 0:
            raise ConfigInvalid("t_safe", "must be positive")
        if not self.degree_exponent > 1.0:
            raise ConfigInvalid("degree_exponent", "must exceed 1")
        if not 0.0 <= self.homophily_weight <= 1.0:
            raise ConfigInvalid("homophily_weight", "must be in [0, 1]")
        if self.flashmob_count < 0:
            raise ConfigInvalid("flashmob_count", "must be non-negative")
        if not 0.0 <= self.person_deletion_rate <= 1.0:
            raise ConfigInvalid("person_deletion_rate", "must be in [0, 1]")
        if not 0 < self.content_scale < math.inf:
            raise ConfigInvalid("content_scale", "must be positive and finite")
