"""Run configuration for the benchmark driver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigInvalid, check_config_types
from ..paramgen.buckets import QUERY_VARIANTS

# How many update slots pass between two instances of each complex-read
# variant.  Smaller is more frequent.
DEFAULT_FREQUENCIES: dict[str, int] = {
    "CR3a": 12, "CR3b": 12,
    "CR13a": 14, "CR13b": 14,
    "CR14a": 26, "CR14b": 26,
}


@dataclass(frozen=True)
class TriggerConfig:
    """How complex-read results fan out into short reads."""

    sr2_per_cr: int = 3        # persons taken from a CR result
    sr2_self_prob: float = 0.5  # chance an SR2 chains another SR2, halving per hop
    sr2_depth_cap: int = 3
    sr6_per_sr2: int = 3       # messages taken from an SR2 result

    def __post_init__(self) -> None:
        check_config_types(self)
        if self.sr2_per_cr < 0 or self.sr6_per_sr2 < 0:
            raise ConfigInvalid("trigger caps", "must be non-negative")
        if not 0.0 <= self.sr2_self_prob <= 1.0:
            raise ConfigInvalid("sr2_self_prob", "must be within [0, 1]")
        if self.sr2_depth_cap < 0:
            raise ConfigInvalid("sr2_depth_cap", "must be non-negative")


@dataclass(frozen=True)
class DriverConfig:
    """Knobs of one benchmark run.

    tcr maps simulation time to wall time: one simulation millisecond
    takes tcr wall milliseconds.  With pacing disabled the schedule
    order and all bookkeeping stay identical but nothing sleeps, which
    is the practical mode for replay-style validation runs.

    window_secs is a position on the scheduled wall timeline: no worker
    takes an entry due after the window closes, and only operations due
    inside it are measured.  None means run the schedule to the end.
    The on-time rule is fixed (driver.stats.ON_TIME_MS, ON_TIME_TARGET).
    """

    tcr: float = 0.02
    read_threads: int = 2
    write_threads: int = 2
    seed: int = 0
    pacing: bool = True
    window_secs: float | None = None
    frequencies: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_FREQUENCIES))
    triggers: TriggerConfig = field(default_factory=TriggerConfig)

    def __post_init__(self) -> None:
        check_config_types(self)
        if not 0 < self.tcr < math.inf:
            raise ConfigInvalid("tcr", "must be positive and finite")
        if self.read_threads < 1 or self.write_threads < 1:
            raise ConfigInvalid("threads", "need at least one of each kind")
        if self.window_secs is not None and not 0 < self.window_secs < math.inf:
            raise ConfigInvalid("window_secs", "must be positive and finite when set")
        for variant, freq in self.frequencies.items():
            if variant not in QUERY_VARIANTS:
                raise ConfigInvalid("frequencies", f"unknown query variant {variant!r}")
            if not isinstance(freq, int) or isinstance(freq, bool) or freq < 1:
                raise ConfigInvalid("frequencies", f"{variant} must be an integer >= 1")
