"""Run configuration for the benchmark driver."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigInvalid, check_config_types

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

    def validate(self) -> None:
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

    warmup_secs and window_secs are positions on the scheduled wall
    timeline: operations scheduled before the warmup ends still run but
    are not measured, and the run stops dispatching once the window
    closes.  window_secs None means run the schedule to the end.
    """

    tcr: float = 0.02
    t_safe: int = 10_000
    read_threads: int = 2
    write_threads: int = 2
    seed: int = 0
    pacing: bool = True
    warmup_secs: float = 0.0
    window_secs: float | None = None
    on_time_threshold_ms: int = 1_000
    on_time_target: float = 0.95
    frequencies: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_FREQUENCIES))
    triggers: TriggerConfig = field(default_factory=TriggerConfig)

    def validate(self) -> None:
        check_config_types(self)
        if self.tcr <= 0:
            raise ConfigInvalid("tcr", "must be positive")
        if self.t_safe <= 0:
            raise ConfigInvalid("t_safe", "must be positive")
        if self.read_threads < 1 or self.write_threads < 1:
            raise ConfigInvalid("threads", "need at least one of each kind")
        if self.warmup_secs < 0:
            raise ConfigInvalid("warmup_secs", "must be non-negative")
        if self.window_secs is not None and self.window_secs <= 0:
            raise ConfigInvalid("window_secs", "must be positive when set")
        if self.on_time_threshold_ms < 0:
            raise ConfigInvalid("on_time_threshold_ms", "must be non-negative")
        if not 0.0 <= self.on_time_target <= 1.0:
            raise ConfigInvalid("on_time_target", "must be within [0, 1]")
        for variant, freq in self.frequencies.items():
            if not isinstance(freq, int) or freq < 1:
                raise ConfigInvalid("frequencies", f"{variant} must be >= 1")
        self.triggers.validate()

    @property
    def gate_recheck_wall_secs(self) -> float:
        """Deferred operations re-check the dependency gate at this cadence."""
        return self.tcr * self.t_safe / 1000.0
