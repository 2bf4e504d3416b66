"""The benchmark's workloads: one generator, paramgen and driver setting each.

A workload fixes the shape of the world and the sizes of the phases run
on it.  Its dataset and curated parameters come from DATASET_SEED, as a
benchmark's scale factor and parameter files are fixed; the run's --seed
seeds the driver, which picks the short reads each complex read triggers.
"""

from __future__ import annotations

from dataclasses import dataclass

# The smallest setting DriverConfig accepts; two busy threads fit two cores.
READ_THREADS = 1
WRITE_THREADS = 1

# Generator and paramgen seed of every workload; --seed seeds the driver.
DATASET_SEED = 42

# Fewest measurement rounds in a run, however short --seconds is; each
# round sets up afresh, so set-up is timed at least this often.
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    persons: int
    cutoff_fraction: float
    degree_exponent: float = 2.5
    content_scale: float = 1.0
    person_deletion_rate: float = 0.04
    # Paced run: fixed time-compression ratio, and the scheduled wall
    # seconds dispatched (None runs the whole schedule).
    paced_tcr: float = 1e-6
    paced_window_s: float | None = None
    # Size of the world cross-validated against NaiveStore; None reuses
    # the workload's own world.
    validate_persons: int | None = None
    # CR13/CR14 answers recomputed with networkx per replay.
    networkx_samples: int = 0
    # Replays and update-only ingests per measurement round.
    replay_reps: int = 1
    ingest_reps: int = 1


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paths",
        persons=1200, cutoff_fraction=0.975, degree_exponent=1.7,
        person_deletion_rate=0.08,
        content_scale=2.0, paced_tcr=7.2e-6, paced_window_s=8.0,
        validate_persons=300, networkx_samples=16, ingest_reps=4),
    Workload(
        name="validate",
        persons=1500, cutoff_fraction=0.95, paced_tcr=1e-6,
        paced_window_s=3.0, replay_reps=5, ingest_reps=8),
)}

# A tiny world that takes every phase, for warming up and for the self-test.
TINY = Workload(
    name="tiny", persons=120,
    cutoff_fraction=0.95, degree_exponent=1.7, content_scale=2.0,
    paced_tcr=2e-7, networkx_samples=4)
