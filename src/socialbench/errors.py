"""Exception types shared across the harness.

Every module raises subclasses of SocialBenchError so callers (and the CLI)
can catch harness failures without swallowing genuine bugs.
"""

from __future__ import annotations

import dataclasses
import numbers
import types
import typing


class SocialBenchError(Exception):
    """Base class for all harness errors."""


class ConfigInvalid(SocialBenchError):
    """A configuration value is out of range or inconsistent."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid config field {field!r}: {reason}")


def check_config_keys(cls, data: dict, section: str) -> None:
    """Raise ConfigInvalid naming the first key of data that the dataclass
    cls has no field for, or the first required field data lacks."""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigInvalid(f"{section}.{unknown[0]}", "unknown key")
    for f in fields:
        if (f.name not in data and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigInvalid(f"{section}.{f.name}", "required")


def check_config_types(config) -> None:
    """Raise ConfigInvalid naming the first field of the dataclass instance
    config whose value does not have the field's declared type.  An int
    passes for a float; a bool passes for neither."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        hint = hints[f.name]
        allowed = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if not any(_has_type(value, t) for t in allowed):
            names = " or ".join("None" if t is type(None) else t.__name__ for t in allowed)
            raise ConfigInvalid(f.name, f"must be {names}, got {value!r}")


def _has_type(value, declared) -> bool:
    if declared is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    if declared is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return isinstance(value, typing.get_origin(declared) or declared)


class CycleDetected(SocialBenchError):
    """A reply chain loops back on itself instead of terminating at a post."""


class MalformedOperation(SocialBenchError):
    """An update operation's payload does not fit its op type."""


class ParseError(SocialBenchError):
    """A serialized file could not be parsed; carries file and line number."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class NoQualifyingGroup(SocialBenchError):
    """Window selection found no frequency group of the required size."""


class InsufficientPairs(SocialBenchError):
    """Path curation found fewer qualifying person pairs than requested."""

    def __init__(self, requested: int, found: int, detail: str = ""):
        self.requested = requested
        self.found = found
        msg = f"requested {requested} pairs, found {found}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class MissingBucket(SocialBenchError):
    """A scheduled read lands on a day with no curated parameters."""


class UnknownEntity(SocialBenchError):
    """An operation referenced an entity that is not alive in the store."""


class DependencyMissing(SocialBenchError):
    """An insert referenced an entity that has not been created yet."""


class IntegrityError(SocialBenchError):
    """Bulk-loaded data contains dangling references or duplicates."""


class DeadlockSuspected(SocialBenchError):
    """An update depends on its own scheduled time or a later one, so the
    dependency gate would never release it; the stream is corrupt."""


class ValidationFailed(SocialBenchError):
    """Cross-validation observed diverging results between two systems."""

    def __init__(self, variant: str, detail: str):
        self.variant = variant
        self.detail = detail
        super().__init__(f"divergence on {variant}: {detail}")


class StageFailed(SocialBenchError):
    """A pipeline stage raised; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")
