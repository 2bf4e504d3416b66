"""Exception types shared across the harness.

Every module raises subclasses of SocialBenchError so callers (and the CLI)
can catch harness failures without swallowing genuine bugs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import types
import typing
from pathlib import Path


class SocialBenchError(Exception):
    """Base class for all harness errors."""


class ConfigInvalid(SocialBenchError):
    """A configuration value is out of range or inconsistent."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid config field {field!r}: {reason}")


def load_config(cls, data, section: str):
    """The dataclass cls built from the dict data, which checks itself; a
    field that is a dataclass is loaded from its own dict.  A ConfigInvalid
    names its field under section."""
    if not isinstance(data, dict):
        raise ConfigInvalid(section, "not an object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigInvalid(f"{section}.{unknown[0]}", "unknown key")
    hints = _type_hints(cls)
    values = dict(data)
    for f in fields:
        if f.name in data and dataclasses.is_dataclass(hints[f.name]):
            values[f.name] = load_config(hints[f.name], data[f.name], f"{section}.{f.name}")
        elif (f.name not in data and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigInvalid(f"{section}.{f.name}", "required")
    try:
        return cls(**values)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{section}.{exc.field}", exc.reason) from exc


@functools.cache
def _type_hints(cls) -> dict:
    """typing.get_type_hints(cls), which evaluates every annotation
    string, once per class."""
    return typing.get_type_hints(cls)


def check_config_types(config) -> None:
    """Raise ConfigInvalid naming the first field of the dataclass instance
    config whose value does not have the field's declared type.  An int
    passes for a float; a bool passes for neither."""
    hints = _type_hints(type(config))
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
    """A serialized file could not be parsed; carries its line number."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


def utf8_lines(path):
    """Yield the lines of the file at path decoded as UTF-8, line endings
    kept; a line that does not decode raises ParseError with its number.
    The file is read whole, so a reader that stops early leaves it closed."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    for line_no, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(str(path), line_no, f"not UTF-8: {exc}") from exc


def read_json(path):
    """The JSON document in the file at path; a file that is not UTF-8 or
    not JSON raises ParseError with the path and line."""
    text = "".join(utf8_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.msg) from exc


def json_text(doc) -> str:
    """The JSON document doc as text: indent 2, sorted keys and a trailing
    newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc) -> None:
    """Write json_text(doc) to the file at path; the file's directory is
    made if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json_text(doc), encoding="utf-8")


def read_records(path, parse) -> list:
    """parse(record) for the JSON record on each non-blank line of the file
    at path.  A line that is not JSON, or that parse refuses with one of
    the errors below, raises ParseError with the path and line."""
    parsed = []
    for line_no, line in enumerate(utf8_lines(path), start=1):
        if not line.strip():
            continue
        try:
            parsed.append(parse(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
    return parsed


def record_line(record) -> str:
    """The JSON object record as one line with sorted keys."""
    return json.dumps(record, sort_keys=True) + "\n"


def write_records(path, records) -> None:
    """Write record_line of each JSON object in records to the file at
    path; the file's directory is made if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(record_line, records))


class NoQualifyingGroup(SocialBenchError):
    """Window selection found no frequency group of the required size."""


class MissingBucket(SocialBenchError):
    """A scheduled read lands on a day with no curated parameters."""


class UnknownEntity(SocialBenchError):
    """An operation referenced an entity that is not alive in the store."""


class DependencyMissing(SocialBenchError):
    """An insert referenced an entity that has not been created yet."""


class IntegrityError(SocialBenchError):
    """Bulk-loaded data contains dangling references or duplicates."""


class StageFailed(SocialBenchError):
    """A pipeline stage raised; the message names the stage and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
