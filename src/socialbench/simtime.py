"""Simulation-time helpers.

Simulation instants are integer milliseconds since the Unix epoch, UTC.
All arithmetic in the harness stays in integer milliseconds; datetime
objects appear only at the serialization boundary.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

MS_PER_SECOND = 1_000
MS_PER_MINUTE = 60 * MS_PER_SECOND
MS_PER_HOUR = 60 * MS_PER_MINUTE
MS_PER_DAY = 24 * MS_PER_HOUR

# Default three-year simulation window.
SIM_START = 1_262_304_000_000  # 2010-01-01T00:00:00.000Z
SIM_END = 1_356_998_399_999  # 2012-12-31T23:59:59.999Z

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def format_instant(t: int) -> str:
    """Render an instant as ISO-8601 UTC with millisecond precision."""
    dt = _EPOCH + timedelta(milliseconds=t)
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{t % 1000:03d}Z"


def day_start(t: int) -> int:
    """Floor an instant to the beginning of its UTC day."""
    return t - (t % MS_PER_DAY)


def day_date(t: int) -> str:
    """The UTC calendar date of an instant, as YYYY-MM-DD."""
    return (_EPOCH + timedelta(milliseconds=day_start(t))).strftime("%Y-%m-%d")


def parse_day(text: str) -> int:
    """Parse YYYY-MM-DD into the instant at that day's UTC midnight."""
    dt = datetime.strptime(text.strip(), "%Y-%m-%d").replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    return delta.days * MS_PER_DAY


def day_starts_between(first: int, last: int) -> list[int]:
    """All UTC day starts from day_start(first) through day_start(last)."""
    out = []
    t = day_start(first)
    stop = day_start(last)
    while t <= stop:
        out.append(t)
        t += MS_PER_DAY
    return out
