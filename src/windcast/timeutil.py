"""Hourly time axis helpers.

All series in this package live on an integer axis of hours since the Unix
epoch (UTC). Hour-of-day is derived with a configurable fixed UTC offset
(local standard time of the network); months and seasons use the UTC
calendar.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidInputError

SEASONS = ("DJF", "MAM", "JJA", "SON")

# month number 1..12 -> season index into SEASONS
_MONTH_SEASON = np.array([0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0])
#: Leading values of an array that ``render_once`` looks at to decide whether
#: its values repeat enough to render each distinct value once.
RENDER_SAMPLE = 256
# what iso_text hands numpy: a date, then optionally 'T' and hh[:mm[:ss[.fff]]];
# numpy reads anything after the time (an offset, a 'z') as a timezone
_ISO_SHAPE = re.compile(r"-?\d[^T+zZ]*(T\d\d(:\d\d(:\d\d(\.\d*)?)?)?)?")
# 'YYYY-MM-DDTHH:MMZ': the lowest code unit at each position, and how far
# above it the unit may be (9 for a digit, 0 for a separator or the 'Z')
_CANONICAL = np.frombuffer(b"0000-00-00T00:00Z", np.uint8)
_SPAN = np.where(_CANONICAL == ord("0"), 9, 0).astype(np.uint8)


def iso_text(text: str) -> str:
    """Timestamp text as numpy parses it: stripped, 'T' between date and
    time (a space is accepted), no trailing 'Z'. A ValueError for text with
    a UTC offset, a lowercase 'z' or anything else after the time, which
    numpy would read through its deprecated timezone parser."""
    out = text.strip().replace(" ", "T").removesuffix("Z")
    if not _ISO_SHAPE.fullmatch(out):
        raise ValueError(f"not an ISO-8601 UTC timestamp: {text!r}")
    return out


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 UTC timestamp to minute precision; blank is an error."""
    try:
        value = np.datetime64(iso_text(text), "m")
    except ValueError:
        value = np.datetime64("NaT")
    if np.isnat(value):
        raise InvalidInputError(f"unparseable timestamp {text!r}")
    return value


def epoch_minutes(text: str) -> int:
    return int(parse_timestamp(text).astype("int64"))


def canonical_minutes(cells: np.ndarray) -> np.ndarray | None:
    """Int64 epoch minutes of a 1-D bytes or str array whose every cell is
    ``YYYY-MM-DDTHH:MMZ``, parsed by one numpy cast of the first 16 code
    units as bytes (numpy parses str text about 9 times slower); None when a
    cell has any other form or is no date (2008-02-30), for
    ``parse_timestamp`` to read cell by cell."""
    unit = np.uint8 if cells.dtype.kind == "S" else np.uint32
    width = cells.dtype.itemsize // np.dtype(unit).itemsize
    if not cells.size:  # every cell is canonical
        return np.zeros(0, dtype=np.int64)
    if width < _CANONICAL.size:
        return None
    codes = np.ascontiguousarray(cells).view(unit).reshape(cells.size, width)
    # unsigned, so a unit below the lowest wraps round to a large difference
    if codes[:, _CANONICAL.size:].any() or (codes[:, :_CANONICAL.size] - _CANONICAL > _SPAN).any():
        return None
    text = codes[:, :16].astype(np.uint8).view("S16").ravel()  # every unit is ASCII here
    try:
        return text.astype("datetime64[m]").view(np.int64)
    except ValueError:
        return None


def epoch_hour(text: str) -> int:
    """Epoch hour of an ISO timestamp, flooring sub-hourly parts."""
    return int(np.floor_divide(epoch_minutes(text), 60))


def iso_hour(eh) -> str:
    """ISO-8601 rendering of an epoch hour, e.g. '2008-01-01T05:00Z'."""
    return _iso_hours(np.array([eh], dtype=np.int64))[0]


def iso_hours(eh) -> list[str]:
    """iso_hour of each epoch hour in an array; a repeated hour is rendered
    once (``render_once``)."""
    return render_once(np.asarray(eh, dtype=np.int64), _iso_hours)


def _iso_hours(eh: np.ndarray) -> list[str]:
    return np.datetime_as_string(eh.astype("datetime64[h]"), unit="m", timezone="UTC").tolist()


def render_once(values: np.ndarray, render) -> list:
    """``render(values)``, the text of each value of a 1-D numeric or bool
    array, with each distinct value rendered once when the values repeat.

    Values are distinct by their bits (a same-width unsigned view), so -0.0
    and 0.0, or NaNs of other payloads, are rendered apart. The first
    ``RENDER_SAMPLE`` values decide: when more than half of them are
    distinct, ``render`` takes the whole array as it is, unsorted."""
    keys = values.view(f"u{values.dtype.itemsize}")
    sample = keys[:RENDER_SAMPLE]
    if 2 * np.unique(sample).size > sample.size:
        return render(values)
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(render(distinct.view(values.dtype)), dtype=object)[inverse].tolist()


def hours_of_day(eh, tz_offset_hours: int = 0):
    """Hour-of-day 0..23 at a fixed UTC offset (vectorized)."""
    return np.mod(np.asarray(eh, dtype=np.int64) + int(tz_offset_hours), 24)


def month_index(eh):
    """Months since 1970-01 for each epoch hour (UTC calendar)."""
    dt = np.asarray(eh, dtype=np.int64).astype("datetime64[h]")
    return dt.astype("datetime64[M]").astype(np.int64)


def year_month(month_idx: int) -> tuple[int, int]:
    return 1970 + month_idx // 12, month_idx % 12 + 1


def format_month(month_idx: int) -> str:
    y, m = year_month(int(month_idx))
    return f"{y:04d}-{m:02d}"


def month_number(eh):
    """Calendar month 1..12 of each epoch hour."""
    return np.mod(month_index(eh), 12) + 1


def season_index(eh):
    """Season of each epoch hour: 0=DJF, 1=MAM, 2=JJA, 3=SON."""
    return _MONTH_SEASON[month_number(eh) - 1]
