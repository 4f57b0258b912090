"""Diurnal (hour-of-day) pattern fitting and removal.

A profile is a series' diurnal pattern as its 24 hourly values, hour 0..23.
There are two families: a smooth two-harmonic trigonometric fit (TRIG),
and empirical hourly means (MD, SMD, YMD). ``window`` is the one place that
says which hours a method fits on, for a fit at time t:

    TRIG  [train_start, min(train_end, t))
    MD    [t - 24 * window_days, t): the trailing ``window_days`` days
    SMD   every hour before min(train_end, t) in the season of t
    YMD   every hour before min(train_end, t)

Every window holds only hours before t, so no observation at or after t
reaches a profile. SMD and YMD have no lower bound: with data that starts
before the training period, they average that history too, where TRIG does
not. Under one method, equal windows give equal profiles, so the window is
what two refits must share to share their residual state.

Wind direction is circular, so its diurnal pattern is handled on the
cosine and sine components separately: each component series gets its own
profile and is residualized independently.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, RankDeficiencyError
from .timeutil import SEASONS, iso_hour, season_index

TRIG = "TRIG"
MD = "MD"
SMD = "SMD"
YMD = "YMD"
DIURNAL_METHODS = (TRIG, MD, SMD, YMD)


_BASE = 2.0 * np.pi * np.arange(24.0) / 24.0
#: columns 1, sin, cos, sin2, cos2 of 2*pi*hour/24 for hours 0..23; a TRIG
#: profile is TRIG_TABLE @ coefficients
TRIG_TABLE = np.column_stack(
    [np.ones(24), np.sin(_BASE), np.cos(_BASE), np.sin(2.0 * _BASE), np.cos(2.0 * _BASE)]
)


def _trig_design(hours):
    """Harmonic rows for integer hours of day, gathered from the 24-row table."""
    return TRIG_TABLE[np.mod(np.asarray(hours, dtype=np.int64), 24)]


def window(method: str, fit_time: int, train: tuple, window_days: int) -> tuple:
    """The hours ``method`` fits on for a fit at ``fit_time``, as (start |
    None, end, season | None): the hours in [start, end), of one season
    (an index into SEASONS) when one is given. See the module docstring."""
    t, train_start, train_end = int(fit_time), int(train[0]), int(train[1])
    if method == TRIG:
        return (train_start, min(train_end, t), None)
    if method == MD:
        return (t - 24 * int(window_days), t, None)
    if method == SMD:
        return (None, min(train_end, t), int(season_index(t)))
    if method == YMD:
        return (None, min(train_end, t), None)
    raise InvalidInputError(f"unknown diurnal method {method!r}")


def in_window(win: tuple, times) -> np.ndarray:
    """Boolean mask of the ``times`` (epoch hours) inside the window ``win``."""
    start, end, season = win
    times = np.asarray(times, dtype=np.int64)
    mask = times < end
    if start is not None:
        mask &= times >= start
    if season is not None:
        mask &= season_index(times) == season
    return mask


def describe(method: str, win: tuple) -> str:
    """The window in words, e.g. 'SMD window (season JJA, before 2008-05-25T00:00Z)'."""
    start, end, season = win
    parts = [f"season {SEASONS[season]}"] if season is not None else []
    parts += [f"from {iso_hour(start)}"] if start is not None else []
    return f"{method} window ({', '.join(parts + [f'before {iso_hour(end)}'])})"


def fit_trig(hours_of_day, values) -> np.ndarray:
    """The 5 least-squares coefficients of d0 + d1 sin + d2 cos + d3 sin2 +
    d4 cos2 of 2*pi*hour/24 on the finite values; needs >= 5 distinct hours
    represented."""
    hours = np.asarray(hours_of_day, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals)
    hours, vals = hours[keep], vals[keep]
    if np.unique(hours).size < 5:
        raise RankDeficiencyError("need observations at >= 5 distinct hours of day")
    coeffs, _, rank, _ = np.linalg.lstsq(_trig_design(hours), vals, rcond=None)
    if rank < 5:
        raise RankDeficiencyError("trigonometric design is rank deficient")
    return coeffs


def fit_empirical(hours_of_day, values, what: str = "series") -> np.ndarray:
    """The mean of the finite values at each hour of day 0..23. An hour with
    none is an InsufficientDataError that names ``what`` and the hour."""
    hours = np.asarray(hours_of_day, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals)
    counts = np.bincount(hours[keep], minlength=24)
    if np.any(counts == 0):
        raise InsufficientDataError(
            f"{what} has no observations at hour {int(np.argmin(counts > 0)):02d}")
    return np.bincount(hours[keep], weights=vals[keep], minlength=24) / counts
