"""Diurnal (hour-of-day) pattern fitting and removal.

Two profile families: a smooth two-harmonic trigonometric fit, and
empirical hourly means over a trailing window (MD), per season (SMD), or a
whole training record (YMD). Empirical profiles are always built from
observations strictly before the forecast issue time, so no future data can
leak into them.

Wind direction is circular, so its diurnal pattern is handled on the
cosine and sine components separately: each component series gets its own
profile and is residualized independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, RankDeficiencyError
from .timeutil import SEASONS, season_index

TRIG = "TRIG"
MD = "MD"
SMD = "SMD"
YMD = "YMD"
EMPIRICAL_METHODS = (MD, SMD, YMD)

MD_WINDOW_DAYS = 45


_BASE = 2.0 * np.pi * np.arange(24.0) / 24.0
#: columns 1, sin, cos, sin2, cos2 of 2*pi*hour/24 for hours 0..23
_TRIG_TABLE = np.column_stack(
    [np.ones(24), np.sin(_BASE), np.cos(_BASE), np.sin(2.0 * _BASE), np.cos(2.0 * _BASE)]
)


def _trig_design(hours):
    """Harmonic rows for integer hours of day, gathered from the 24-row table."""
    return _TRIG_TABLE[np.mod(np.asarray(hours, dtype=np.int64), 24)]


@dataclass(frozen=True)
class TrigDiurnal:
    """Two-harmonic profile d0 + d1 sin + d2 cos + d3 sin2 + d4 cos2 of hour/24."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 5 or not np.all(np.isfinite(self.coeffs)):
            raise InvalidInputError("trig profile needs 5 finite coefficients")

    def evaluate(self, hours_of_day):
        # a gather from the 24 hourly values, so any subset of hours gets the
        # same bits as the whole axis
        hourly = _TRIG_TABLE @ np.asarray(self.coeffs)
        return hourly[np.mod(np.asarray(hours_of_day, dtype=np.int64), 24)]


@dataclass(frozen=True)
class EmpiricalDiurnal:
    """Mean value per hour-of-day over a stated averaging window."""

    hourly_mean: tuple  # 24 values, hour 0..23
    method: str
    window: str  # human-readable descriptor of the averaging period

    def __post_init__(self):
        if len(self.hourly_mean) != 24 or not np.all(np.isfinite(self.hourly_mean)):
            raise InvalidInputError("empirical profile needs 24 finite hourly means")
        if self.method not in EMPIRICAL_METHODS:
            raise InvalidInputError(f"unknown empirical method {self.method!r}")

    def evaluate(self, hours_of_day):
        idx = np.mod(np.asarray(hours_of_day, dtype=np.int64), 24)
        return np.asarray(self.hourly_mean)[idx]


def fit_trig(hours_of_day, values) -> TrigDiurnal:
    """Least-squares two-harmonic fit; needs >= 5 distinct hours represented."""
    hours = np.asarray(hours_of_day, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals)
    hours, vals = hours[keep], vals[keep]
    if np.unique(hours).size < 5:
        raise RankDeficiencyError("need observations at >= 5 distinct hours of day")
    design = _trig_design(hours)
    coeffs, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 5:
        raise RankDeficiencyError("trigonometric design is rank deficient")
    return TrigDiurnal(tuple(float(c) for c in coeffs))


def fit_empirical(
    times,
    values,
    hours_of_day,
    method: str,
    issue_time: int,
    window_days: int = MD_WINDOW_DAYS,
    training_end: int | None = None,
) -> EmpiricalDiurnal:
    """Hour-of-day means over the method's window, ending strictly before issue_time.

    MD averages the trailing ``window_days`` days; SMD all same-season data
    in the training record (the season is that of the issue time); YMD the
    whole training record. ``training_end`` caps the SMD/YMD windows when
    the passed series extends past the training period.
    """
    times = np.asarray(times, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    hours = np.asarray(hours_of_day, dtype=np.int64)
    issue_time = int(issue_time)

    mask = times < issue_time
    if method == MD:
        mask &= times >= issue_time - 24 * window_days
        window = f"trailing {window_days} days before {issue_time}"
    elif method == SMD:
        season = int(season_index(issue_time))
        mask &= season_index(times) == season
        if training_end is not None:
            mask &= times < training_end
        window = f"season {SEASONS[season]} of training record"
    elif method == YMD:
        if training_end is not None:
            mask &= times < training_end
        window = "whole training record"
    else:
        raise InvalidInputError(f"unknown empirical method {method!r}")

    mask &= np.isfinite(vals)
    bucket_hours = hours[mask]
    counts = np.bincount(bucket_hours, minlength=24)
    if np.any(counts == 0):
        hour = int(np.argmin(counts > 0))
        raise InsufficientDataError(
            f"{method} window has no observations at hour {hour:02d}"
        )
    sums = np.bincount(bucket_hours, weights=vals[mask], minlength=24)
    return EmpiricalDiurnal(tuple(sums / counts), method, window)
