"""Station CSV ingestion: schema-driven parsing, unit conversion, hourly averaging.

Input files are flat CSVs with one row per (sub-)hourly record. A
``SchemaConfig`` maps file columns onto the roles time/station/speed/
direction/temperature/pressure and declares the units of each field; a
field with an undeclared unit is a load error rather than a silent guess.

Hourly aggregation: scalar fields are arithmetic means, wind direction is
averaged vectorially (mean of unit vectors, renormalized), and an hour is
kept only when at least ``min_fraction`` of the expected records within the
hour are present (default 9 of 12 five-minute records).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .csvio import read_columns, write_columns
from .errors import InvalidInputError, LoadError
from .series import StationMeta, StationSeries
from .timeutil import iso_hours

ROLES = ("time", "station", "speed", "direction", "temperature", "pressure")
#: The measured roles, which a load may read a subset of.
FIELD_ROLES = ROLES[2:]

# factors to canonical units; temperature handled separately (affine)
_SPEED_FACTORS = {"m_s": 1.0, "km_h": 1.0 / 3.6, "mph": 0.44704, "knot": 0.514444}
_PRESSURE_FACTORS = {"hpa": 1.0, "mb": 1.0, "pa": 0.01}
_DIRECTION_UNITS = ("deg", "rad")
_TEMPERATURE_AFFINE = {"celsius": (0.0, 1.0), "kelvin": (273.15, 1.0), "fahrenheit": (32.0, 1.8)}

MET_FROM = "meteorological_from"
MATH_TOWARD = "math_toward"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SchemaConfig:
    """Column mapping, units, and policies for one CSV layout."""

    columns: dict  # role -> column name; 'station' optional
    units: dict  # role -> unit string (speed/direction/temperature/pressure)
    direction_convention: str = MET_FROM
    sentinels: tuple = (-999.0,)
    expected_per_hour: int = 12
    min_fraction: float = 0.75

    def __post_init__(self):
        for role in ("time", "speed", "direction", "temperature", "pressure"):
            if role not in self.columns:
                raise InvalidInputError(f"schema lacks a column for role {role!r}")
        if self.direction_convention not in (MET_FROM, MATH_TOWARD):
            raise InvalidInputError(
                f"unknown direction convention {self.direction_convention!r}"
            )
        if self.expected_per_hour < 1 or not 0.0 < self.min_fraction <= 1.0:
            raise InvalidInputError("bad completeness policy")
        checks = (
            ("speed", _SPEED_FACTORS.keys()),
            ("direction", _DIRECTION_UNITS),
            ("temperature", _TEMPERATURE_AFFINE.keys()),
            ("pressure", _PRESSURE_FACTORS.keys()),
        )
        for role, known in checks:
            unit = self.units.get(role)
            if unit is None:
                raise LoadError(f"no unit declared for {role!r}")
            if unit not in known:
                raise LoadError(f"undeclared {role} unit {unit!r}; known: {sorted(known)}")

    @property
    def min_records(self) -> int:
        return math.ceil(self.min_fraction * self.expected_per_hour)


#: Canonical hourly layout this package emits and re-reads.
CANONICAL_SCHEMA = SchemaConfig(
    columns={
        "time": "time_utc",
        "station": "station",
        "speed": "wind_speed_ms",
        "direction": "wind_dir_deg",
        "temperature": "temp_c",
        "pressure": "pressure_hpa",
    },
    units={"speed": "m_s", "direction": "deg", "temperature": "celsius", "pressure": "hpa"},
    direction_convention=MET_FROM,
    expected_per_hour=1,
)


@dataclass
class RawRecords:
    """Parsed sub-hourly rows in canonical units before hourly aggregation;
    a role that was not read is None."""

    times_min: np.ndarray  # int64 epoch minutes
    speed: np.ndarray | None = None
    direction: np.ndarray | None = None  # math radians [0, 2*pi)
    temperature: np.ndarray | None = None
    pressure: np.ndarray | None = None
    n_malformed: int = 0


def _to_canonical(role: str, values: np.ndarray, schema: SchemaConfig) -> np.ndarray:
    unit = schema.units[role]
    if role == "direction":
        rad = np.radians(values) if unit == "deg" else values
        if schema.direction_convention == MET_FROM:
            # bearing the wind blows FROM (clockwise from north) -> travel
            # direction (counterclockwise from east)
            rad = 1.5 * math.pi - rad
        return rad % (2.0 * math.pi)
    if role == "temperature":
        offset, divisor = _TEMPERATURE_AFFINE[unit]
        return (values - offset) / divisor
    return values * (_SPEED_FACTORS if role == "speed" else _PRESSURE_FACTORS)[unit]


def read_raw(path, schema: SchemaConfig, station_id: str | None = None,
             roles: Sequence[str] = FIELD_ROLES) -> RawRecords:
    """Parse one CSV into canonical-unit records of the measured ``roles``;
    the file's other columns are not read, and their roles are None.

    Rows with a malformed numeric field among those read are counted and
    their bad fields read as missing; an unparseable timestamp or a missing
    schema column is a hard LoadError carrying the offending line number.
    """
    cols = schema.columns
    keep = (cols["station"], station_id) if station_id is not None and "station" in cols else None
    kinds = {cols["time"]: "time"}
    if keep is not None:
        kinds[cols["station"]] = "str"
    kinds.update((cols[role], "float") for role in roles)
    table = read_columns(path, kinds, keep=keep, lenient=True)
    values = {}
    for role in roles:
        raw = table[cols[role]]
        missing = np.isin(raw, schema.sentinels) | ~np.isfinite(raw)
        with np.errstate(invalid="ignore"):
            values[role] = np.where(missing, np.nan, _to_canonical(role, raw, schema))
    return RawRecords(times_min=table[cols["time"]], **values,
                      n_malformed=int(table.malformed.sum()))


def hourly_average(raw: RawRecords, schema: SchemaConfig, meta: StationMeta) -> StationSeries:
    """Aggregate sub-hourly records to an hourly StationSeries.

    Emits a contiguous hourly grid from the first to the last observed
    hour; hours failing the completeness rule are NaN.
    """
    if raw.times_min.size == 0:
        raise LoadError(f"station {meta.id}: no parseable records")
    hours = raw.times_min // 60
    start, end = int(hours.min()), int(hours.max()) + 1
    axis = np.arange(start, end, dtype=np.int64)
    pos = hours - start
    n = axis.size

    out = {}
    for name, values in (
        ("wind_speed", raw.speed),
        ("temperature", raw.temperature),
        ("pressure", raw.pressure),
    ):
        if values is None:  # not read
            continue
        finite = np.isfinite(values)
        counts = np.bincount(pos[finite], minlength=n)
        sums = np.bincount(pos[finite], weights=values[finite], minlength=n)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts
        mean[counts < schema.min_records] = np.nan
        out[name] = mean

    if raw.direction is not None:
        finite = np.isfinite(raw.direction)
        counts = np.bincount(pos[finite], minlength=n)
        sin_sum = np.bincount(pos[finite], weights=np.sin(raw.direction[finite]), minlength=n)
        cos_sum = np.bincount(pos[finite], weights=np.cos(raw.direction[finite]), minlength=n)
        direction = np.arctan2(sin_sum, cos_sum) % (2.0 * math.pi)
        direction[counts < schema.min_records] = np.nan
        out["wind_direction"] = direction

    return StationSeries(meta=meta, times=axis, **out)


def _load_station(path, schema: SchemaConfig, meta: StationMeta, roles: Sequence[str]):
    """read_raw + hourly_average for one station file; returns the series and
    the number of rows with a malformed numeric field."""
    raw = read_raw(path, schema, station_id=meta.id, roles=roles)
    return hourly_average(raw, schema, meta), raw.n_malformed


def write_station_csv(series: StationSeries, path, header_lines: Sequence[str] = ()) -> None:
    """Write the canonical hourly CSV (CANONICAL_SCHEMA layout)."""
    cols = CANONICAL_SCHEMA.columns
    # canonical files carry meteorological degrees
    with np.errstate(invalid="ignore"):
        direction = np.degrees((1.5 * math.pi - series.wind_direction) % (2.0 * math.pi))
    write_columns(path, [cols[r] for r in ROLES],
                  [iso_hours(series.times), [series.meta.id] * series.n, series.wind_speed,
                   direction, series.temperature, series.pressure], header_lines)


STATIONS_FILE_COLUMNS = ("station", "latitude_deg", "longitude_deg", "elevation_m")


def write_stations_csv(stations: Sequence[StationMeta], path) -> None:
    write_columns(path, STATIONS_FILE_COLUMNS,
                  [[m.id for m in stations], [float(m.latitude) for m in stations],
                   [float(m.longitude) for m in stations], [float(m.elevation) for m in stations]])


def read_stations_csv(path) -> list[StationMeta]:
    table = read_columns(path, dict(zip(STATIONS_FILE_COLUMNS, ("str", "float", "float", "float"))))
    return [StationMeta(id=i, latitude=lat, longitude=lon, elevation=z)
            for i, lat, lon, z in zip(*(table[c].tolist() for c in STATIONS_FILE_COLUMNS))]


def load_network_dir(directory, schema: SchemaConfig = CANONICAL_SCHEMA,
                     station_ids: Sequence[str] | None = None,
                     roles: Sequence[str] = FIELD_ROLES, pool=None):
    """Load a directory of per-station CSVs plus a stations.csv metadata file,
    in stations.csv order, reading only the measured ``roles`` (the series'
    other fields are None). With an executor ``pool``, each station file is
    read in a worker; the malformed-row warnings are logged here either way,
    one per station in that order."""
    meta_path = os.path.join(directory, "stations.csv")
    if not os.path.exists(meta_path):
        raise LoadError(f"no station metadata file: {meta_path}")
    metas = read_stations_csv(meta_path)
    if station_ids is not None:
        wanted = set(station_ids)
        metas = [m for m in metas if m.id in wanted]
        missing = wanted - {m.id for m in metas}
        if missing:
            raise LoadError(f"stations.csv lacks entries for {sorted(missing)}")
    paths = [os.path.join(directory, f"{meta.id}.csv") for meta in metas]
    for meta, path in zip(metas, paths):
        if not os.path.exists(path):
            raise LoadError(f"no data file for station {meta.id}: {path}")
    loaded = (pool.map if pool else map)(_load_station, paths, repeat(schema), metas,
                                         repeat(tuple(roles)))
    series = []
    for meta, path, (station, n_malformed) in zip(metas, paths, loaded):
        if n_malformed:
            log.warning("station %s: %d rows with a malformed numeric field in %s",
                        meta.id, n_malformed, path)
        series.append(station)
    return series
