"""Station data model: per-station hourly series and the aligned network view.

Internal conventions: wind speed in m/s, direction in mathematical radians
[0, 2*pi) (the direction the air moves toward, counterclockwise from east),
temperature in degrees Celsius, pressure in hPa. Missing values are NaN.
A field that was not read (a stage loads only the fields it uses) is None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

FIELDS = ("wind_speed", "wind_direction", "temperature", "pressure")


@dataclass(frozen=True)
class StationMeta:
    """Identity and siting of one surface station.

    ``elevation`` is the geopotential height of the barometer in meters
    above sea level.
    """

    id: str
    latitude: float
    longitude: float
    elevation: float

    def __post_init__(self):
        if not np.isfinite(self.latitude) or abs(self.latitude) > 90.0:
            raise InvalidInputError(f"station {self.id}: latitude {self.latitude} out of range")
        if not np.isfinite(self.longitude) or abs(self.longitude) > 180.0:
            raise InvalidInputError(f"station {self.id}: longitude {self.longitude} out of range")
        if not np.isfinite(self.elevation):
            raise InvalidInputError(f"station {self.id}: elevation must be finite")


@dataclass
class StationSeries:
    """Hourly observations for one station; NaN marks missing values, and
    None a field that was not read."""

    meta: StationMeta
    times: np.ndarray  # int64 epoch hours, strictly increasing
    wind_speed: np.ndarray | None = None
    wind_direction: np.ndarray | None = None  # radians [0, 2*pi)
    temperature: np.ndarray | None = None  # degC
    pressure: np.ndarray | None = None  # hPa

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        n = self.times.size
        for name in self.fields():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise InvalidInputError(f"{name} length {arr.shape} != times length {n}")
            setattr(self, name, arr)
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise InvalidInputError(f"station {self.meta.id}: times not strictly increasing")
        speeds = self.wind_speed
        if speeds is not None and np.any(speeds[np.isfinite(speeds)] < 0):
            raise InvalidInputError(f"station {self.meta.id}: negative wind speeds")

    @property
    def n(self) -> int:
        return int(self.times.size)

    def fields(self) -> list[str]:
        """The names in FIELDS of the fields that were read."""
        return [name for name in FIELDS if getattr(self, name) is not None]


@dataclass
class Network:
    """Several stations aligned on one contiguous hourly axis.

    Field arrays have shape (S, n) with NaN where a station did not report;
    a field that was not read is None.
    """

    times: np.ndarray
    stations: list[StationMeta]
    wind_speed: np.ndarray | None = None
    wind_direction: np.ndarray | None = None
    temperature: np.ndarray | None = None
    pressure: np.ndarray | None = None
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {m.id: i for i, m in enumerate(self.stations)}

    @classmethod
    def from_series(cls, series: Sequence[StationSeries]) -> "Network":
        if not series:
            raise InvalidInputError("empty network")
        start = min(int(s.times[0]) for s in series if s.n)
        end = max(int(s.times[-1]) for s in series if s.n) + 1
        times = np.arange(start, end, dtype=np.int64)
        n, S = times.size, len(series)
        names = series[0].fields()
        if any(s.fields() != names for s in series):
            raise InvalidInputError("stations read with different fields")
        arrays = {name: np.full((S, n), np.nan) for name in names}
        for i, s in enumerate(series):
            pos = s.times - start
            for name in names:
                arrays[name][i, pos] = getattr(s, name)
        return cls(times=times, stations=[s.meta for s in series], **arrays)

    def station_index(self, station_id: str) -> int:
        try:
            return self._index[station_id]
        except KeyError:
            raise InvalidInputError(f"unknown station {station_id!r}") from None

    def station_ids(self) -> list[str]:
        return [m.id for m in self.stations]

    def subset(self, station_ids: Sequence[str]) -> "Network":
        idx = [self.station_index(s) for s in station_ids]
        return Network(times=self.times, stations=[self.stations[i] for i in idx],
                       **{name: getattr(self, name)[idx] for name in FIELDS
                          if getattr(self, name) is not None})

    def centroid(self) -> tuple[float, float]:
        """Mean station latitude/longitude, the local projection origin."""
        lat = float(np.mean([m.latitude for m in self.stations]))
        lon = float(np.mean([m.longitude for m in self.stations]))
        return lat, lon
