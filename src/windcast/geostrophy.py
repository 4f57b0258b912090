"""Geostrophic wind estimation from a surface pressure/temperature network.

Per hour: station pressures are reduced to the geopotential height of a
reference pressure surface with the hypsometric relation, systematic
per-station biases are removed, a plane is fitted to the height field by
least squares, and the horizontal height gradient is converted to the wind
that balances the pressure-gradient force against the Coriolis
acceleration:

    u_g = -(g0 / f) * dZ/dy        v_g = (g0 / f) * dZ/dx

Heights enter the plane fit as anomalies because height differences across
a mesoscale network are tiny compared to the absolute height; removing the
per-station mean also removes the time-mean wind, which is acceptable when
only variations matter and is configurable via ``MeanRemovalPolicy``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import read_columns, write_columns
from .errors import (
    InvalidInputError,
    RankDeficiencyError,
    UnsupportedLatitudeError,
)
from .series import Network, StationMeta
from .timeutil import iso_hours, month_index

EARTH_RADIUS_M = 6.371e6

#: Lowest latitude magnitude (degrees) at which the geostrophic balance is
#: allowed; closer to the equator 1/f blows up.
MIN_LATITUDE_DEG = 5.0

GEOWIND_CSV_COLUMNS = (
    "iso8601_utc_hour",
    "u_g",
    "v_g",
    "w_g",
    "theta_g_rad",
    "n_stations",
    "rms_residual",
)


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants for the hydrostatic/geostrophic relations.

    g0: gravitational acceleration, m s^-2
    gas_constant: gas constant for air, J K^-1 kg^-1
    omega: Earth rotation rate, rad s^-1
    p_ref: reference pressure surface, hPa
    """

    g0: float = 9.80665
    gas_constant: float = 287.0
    omega: float = 7.2921159e-5
    p_ref: float = 850.0

    def __post_init__(self):
        for name in ("g0", "gas_constant", "omega", "p_ref"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidInputError(f"constant {name} must be strictly positive")


class MeanRemovalPolicy(enum.Enum):
    """How per-station height biases are removed before the plane fit.

    MONTHLY is the operational default; NONE exists for synthetic
    round-trip tests where the generating field itself is the target.
    """

    NONE = "none"
    WHOLE_RECORD = "whole"
    MONTHLY = "monthly"


@dataclass(frozen=True)
class PlaneFit:
    """Least-squares plane Z(x, y) = a0 + a1*x + a2*y; arrays over hours when
    several hours sharing a station layout are fitted at once."""

    a0: float
    a1: float
    a2: float
    rms_residual: float
    n_stations: int


@dataclass
class GeoWindSeries:
    """Hourly geostrophic wind components for the network; NaN = missing."""

    times: np.ndarray
    u_g: np.ndarray
    v_g: np.ndarray
    w_g: np.ndarray
    theta_g: np.ndarray
    n_stations: np.ndarray
    rms_residual: np.ndarray

    @property
    def n(self) -> int:
        return int(self.times.size)

    def to_csv(self, path, header_lines: Sequence[str] = ()) -> None:
        write_columns(path, GEOWIND_CSV_COLUMNS,
                      [iso_hours(self.times), self.u_g, self.v_g, self.w_g, self.theta_g,
                       np.asarray(self.n_stations, dtype=np.int64), self.rms_residual],
                      header_lines, nonfinite=None)

    @classmethod
    def from_csv(cls, path) -> "GeoWindSeries":
        kinds = dict.fromkeys(GEOWIND_CSV_COLUMNS, "float")
        kinds.update({GEOWIND_CSV_COLUMNS[0]: "time", "n_stations": "int"})
        table = read_columns(path, kinds)
        return cls(table[GEOWIND_CSV_COLUMNS[0]] // 60,
                   *(table[c] for c in GEOWIND_CSV_COLUMNS[1:]))


def reduce_to_reference(p_i, z_i, t_bar_kelvin, const: PhysicalConstants = PhysicalConstants()):
    """Geopotential height of the reference pressure surface above one barometer.

    Integrated hydrostatic relation: Z = Z_i + (R * Tbar / g0) * ln(p_i / p_ref),
    with Tbar the layer-mean absolute temperature between p_i and p_ref.
    """
    p_i = np.asarray(p_i, dtype=float)
    t_bar = np.asarray(t_bar_kelvin, dtype=float)
    z_i = np.asarray(z_i, dtype=float)
    if np.any(p_i <= 0.0) or np.any(t_bar <= 0.0):
        raise InvalidInputError("pressure and absolute temperature must be positive")
    return z_i + (const.gas_constant * t_bar / const.g0) * np.log(p_i / const.p_ref)


def project_local(stations: Sequence[StationMeta], origin_lat: float, origin_lon: float):
    """Equirectangular projection of station positions about an origin.

    Returns (x, y) in meters, eastward/northward. Adequate for networks a
    few hundred kilometers across.
    """
    if abs(origin_lat) > 90.0 or abs(origin_lon) > 180.0:
        raise InvalidInputError("projection origin out of range")
    lat = np.array([m.latitude for m in stations], dtype=float)
    lon = np.array([m.longitude for m in stations], dtype=float)
    x = EARTH_RADIUS_M * math.cos(math.radians(origin_lat)) * np.radians(lon - origin_lon)
    y = EARTH_RADIUS_M * np.radians(lat - origin_lat)
    return x, y


def fit_plane(x, y, z) -> PlaneFit:
    """Least-squares plane through points (x, y, z); a (k, m) ``z`` fits m
    planes over the same k points at once, and the fit's fields are arrays.

    Uses the SVD pseudo-inverse rather than normal equations so
    near-collinear station layouts stay well conditioned. Raises
    RankDeficiencyError when the points do not determine a plane.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n = x.size
    if n < 3:
        raise RankDeficiencyError(f"need at least 3 points for a plane, got {n}")
    design = np.column_stack([np.ones(n), x, np.asarray(y, dtype=float)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if np.sum(s > s[0] * max(design.shape) * np.finfo(float).eps) < 3:
        raise RankDeficiencyError("collinear or degenerate station layout")
    coefs = ((vt.T / s) @ u.T) @ z
    rms = np.sqrt(np.mean((z - design @ coefs) ** 2, axis=0))
    return PlaneFit(coefs[0], coefs[1], coefs[2], rms, n)


def coriolis(latitude_deg: float, const: PhysicalConstants = PhysicalConstants()) -> float:
    """Coriolis parameter f = 2 * Omega * sin(latitude)."""
    if not np.isfinite(latitude_deg) or abs(latitude_deg) > 90.0:
        raise InvalidInputError(f"latitude {latitude_deg} out of range")
    if abs(latitude_deg) < MIN_LATITUDE_DEG:
        raise UnsupportedLatitudeError(
            f"|latitude| = {abs(latitude_deg):.2f} deg < {MIN_LATITUDE_DEG} deg: "
            "geostrophic balance unusable near the equator"
        )
    return 2.0 * const.omega * math.sin(math.radians(latitude_deg))


def geostrophic_from_plane(fit: PlaneFit, f: float, const: PhysicalConstants = PhysicalConstants()):
    """Geostrophic components (u_g, v_g) from fitted height gradients."""
    if f == 0.0:
        raise InvalidInputError("Coriolis parameter must be nonzero")
    scale = const.g0 / f
    return -scale * fit.a2, scale * fit.a1


def _nanmean(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """``np.nanmean`` without its RuntimeWarning, which ``np.errstate`` does
    not silence: a slice with no number (a month-long outage, an hour with no
    barometer) reads NaN. It sums and divides as nanmean does, bit for bit."""
    have = ~np.isnan(a)
    with np.errstate(invalid="ignore"):
        return (np.where(have, a, 0.0).sum(axis=axis, keepdims=keepdims)
                / have.sum(axis=axis, keepdims=keepdims))


def _station_anomalies(heights: np.ndarray, times: np.ndarray, policy: MeanRemovalPolicy):
    """Remove the per-station mean height according to the policy.

    heights: (S, n) with NaN where a station lacks a valid reduction.
    """
    if policy is MeanRemovalPolicy.NONE:
        return heights
    anomalies = np.array(heights, copy=True)
    if policy is MeanRemovalPolicy.WHOLE_RECORD:
        anomalies -= _nanmean(heights, axis=1, keepdims=True)
        return anomalies
    months = month_index(times)
    for m in np.unique(months):
        cols = months == m
        anomalies[:, cols] -= _nanmean(heights[:, cols], axis=1, keepdims=True)
    return anomalies


def estimate_series(
    network: Network,
    const: PhysicalConstants = PhysicalConstants(),
    policy: MeanRemovalPolicy = MeanRemovalPolicy.MONTHLY,
    min_stations: int = 3,
    latitude_deg: float | None = None,
    origin: tuple | None = None,
) -> GeoWindSeries:
    """Hourly geostrophic wind for a station network.

    Per hour, stations reporting both pressure and temperature contribute;
    the layer-mean temperature is the network average of those reports.
    Hours with fewer than ``min_stations`` contributors (or a degenerate
    layout) yield missing samples rather than failures. The Coriolis
    parameter is evaluated at ``latitude_deg`` and the local projection is
    taken about ``origin`` = (lat, lon); both default to the network
    centroid.

    Pure function of its inputs; safe to call concurrently on shared
    read-only networks.
    """
    if min_stations < 3:
        raise InvalidInputError("min_stations must be at least 3")
    lat, lon = origin if origin is not None else network.centroid()
    if latitude_deg is None:
        latitude_deg = lat
    f = coriolis(latitude_deg, const)
    x, y = project_local(network.stations, lat, lon)
    elev = np.array([m.elevation for m in network.stations])

    valid = np.isfinite(network.pressure) & np.isfinite(network.temperature)
    counts = valid.sum(axis=0)
    n = network.times.size

    # layer-mean absolute temperature per hour from contributing stations
    temp_k = np.where(valid, network.temperature + 273.15, np.nan)
    t_bar = _nanmean(temp_k, axis=0)
    usable = counts >= min_stations

    heights = np.full_like(network.pressure, np.nan)
    ok = valid & usable[None, :]
    if np.any(ok):
        rows, cols = np.nonzero(ok)
        heights[rows, cols] = reduce_to_reference(
            network.pressure[rows, cols], elev[rows], t_bar[cols], const
        )
    anomalies = _station_anomalies(heights, network.times, policy)

    u_g = np.full(n, np.nan)
    v_g = np.full(n, np.nan)
    rms = np.full(n, np.nan)
    n_used = np.zeros(n, dtype=np.int64)

    # group hours sharing a station-validity mask: one plane fit per layout
    codes = np.packbits(ok, axis=0).T  # (n, ceil(S/8)) byte signature per hour
    for signature in np.unique(codes[usable], axis=0):
        hours = np.nonzero(usable & np.all(codes == signature, axis=1))[0]
        members = ok[:, hours[0]]
        try:
            fit = fit_plane(x[members], y[members], anomalies[members][:, hours])
        except RankDeficiencyError:
            continue  # collinear layout: leave these hours missing
        u_g[hours], v_g[hours] = geostrophic_from_plane(fit, f, const)
        rms[hours] = fit.rms_residual
        n_used[hours] = fit.n_stations

    w_g = np.hypot(u_g, v_g)
    theta_g = np.arctan2(v_g, u_g)
    theta_g = np.where(np.isfinite(w_g), theta_g, np.nan)
    return GeoWindSeries(network.times.copy(), u_g, v_g, w_g, theta_g, n_used, rms)
