"""Seeded synthetic mesonet generator with known geostrophic ground truth.

The forward model runs the physics of the estimator in reverse: a
time-varying planar geopotential height field is prescribed, station
pressures are obtained by inverting the hypsometric relation with the same
network-mean temperature convention the estimator uses, and surface winds
are built as friction-damped, rotated copies of the (optionally lagged)
geostrophic wind plus a diurnal cycle and autoregressive noise, floored at
zero. Both the observable station network and the latent geostrophic truth
are returned, so estimation and forecasting can be scored against a known
answer.

All randomness flows from one numpy PCG64 generator seeded from the
config, making every dataset bit-reproducible.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import InvalidInputError
from .geostrophy import G0, GAS_CONSTANT, P_REF, GeoWindSeries, centroid, coriolis, project_local
from .ingest import write_station_csv, write_stations_csv
from .series import StationMeta, StationSeries
from .timeutil import epoch_hour, hours_of_day, iso_hours


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 20080101
    n_stations: int = 12  # barometer ring surrounding the domain center
    n_inner: int = 0  # extra target stations near the center
    domain_km: float = 350.0
    days: int = 30
    start: str = "2008-01-01T00:00"
    center_lat: float = 33.6
    center_lon: float = -100.8
    elevation_range_m: tuple = (600.0, 1000.0)
    base_height_m: float = 1500.0  # mean height of the reference pressure surface
    # geostrophic wind process: per-component AR(1)
    mean_wind: tuple = (2.0, 6.0)  # (u, v) m/s, prevailing southerly
    wind_std: float = 3.5  # stationary std per component
    wind_rho: float = 0.98  # hourly AR(1) coefficient of the gradients
    height_noise_m: float = 0.0  # iid per-station height noise
    kappa: float = 0.5  # friction speed factor in (0, 1]
    friction_angle_deg: float = 20.0  # cross-isobar turning of surface wind
    response_lag_hours: int = 2  # surface wind follows geostrophic wind this late
    diurnal_amplitude: float = 1.0  # m/s, surface speed cycle
    noise_sigma: float = 1.0  # stationary std of surface AR noise
    noise_rho: float = 0.7
    dir_noise_sigma: float = 0.25  # rad, AR(1) direction wobble
    temp_base_c: float = 15.0
    temp_seasonal_amp: float = 8.0
    temp_diurnal_amp: float = 5.0
    temp_noise_sigma: float = 1.5
    tz_offset_hours: int = -6

    def __post_init__(self):
        for f in fields(self):  # types first: a bool is an int, and text does not compare
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise InvalidInputError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))):
                raise InvalidInputError(f"{f.name} must be a number, got {value!r}")
            if f.type == "str" and not isinstance(value, str):
                raise InvalidInputError(f"{f.name} must be text, got {value!r}")
        epoch_hour(self.start)  # unparseable text is an InvalidInputError
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.kappa <= 1.0:
            raise InvalidInputError("kappa must lie in (0, 1]")
        for name in ("wind_std", "height_noise_m", "diurnal_amplitude",
                     "noise_sigma", "dir_noise_sigma", "temp_noise_sigma"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be nonnegative")
        if self.n_stations < 3:
            raise InvalidInputError("need at least 3 stations")
        if self.n_inner < 0:
            raise InvalidInputError("n_inner must be nonnegative")
        if not 0.0 <= self.wind_rho < 1.0 or not 0.0 <= self.noise_rho < 1.0:
            raise InvalidInputError("AR coefficients must lie in [0, 1)")
        if self.days < 1:
            raise InvalidInputError(f"days must be at least 1, got {self.days}")
        if not 0 <= self.response_lag_hours < 24 * self.days:
            raise InvalidInputError(
                f"response_lag_hours must lie in [0, {24 * self.days}), the archive's "
                f"hours, got {self.response_lag_hours}")


def _ar1(rng, n, mean, std, rho):
    """Stationary AR(1) path of length n. The recurrence runs on Python
    floats, which round as numpy float64 does, at a quarter of the cost."""
    innovation = std * math.sqrt(1.0 - rho * rho)
    x = mean + std * rng.standard_normal()
    shocks = innovation * rng.standard_normal(n - 1)
    path = [x]
    for shock in shocks.tolist():
        x = mean + rho * (x - mean) + shock
        path.append(x)
    return np.array(path)


def generate(config: SynthConfig):
    """Build (station series list, geostrophic truth) for the config."""
    rng = np.random.default_rng(config.seed)
    n = config.days * 24
    start = epoch_hour(config.start)
    times = np.arange(start, start + n, dtype=np.int64)
    hod = hours_of_day(times, config.tz_offset_hours)

    # deterministic placement: inner (target) stations near the center,
    # barometer stations on a jittered ring around them
    n_total = config.n_inner + config.n_stations
    radius = config.domain_km * 500.0  # km -> m, ring radius
    xs = np.empty(n_total)
    ys = np.empty(n_total)
    if config.n_inner:
        r_in = radius / 3.0 * np.sqrt(rng.uniform(0.1, 1.0, config.n_inner))
        ang_in = rng.uniform(0.0, 2.0 * np.pi, config.n_inner)
        xs[: config.n_inner] = r_in * np.cos(ang_in)
        ys[: config.n_inner] = r_in * np.sin(ang_in)
    ang = (2.0 * np.pi * np.arange(config.n_stations) / config.n_stations
           + rng.uniform(-0.3, 0.3, config.n_stations))
    r_ring = radius * (1.0 + rng.uniform(-0.1, 0.1, config.n_stations))
    xs[config.n_inner:] = r_ring * np.cos(ang)
    ys[config.n_inner:] = r_ring * np.sin(ang)
    lats = config.center_lat + np.degrees(ys / 6.371e6)
    lons = config.center_lon + np.degrees(xs / (6.371e6 * math.cos(math.radians(config.center_lat))))
    elevs = rng.uniform(*config.elevation_range_m, n_total)
    metas = [
        StationMeta(id=f"S{i + 1:02d}", latitude=float(lats[i]), longitude=float(lons[i]),
                    elevation=float(elevs[i]))
        for i in range(n_total)
    ]

    # the estimator's frame, so noiseless estimates reproduce the truth exactly
    centroid_lat, centroid_lon = centroid(metas)
    x, y = project_local(metas, centroid_lat, centroid_lon)
    f = coriolis(centroid_lat)

    u_g = _ar1(rng, n, config.mean_wind[0], config.wind_std, config.wind_rho)
    v_g = _ar1(rng, n, config.mean_wind[1], config.wind_std, config.wind_rho)
    a1 = v_g * f / G0  # dZ/dx
    a2 = -u_g * f / G0  # dZ/dy
    a0 = _ar1(rng, n, config.base_height_m, 10.0, 0.995)
    w_g = np.hypot(u_g, v_g)
    theta_g = np.arctan2(v_g, u_g)
    truth = GeoWindSeries(
        times=times.copy(), u_g=u_g, v_g=v_g, w_g=w_g, theta_g=theta_g,
        n_stations=np.full(n, n_total, dtype=np.int64),
        rms_residual=np.zeros(n),
    )

    # temperatures first: the pressure inversion needs the network mean
    year_phase = 2.0 * np.pi * (times - start) / 8766.0
    day_phase = 2.0 * np.pi * hod / 24.0
    temps = np.empty((n_total, n))
    for i in range(n_total):
        temps[i] = (
            config.temp_base_c
            + config.temp_seasonal_amp * np.sin(year_phase - 0.6 * np.pi)
            + config.temp_diurnal_amp * np.sin(day_phase - 0.75 * np.pi)
            + _ar1(rng, n, 0.0, config.temp_noise_sigma, 0.9)
        )
    t_bar_k = temps.mean(axis=0) + 273.15

    heights = a0[None, :] + np.outer(x, a1) + np.outer(y, a2)
    if config.height_noise_m > 0:
        heights = heights + config.height_noise_m * rng.standard_normal(heights.shape)
    pressure = P_REF * np.exp(G0 * (heights - elevs[:, None]) / (GAS_CONSTANT * t_bar_k[None, :]))

    # surface wind responds to the geostrophic wind of `lag` hours earlier
    lag = config.response_lag_hours
    w_lagged = np.concatenate([np.full(lag, w_g[0]), w_g[: n - lag]]) if lag else w_g
    th_lagged = np.concatenate([np.full(lag, theta_g[0]), theta_g[: n - lag]]) if lag else theta_g
    friction_rot = math.radians(config.friction_angle_deg)

    speed = np.empty((n_total, n))
    direction = np.empty((n_total, n))
    for i in range(n_total):
        amp = config.diurnal_amplitude * (1.0 + 0.2 * rng.standard_normal())
        cycle = amp * (np.sin(day_phase - 0.4 * np.pi) + 0.3 * np.sin(2.0 * day_phase))
        eta = _ar1(rng, n, 0.0, config.noise_sigma, config.noise_rho)
        speed[i] = np.maximum(0.0, config.kappa * w_lagged + cycle + eta)
        wobble = _ar1(rng, n, 0.0, config.dir_noise_sigma, 0.8)
        direction[i] = np.mod(th_lagged + friction_rot + wobble, 2.0 * np.pi)

    series = [
        StationSeries(
            meta=metas[i],
            times=times.copy(),
            wind_speed=speed[i],
            wind_direction=direction[i],
            temperature=temps[i],
            pressure=pressure[i],
        )
        for i in range(n_total)
    ]
    return series, truth


@functools.lru_cache(maxsize=1)
def _time_text(times: bytes) -> list:
    """``iso_hours`` of the int64 epoch hours in ``times``, a list its callers
    share and must not change. The stations of an archive share their time
    axis, so a process renders it once."""
    return iso_hours(np.frombuffer(times, np.int64))


def _write_station(series: StationSeries, path, header_lines, cache) -> None:
    write_station_csv(series, path, header_lines, cache, _time_text(series.times.tobytes()))


def write_dataset(config: SynthConfig, out_dir, pool=None, cache=None):
    """Generate and write station CSVs, stations.csv and truth.csv, and their
    sidecars to ``cache``; with an executor ``pool``, the station CSVs are
    written in its workers."""
    series, truth = generate(config)
    os.makedirs(out_dir, exist_ok=True)
    write_stations_csv([s.meta for s in series], os.path.join(out_dir, "stations.csv"), cache)
    written = (pool.map if pool else map)(
        _write_station, series,
        [os.path.join(out_dir, f"{s.meta.id}.csv") for s in series],
        [[f"synthetic station {s.meta.id} seed={config.seed}"] for s in series],
        repeat(cache))
    truth.to_csv(os.path.join(out_dir, "truth.csv"),
                 header_lines=[f"synthetic geostrophic truth seed={config.seed}"], cache=cache)
    list(written)  # the station files are complete, and a worker's error raised, here
    return series, truth

