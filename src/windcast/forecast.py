"""Rolling forecast engine.

Issues hourly 1- to 6-hour-ahead forecasts over a test period. Model
variants refit their coefficients on the sliding window at a configurable
cadence (default once per 24 issue times); every issue time between refits
reuses the latest fit. The information set at issue time t never contains
anything observed after t: diurnal profiles are built from earlier data,
fit windows end at the refit time, and features are lagged observations.

When a model cannot produce a distribution (missing features), the engine
falls back to persistence and flags the record; when even persistence has
no usable observation within one window length, the record is flagged
unavailable (NaN point).

One ``run_rolling`` call serves one variant at a group of target stations:
they share the lag-selection state, one candidate pool per horizon and
every refit state, and each refit design covers only the rows its refits
read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import groupby
from typing import Sequence

import numpy as np

from .csvio import read_columns, write_columns
from .errors import InvalidInputError, TrainingDataError
from .model import (
    CandidatePool,
    DesignBundle,
    ModelData,
    PERSISTENCE,
    ResidualState,
    VariantSpec,
    fit_crps,
    parse_variant,
    predict_params,
    select_lags_bic,
)
from .predictive import quantile_values
from .timeutil import iso_hours

FORECAST_CSV_COLUMNS = (
    "station", "issue_time", "horizon", "mu", "sigma", "point", "fallback", "observed",
)


@dataclass
class RollingConfig:
    window_days: int = 45
    refit_hours: int = 24
    max_lag: int = 10

    @property
    def window_hours(self) -> int:
        return 24 * self.window_days


@dataclass
class ForecastColumns:
    """Issued forecasts as columns, one record per row. mu/sigma are NaN when
    no distribution exists (persistence or fallback); observed is NaN until
    the valid time has data."""

    station: np.ndarray  # str
    issue_time: np.ndarray  # int64 epoch hours
    horizon: np.ndarray  # int64
    mu: np.ndarray
    sigma: np.ndarray
    point: np.ndarray
    fallback: np.ndarray  # bool
    observed: np.ndarray

    def __len__(self) -> int:
        return self.horizon.size

    @classmethod
    def concat(cls, parts: Sequence["ForecastColumns"]) -> "ForecastColumns":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def take(self, rows) -> "ForecastColumns":
        """The records selected by a boolean mask or an index array."""
        return ForecastColumns(*(getattr(self, f.name)[rows] for f in fields(self)))


def persistence(data: ModelData, station: str, test: tuple, horizons: Sequence[int],
                max_back_hours: int = 45 * 24) -> ForecastColumns:
    """Persistence forecasts for every issue hour in ``test`` = (start, end)
    and every horizon, ordered by issue hour, then horizon.

    The point is the latest finite speed at or before the issue hour, at any
    horizon: one forward fill of finite indices over the station's series.
    It is flagged as a fallback when that observation predates the issue
    hour, and is NaN when it lies more than ``max_back_hours`` back.
    """
    si = data.station_index(station)
    issue_times = np.arange(int(test[0]), int(test[1]), dtype=np.int64)
    horizons = np.asarray(horizons, dtype=np.int64)
    ti = np.arange(issue_times.size)
    if issue_times.size:  # the axis is contiguous, so both ends on it cover the period
        ti += data.index_of_time(issue_times[0])
        data.index_of_time(issue_times[-1])
    speed = data.speed[si]
    latest = np.maximum.accumulate(np.where(np.isfinite(speed), np.arange(data.n), -1))[ti]
    point = np.where((latest >= 0) & (ti - latest <= max_back_hours),
                     speed[np.maximum(latest, 0)], np.nan)
    vi = (ti[:, None] + horizons).ravel()
    observed = np.where(vi < data.n, speed[np.minimum(vi, data.n - 1)], np.nan)
    n = vi.size
    return ForecastColumns(
        station=np.full(n, station),
        issue_time=np.repeat(issue_times, horizons.size),
        horizon=np.tile(horizons, issue_times.size),
        mu=np.full(n, np.nan),
        sigma=np.full(n, np.nan),
        point=np.repeat(point, horizons.size),
        fallback=np.repeat(latest != ti, horizons.size),
        observed=observed,
    )


def _state_cache_key(method: str, fit_time: int):
    from .timeutil import season_index

    if method == "MD":
        return ("MD", int(fit_time))
    if method == "SMD":
        return ("SMD", int(season_index(fit_time)))
    return (method,)


def _selection(data: ModelData, variant: VariantSpec, stations: Sequence[str],
               horizons: Sequence[int], train: tuple, config: RollingConfig,
               selected: dict | None) -> tuple:
    """The residual state at the training end, and {station: {horizon:
    FeatureSpec}}: the specs in ``selected`` (same layout), and BIC selection
    on the training period for the rest. One candidate pool per horizon
    serves every station selected at it."""
    state = ResidualState.build(data, variant.diurnal_method, train[1], train,
                                config.window_days)
    specs = {st: dict((selected or {}).get(st, {})) for st in stations}
    for k in horizons:
        todo = [st for st in stations if k not in specs[st]]
        if todo:
            pool = CandidatePool.build(state, variant, k, train, config.max_lag)
            for st in todo:
                specs[st][k] = select_lags_bic(pool, st)
            del pool  # before the next horizon's pool is built
    return state, specs


def select_group(data: ModelData, variant: str, stations: Sequence[str],
                 horizons: Sequence[int], train: tuple,
                 config: RollingConfig = RollingConfig()) -> dict:
    """BIC-selected FeatureSpecs for one variant as {station: {horizon:
    spec}}, stations and horizons in the order given."""
    train = (int(train[0]), int(train[1]))
    _, specs = _selection(data, parse_variant(variant), stations, horizons, train, config,
                          None)
    return specs


def run_rolling(
    data: ModelData,
    variant: str,
    stations: Sequence[str],
    horizons: Sequence[int],
    train: tuple,
    test: tuple,
    config: RollingConfig = RollingConfig(),
    selected: dict | None = None,
) -> list:
    """All forecasts for one variant over the test period: one
    ForecastColumns per target station, in the order given, each ordered by
    issue hour, then horizon.

    ``selected`` may carry pre-selected FeatureSpecs as {station: {horizon:
    spec}} (from a saved training run); otherwise BIC selection runs on the
    training period first. The stations share every residual state: the one
    built for selection serves the refits while its cache key holds, and each
    later key is built once, in refit order. Under each state, a (station,
    horizon) design covers only the rows its refits and forecasts read.
    """
    train_start, train_end = int(train[0]), int(train[1])
    test_start, test_end = int(test[0]), int(test[1])
    if test_start < train_end:
        raise InvalidInputError("test period must start at or after the training period end")
    if train_end - train_start < config.window_hours:
        raise TrainingDataError(
            f"training history of {train_end - train_start} h is shorter than "
            f"the {config.window_hours} h sliding window"
        )
    horizons = sorted(set(int(k) for k in horizons))
    pss = [persistence(data, st, (test_start, test_end), horizons, config.window_hours)
           for st in stations]
    if variant == PERSISTENCE:
        return pss

    parsed = parse_variant(variant)
    method = parsed.diurnal_method
    state, specs = _selection(data, parsed, stations, horizons, (train_start, train_end),
                              config, selected)
    state_key = _state_cache_key(method, train_end)
    mu = [np.full(len(p), np.nan) for p in pss]
    sigma = [np.full(len(p), np.nan) for p in pss]
    t0 = int(data.times[0])
    n_k = len(horizons)

    refits = range(test_start, test_end, config.refit_hours)
    for key, group in groupby(refits, lambda at: _state_cache_key(method, at)):
        group = list(group)
        if key != state_key:
            state = ResidualState.build(data, method, group[0], (train_start, train_end),
                                        config.window_days)
            state_key = key
        # from the first fit window's start to the last issue hour under this state
        span = (max(group[0] - config.window_hours - t0, 0),
                min(group[-1] + config.refit_hours, test_end) - t0)
        for s, station in enumerate(stations):
            for j, k in enumerate(horizons):
                bundle = DesignBundle.build(state, specs[station][k], span)
                for refit_at in group:
                    coefficients = fit_crps(bundle, (refit_at - config.window_hours, refit_at))
                    end = min(refit_at + config.refit_hours, test_end)
                    # issue hours [refit_at, end) at horizon j, and their bundle rows
                    rows = slice((refit_at - test_start) * n_k + j, (end - test_start) * n_k, n_k)
                    mu[s][rows], sigma[s][rows] = predict_params(
                        coefficients, bundle, slice(refit_at - t0 - span[0], end - t0 - span[0]))

    out = []
    for p, m, sg in zip(pss, mu, sigma):
        # a distribution has finite mu; every other record falls back to persistence
        have = np.isfinite(m)
        point = p.point.copy()
        point[have] = quantile_values(m[have], sg[have], 0.5)  # vectorized medians
        out.append(replace(p, mu=m, sigma=sg, point=point, fallback=~have))
    return out


def write_records_csv(cols: ForecastColumns, path, header_lines: Sequence[str] = ()) -> None:
    write_columns(path, FORECAST_CSV_COLUMNS,
                  [cols.station, iso_hours(cols.issue_time), cols.horizon, cols.mu,
                   cols.sigma, cols.point, cols.fallback, cols.observed], header_lines)


def read_records_csv(path) -> "ForecastColumns":
    kinds = {"station": "str", "issue_time": "time", "horizon": "int", "mu": "float",
             "sigma": "float", "point": "float", "fallback": "int", "observed": "float"}
    table = read_columns(path, kinds)
    table["issue_time"] //= 60
    table["fallback"] = table["fallback"] != 0
    return ForecastColumns(**table)
