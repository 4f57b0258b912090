"""Space-time truncated-normal regression for short-term wind speed.

The center parameter of the predictive distribution is the station's
diurnal component at the valid time plus a linear combination of
diurnal-residual predictors observed at the issue time: lagged residual
speeds at every station, lagged residualized direction cosines/sines,
lagged residual geostrophic wind speed (shared across the network), and
optionally the geostrophic direction pair and the 24-hour temperature
difference. The scale parameter is an affine function of the network
residual volatility,

    sigma_t = b0 + b1 * v_t,   b0, b1 > 0
    v_t = sqrt( (1/2S) * sum_s sum_{l=0,1} (yr[s,t-l] - yr[s,t-l-1])^2 )

Lag bundles are chosen once per target/horizon on the training record by
greedy forward selection under BIC on the least-squares center fit. Each
candidate is scored from the sub-block of one Gram matrix that its design
columns index; the candidate pool lists every lag family's columns per lag
and adds up each station's normal equations a chunk of rows at a time, so
no design of the whole selection period exists.
The variant (``VariantSpec``) fixes which lag families exist, whether the
geostrophic direction pair and the temperature difference are forced in, and
the diurnal method. A selection is the tuple of design column names BIC
kept, in pool order; a refit's design builds exactly those columns.

Coefficients are then estimated from a ``DesignBundle`` alone, on a sliding
window, by minimizing the mean CRPS of the resulting truncated normal
forecasts (Gneiting et al. 2006; Thorarinsdottir & Gneiting 2010) with
Levenberg-Marquardt-damped Newton steps on the analytic gradient and
Hessian, started from least squares; numpy.linalg factors each step, so a
fit loads nothing from scipy.optimize. The fit works in (log b0, r) with
b1 = r^2, which keeps b0, b1 > 0 without the flat log b1 -> -inf of a
logarithm. Its ``Coefficients`` follow the column order of the design they
were fitted on.

A ``ResidualState`` holds every series its variant uses less its diurnal
profile, fitted on the hours of one averaging window (``diurnal.window``),
and keeps the stations' speed profiles, which the targets' offsets read, as
24 hourly values each. The target stations of one variant share its residual states
and, in selection, one candidate pool per horizon (``CandidatePool``); a
refit's design covers only the rows that refit reads (``DesignBundle.build``
over a row span). Distinct variants, and disjoint station groups of one
variant, share only read-only inputs and can run in parallel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .diurnal import (
    DIURNAL_METHODS,
    TRIG,
    TRIG_TABLE,
    describe,
    fit_empirical,
    fit_trig,
    in_window,
)
from .errors import InvalidInputError, TrainingDataError
from .geostrophy import GeoWindSeries
from .predictive import _crps_grad
from .series import Network
from .timeutil import hours_of_day

MAX_LAG = 10
MAX_HORIZON = 6
SIGMA_FLOOR = 1e-8
FIT_GTOL = 1e-8  # gradient 2-norm at which a CRPS fit stops
FIT_MAXITER = 1000
MIN_ROWS_PER_PARAM = 10  # selection rows needed per candidate column
SELECTION_CHUNK_ROWS = 2048  # axis rows of the pool design built at a time

log = logging.getLogger(__name__)

#: model family name -> (include_gw, include_gw_direction, include_temp_diff)
VARIANT_FLAGS = {
    "TDD": (False, False, False),
    "TDDGW": (True, False, False),
    "TDDGWT": (True, False, True),
    "TDDGWD": (True, True, False),
    "TDDGWDT": (True, True, True),
}

PERSISTENCE = "PSS"


@dataclass(frozen=True)
class VariantSpec:
    """A model family plus the diurnal fitting method, e.g. 'TDDGW-MD'."""

    name: str
    include_gw: bool
    include_gw_direction: bool
    include_temp_diff: bool
    diurnal_method: str


def parse_variant(name: str) -> VariantSpec:
    base, _, suffix = name.partition("-")
    if base == PERSISTENCE:
        raise InvalidInputError("persistence has no regression variant spec")
    if base not in VARIANT_FLAGS:
        raise InvalidInputError(f"unknown model variant {name!r}")
    method = suffix if suffix else TRIG
    if method not in DIURNAL_METHODS:
        raise InvalidInputError(f"unknown diurnal method {method!r} in variant {name!r}")
    gw, gwd, tdiff = VARIANT_FLAGS[base]
    return VariantSpec(name, gw, gwd, tdiff, method)


def forecast_inputs(variants: Sequence[str]) -> tuple:
    """(station roles, whether geowind.csv is read): what a forecast of
    ``variants`` loads. Every variant reads speed, the regression variants
    direction too and those with the temperature difference temperature,
    in ingest's role order; those with the geostrophic wind, which every
    variant with its direction pair has, read geowind.csv."""
    specs = [parse_variant(v) for v in variants if v != PERSISTENCE]
    roles = ["speed"]
    if specs:
        roles.append("direction")
    if any(s.include_temp_diff for s in specs):
        roles.append("temperature")
    return tuple(roles), any(s.include_gw for s in specs)


@dataclass(frozen=True)
class Coefficients:
    """Center weights, aligned with the columns of the design they were fitted
    on, and scale parameters, fitted on ``n_rows`` rows of one window."""

    center: np.ndarray
    b0: float
    b1: float
    n_rows: int

    def __post_init__(self):
        if not (np.isfinite(self.b0) and np.isfinite(self.b1) and self.b0 > 0 and self.b1 > 0):
            raise InvalidInputError("scale coefficients b0, b1 must be finite and positive")


@dataclass
class ModelData:
    """Aligned modeling arrays for the feature-station set; an input that
    was not read (see ``forecast_inputs``) is None."""

    times: np.ndarray  # (n,) epoch hours, contiguous
    stations: list[str]
    speed: np.ndarray  # (S, n)
    cos_dir: np.ndarray | None
    sin_dir: np.ndarray | None
    temperature: np.ndarray | None
    gw_speed: np.ndarray | None  # (n,)
    gw_cos: np.ndarray | None
    gw_sin: np.ndarray | None
    tz_offset: int = 0

    def __post_init__(self):
        self.hod = hours_of_day(self.times, self.tz_offset)

    @property
    def n(self) -> int:
        return int(self.times.size)

    def station_index(self, station_id: str) -> int:
        try:
            return self.stations.index(station_id)
        except ValueError:
            raise InvalidInputError(f"station {station_id!r} not in model data") from None

    def index_of_time(self, eh: int) -> int:
        i = int(eh) - int(self.times[0])
        if not 0 <= i < self.n or self.times[i] != eh:
            raise InvalidInputError(f"epoch hour {eh} outside the data axis")
        return i

    @classmethod
    def from_network(cls, network: Network, geowind: GeoWindSeries | None,
                     station_ids: Sequence[str] | None = None,
                     tz_offset: int = 0) -> "ModelData":
        """The network's fields on its axis, with ``geowind`` aligned to it;
        a network field that was not read, or every geostrophic series when
        ``geowind`` is None, stays None."""
        net = network if station_ids is None else network.subset(list(station_ids))
        gw_speed = gw_cos = gw_sin = None
        if geowind is not None:
            gw_speed = np.full(net.times.size, np.nan)
            gw_cos = np.full(net.times.size, np.nan)
            gw_sin = np.full(net.times.size, np.nan)
            pos = np.searchsorted(net.times, geowind.times)
            ok = (pos < net.times.size) & (
                net.times[np.minimum(pos, net.times.size - 1)] == geowind.times)
            gw_speed[pos[ok]] = geowind.w_g[ok]
            gw_cos[pos[ok]] = np.cos(geowind.theta_g[ok])
            gw_sin[pos[ok]] = np.sin(geowind.theta_g[ok])
        direction, temperature = net.wind_direction, net.temperature
        return cls(
            times=net.times.copy(),
            stations=net.station_ids(),
            speed=net.wind_speed.copy(),
            cos_dir=None if direction is None else np.cos(direction),
            sin_dir=None if direction is None else np.sin(direction),
            temperature=None if temperature is None else temperature.copy(),
            gw_speed=gw_speed,
            gw_cos=gw_cos,
            gw_sin=gw_sin,
            tz_offset=tz_offset,
        )


def volatility(speed_residuals: np.ndarray) -> np.ndarray:
    """Network residual volatility v_t from an (S, n) residual-speed array.

    v_t pools the last two hourly changes at every station; entries without
    the full t, t-1, t-2 history are NaN.
    """
    resid = np.atleast_2d(np.asarray(speed_residuals, dtype=float))
    S, n = resid.shape
    sq = np.diff(resid, axis=1) ** 2  # (S, n-1); sq[:, t-1] = (yr_t - yr_{t-1})^2
    v = np.full(n, np.nan)
    if n >= 3:
        pooled = (sq[:, 1:] + sq[:, :-1]).sum(axis=0)  # aligned to t = 2..n-1
        v[2:] = np.sqrt(pooled / (2.0 * S))
    return v


def _at(series: np.ndarray, lo: int, hi: int, shift: int = 0) -> np.ndarray:
    """``series[t + shift]`` for the axis rows t in [lo, hi), NaN where
    t + shift falls off the axis."""
    a, b = lo + shift, hi + shift
    if 0 <= a and b <= series.size:
        return series[a:b]
    out = np.full(hi - lo, np.nan)
    ca, cb = max(a, 0), min(b, series.size)
    if ca < cb:
        out[ca - a:cb - a] = series[ca:cb]
    return out


@dataclass
class ResidualState:
    """The residualized arrays of one diurnal method and averaging window.

    Every series' profile is fitted on the hours of ``window`` alone (see
    ``diurnal.window``), which end at or before the fit time, so downstream
    features are leakage-free by construction. Under one method, equal
    windows give equal states. ``gw_r`` is None in the state of a variant
    without the geostrophic wind.
    """

    data: ModelData
    window: tuple  # (start | None, end, season | None), see diurnal.window
    speed_diurnal: np.ndarray  # (S, 24) diurnal speed of each station by hour of day
    speed_r: np.ndarray
    cos_r: np.ndarray
    sin_r: np.ndarray
    gw_r: np.ndarray | None
    vol: np.ndarray

    @classmethod
    def build(cls, data: ModelData, method: str, window: tuple, *,
              include_gw: bool) -> "ResidualState":
        """The residual arrays under ``method`` and ``window``: the geostrophic
        speed's only when ``include_gw``, so a variant without it neither
        needs geowind.csv nor fails on its gaps."""
        rows = in_window(window, data.times)
        hours = data.hod[rows]
        where = describe(method, window)

        def residual(values, series):
            """The series less its diurnal profile, and the profile."""
            if method == TRIG:
                profile = TRIG_TABLE @ fit_trig(hours, values[rows])
            else:
                profile = fit_empirical(hours, values[rows], f"{series} in the {where}")
            return values - profile[data.hod], profile

        speed_diurnal = np.empty((len(data.stations), 24))
        speed_r = np.empty_like(data.speed)
        cos_r = np.empty_like(data.cos_dir)
        sin_r = np.empty_like(data.sin_dir)
        for i, st in enumerate(data.stations):
            speed_r[i], speed_diurnal[i] = residual(data.speed[i], f"speed at {st}")
            cos_r[i], _ = residual(data.cos_dir[i], f"direction cosine at {st}")
            sin_r[i], _ = residual(data.sin_dir[i], f"direction sine at {st}")
        gw_r = residual(data.gw_speed, "geostrophic speed")[0] if include_gw else None
        return cls(data=data, window=window, speed_diurnal=speed_diurnal, speed_r=speed_r,
                   cos_r=cos_r, sin_r=sin_r, gw_r=gw_r, vol=volatility(speed_r))


def _regressors(state: ResidualState, variant: VariantSpec, max_lag: int) -> list:
    """Every candidate column of the variant after the intercept, in pool
    order, as (name, lag family, whole-axis series, lag): residual speed lags
    0..``max_lag`` of each station, then each station's residual direction
    lags (cos, then sin), the residual geostrophic lags when the variant has
    the geostrophic wind, and the geostrophic direction pair, in no family,
    when it has that."""
    data = state.data
    lags = range(max_lag + 1)
    columns = [(f"speed_r[{st}][{j}]", ("speed", st), state.speed_r[i], j)
               for i, st in enumerate(data.stations) for j in lags]
    columns += [(f"{trig}_r[{st}][{j}]", ("dir", st), series[i], j)
                for i, st in enumerate(data.stations) for j in lags
                for trig, series in (("cos", state.cos_r), ("sin", state.sin_r))]
    if variant.include_gw:
        columns += [(f"gw_r[{j}]", ("gw",), state.gw_r, j) for j in lags]
    if variant.include_gw_direction:
        columns += [("gw_cos[0]", None, data.gw_cos, 0), ("gw_sin[0]", None, data.gw_sin, 0)]
    return columns


def _design(columns: list, lo: int, hi: int, extra: Sequence = (),
            keep: np.ndarray | None = None) -> np.ndarray:
    """Design rows for the axis rows [lo, hi), or for those of them that
    ``keep`` selects: the intercept, each ``_regressors`` column, then the
    ``extra`` columns given on [lo, hi). The matrix is filled one column at
    a time, so no more than one column exists outside it. Lagged values are
    read from the whole-axis series, so the span needs no history before lo.
    """
    n = hi - lo if keep is None else int(np.count_nonzero(keep))
    X = np.empty((n, 1 + len(columns) + len(extra)))
    X[:, 0] = 1.0
    lagged = chain((_at(series, lo, hi, -lag) for _, _, series, lag in columns), extra)
    for c, col in enumerate(lagged, 1):
        X[:, c] = col if keep is None else col[keep]
    return X


def _temp_diff(data: ModelData, station: str, lo: int, hi: int) -> np.ndarray:
    """The station's 24-hour temperature difference on the axis rows [lo, hi)."""
    temp = data.temperature[data.station_index(station)]
    return _at(temp, lo, hi) - _at(temp, lo, hi, -24)


def _target_offset(state: ResidualState, station: str, k: int, lo: int, hi: int):
    """Observed speed at the valid time t+k of each issue row t in [lo, hi),
    and the station's diurnal component there. The component is clock
    arithmetic, defined for every issue hour whether or not the valid time
    has data yet."""
    si = state.data.station_index(station)
    target = _at(state.data.speed[si], lo, hi, k).copy()
    return target, state.speed_diurnal[si][(state.data.hod[lo:hi] + k) % 24]


@dataclass
class DesignBundle:
    """Design matrix of one selection on a span of the axis.

    Row t carries the regressors observed at issue time t; ``target``/
    ``offset`` refer to the valid time t+k (raw observed speed and the
    target station's diurnal component there). NaN rows signal missing
    features. Every value depends on its row alone, so the rows of a span
    equal the same rows of the whole-axis design bit for bit.
    """

    horizon: int
    names: tuple
    X: np.ndarray  # (rows, p) including leading intercept column
    target: np.ndarray  # (rows,)
    offset: np.ndarray  # (rows,)
    vol: np.ndarray  # (rows,)
    times: np.ndarray  # (rows,) issue times, contiguous
    _finite: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # rows whose features, target, offset and volatility are all finite;
        # each fit window is cut out of it (valid_rows)
        self._finite = (np.all(np.isfinite(self.X), axis=1) & np.isfinite(self.target)
                        & np.isfinite(self.offset) & np.isfinite(self.vol))

    @classmethod
    def build(cls, state: ResidualState, variant: VariantSpec, station: str, horizon: int,
              names: tuple, span: tuple | None = None) -> "DesignBundle":
        """The design of the columns ``names`` for the target ``station`` at
        ``horizon`` on the axis rows ``span`` = [lo, hi), the whole axis by
        default. ``names`` lists the intercept, candidate columns of the
        variant in pool order and, for the T variants, ``temp_diff_24h``, as
        ``select_lags_bic`` returns them."""
        lo, hi = (0, state.data.n) if span is None else (int(span[0]), int(span[1]))
        chosen = set(names)
        columns = [col for col in _regressors(state, variant, MAX_LAG) if col[0] in chosen]
        built = ("intercept",) + tuple(col[0] for col in columns)
        extra = []
        if variant.include_temp_diff:
            built += ("temp_diff_24h",)
            extra.append(_temp_diff(state.data, station, lo, hi))
        if built != tuple(names):
            raise InvalidInputError(f"{names} are not design columns of variant "
                                    f"{variant.name} in pool order")
        target, offset = _target_offset(state, station, horizon, lo, hi)
        return cls(horizon=horizon, names=built, X=_design(columns, lo, hi, extra),
                   target=target, offset=offset, vol=state.vol[lo:hi],
                   times=state.data.times[lo:hi])

    def valid_rows(self, start_eh: int, end_eh: int) -> np.ndarray:
        """Indices of the rows with issue in [start, end-k] whose features,
        target, offset and volatility are all finite."""
        lo = int(np.searchsorted(self.times, int(start_eh)))
        hi = int(np.searchsorted(self.times, int(end_eh) - self.horizon, side="right"))
        return lo + np.flatnonzero(self._finite[lo:hi])


def bic_score(gram: np.ndarray, xty: np.ndarray, yty: float, n: int) -> float:
    """BIC n*ln(SSE/n) + p*ln(n) of the least-squares fit of y on n rows of a
    p-column design X, from its normal equations: ``gram`` = XᵀX, ``xty`` =
    Xᵀy and ``yty`` = yᵀy. SSE = yᵀy - xtyᵀβ with β the minimum-norm
    solution of gram β = xty, which a rank-deficient X also has.
    """
    p = gram.shape[0]
    coeffs, _, _, _ = np.linalg.lstsq(gram, xty, rcond=None)
    sse = max(float(yty - xty @ coeffs), 1e-300)
    return n * np.log(sse / n) + p * np.log(n)


@dataclass
class CandidatePool:
    """The BIC candidate columns of one variant and horizon on the selection
    rows, shared by every target station.

    ``columns`` lists the intercept's followers as ``_regressors`` gives them:
    every lag bundle up to ``max_lag`` and the geostrophic direction pair
    when the variant has it. The pool rows are the rows of ``span`` whose
    issue and valid times fall inside the selection window and where
    ``finite`` holds, i.e. every column is finite. No design matrix is kept:
    the first ``normal_equations`` call builds the pool design
    ``SELECTION_CHUNK_ROWS`` rows at a time and adds each chunk's products
    into the normal equations of every station of the data. A target station
    adds only its target, offset and, when the variant has it, its
    ``temp_diff_24h`` column. ``families`` maps each lag family to its
    columns per lag.
    """

    state: ResidualState
    variant: VariantSpec
    horizon: int
    max_lag: int
    columns: list
    names: tuple
    families: dict
    span: tuple  # axis rows [lo, hi) with issue and valid time in the window
    finite: np.ndarray  # (hi - lo,) rows where every pool column is finite
    _equations: dict | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, state: ResidualState, variant: VariantSpec, horizon: int,
              window: tuple, max_lag: int = MAX_LAG) -> "CandidatePool":
        """The pool for selection on ``window`` = (start, end) epoch hours."""
        data = state.data
        t0 = int(data.times[0])
        lo = min(max(int(window[0]) - t0, 0), data.n)
        hi = min(max(int(window[1]) - horizon + 1 - t0, lo), data.n)
        columns = _regressors(state, variant, max_lag)
        families = {}
        finite = np.ones(hi - lo, dtype=bool)
        for c, (_, family, series, lag) in enumerate(columns, 1):
            if family is not None:
                families.setdefault(family, [[] for _ in range(max_lag + 1)])[lag].append(c)
            finite &= np.isfinite(_at(series, lo, hi, -lag))
        return cls(state=state, variant=variant, horizon=horizon, max_lag=max_lag,
                   columns=columns, names=("intercept",) + tuple(col[0] for col in columns),
                   families=families, span=(lo, hi), finite=finite)

    def normal_equations(self, station: str) -> tuple:
        """(names, XᵀX, Xᵀy, yᵀy, n) over the station's selection rows: the
        pool rows where its target, offset and temperature difference are
        finite too, with y the target less the offset."""
        if self._equations is None:
            self._equations = self._accumulate()
        try:
            return self._equations[station]
        except KeyError:
            raise InvalidInputError(f"station {station!r} not in model data") from None

    def _accumulate(self) -> dict:
        """{station: normal equations} for every station of the data, in one
        pass over the pool rows, ``SELECTION_CHUNK_ROWS`` axis rows at a time.
        The stations that keep every pool row and add no column share one
        XᵀX, and their Xᵀy come from one product with their stacked y; every
        other station adds up its own XᵀX from the chunk rows it keeps."""
        lo, hi = self.span
        data = self.state.data
        names = self.names + ("temp_diff_24h",) * self.variant.include_temp_diff
        # None, or a station that has its own rows or column -> (rows kept,
        # added column or None, stations, their y)
        groups = {}
        for station in data.stations:
            target, offset = _target_offset(self.state, station, self.horizon, lo, hi)
            keep = self.finite & np.isfinite(target) & np.isfinite(offset)
            temp = None
            if self.variant.include_temp_diff:
                temp = _temp_diff(data, station, lo, hi)
                keep &= np.isfinite(temp)
            key = None if temp is None and np.array_equal(keep, self.finite) else station
            _, _, members, ys = groups.setdefault(key, (keep, temp, [], []))
            members.append(station)
            ys.append(target - offset)
        p = len(names)
        sums = {key: (np.zeros((p, p)), np.zeros((p, len(g[2])))) for key, g in groups.items()}
        for a in range(0, hi - lo, SELECTION_CHUNK_ROWS):
            b = min(a + SELECTION_CHUNK_ROWS, hi - lo)
            rows = self.finite[a:b]
            # a T variant's last column holds each station's temp_diff_24h in turn
            slot = [np.zeros(b - a)] if self.variant.include_temp_diff else []
            X = _design(self.columns, lo + a, lo + b, slot, keep=rows)
            for key, (keep, temp, _, ys) in groups.items():
                mine = keep[a:b]
                if temp is not None:
                    X[:, -1] = temp[a:b][rows]
                Xg = X if mine[rows].all() else X[mine[rows]]
                gram, xty = sums[key]
                gram += Xg.T @ Xg
                xty += Xg.T @ np.column_stack([y[a:b][mine] for y in ys])
                del Xg
            del X  # before the next chunk's design is built
        equations = {}
        for key, (keep, _, members, ys) in groups.items():
            gram, xty = sums[key]
            for j, (station, y) in enumerate(zip(members, ys)):
                kept = y[keep]
                equations[station] = (names, gram, xty[:, j], float(kept @ kept), kept.size)
        return equations


def select_lags_bic(pool: CandidatePool, target_station: str) -> tuple:
    """Greedy forward selection of contiguous lag bundles under BIC: the
    names of the design columns kept, in pool order.

    Candidate families are residual speed and direction per station plus
    the shared geostrophic wind (when the variant includes it); each step
    extends one family by its next lag, starting at lag 0, and the step
    with the lowest BIC is kept while it improves on the incumbent.
    Geostrophic-direction and temperature-difference columns are fixed by
    the variant, not selected. Deterministic given the data.

    The Gram matrix of the pool over the station's selection rows is formed
    once, by the pool's pass over its rows (and shared with the pool's other
    stations where it can be); each candidate is scored from the sub-block of
    its columns: the forced ones, then each family's lags 0..q, in pool order.
    """
    names, gram, xty, yty, n = pool.normal_equations(target_station)
    p_max = len(names)
    if n < MIN_ROWS_PER_PARAM * p_max:
        raise TrainingDataError(
            f"selection window has {n} rows for {p_max} candidate parameters "
            f"(need >= {MIN_ROWS_PER_PARAM} per parameter)"
        )
    forced = [names.index(nm) for nm in ("intercept", "gw_cos[0]", "gw_sin[0]", "temp_diff_24h")
              if nm in names]
    chosen = dict.fromkeys(pool.families, -1)

    def kept():
        return forced + [c for fam, q in chosen.items()
                         for lag in pool.families[fam][:q + 1] for c in lag]

    def score():
        idx = kept()
        return bic_score(gram[np.ix_(idx, idx)], xty[idx], yty, n)

    best = score()
    while True:
        best_fam, best_bic = None, best
        for fam in chosen:
            q = chosen[fam]
            if q + 1 > pool.max_lag:
                continue
            chosen[fam] = q + 1
            candidate = score()
            chosen[fam] = q
            if candidate < best_bic:
                best_fam, best_bic = fam, candidate
        if best_fam is None:
            break
        chosen[best_fam] += 1
        best = best_bic

    return tuple(names[c] for c in sorted(kept()))


def _initial_point(X, y_resid, vol):
    """Least-squares start plus a moment-matched affine scale model."""
    coeffs, _, _, _ = np.linalg.lstsq(X, y_resid, rcond=None)
    resid = y_resid - X @ coeffs
    s = float(resid.std())
    abs_e = np.abs(resid) * np.sqrt(np.pi / 2.0)  # E|N(0,s)| = s*sqrt(2/pi)
    vbar = float(vol.mean())
    var_v = float(vol.var())
    if var_v > 1e-12:
        b1 = float(np.cov(abs_e, vol, bias=True)[0, 1] / var_v)
        b0 = float(abs_e.mean() - b1 * vbar)
    else:
        b1, b0 = 0.0, float(abs_e.mean())
    floor = max(0.05 * s, 1e-4)
    b0 = max(b0, floor)
    b1 = max(b1, floor / max(vbar, 1.0))
    return np.concatenate([coeffs, [np.log(b0), np.log(b1)]])


def _crps_derivatives(theta, X, y, offset, vol):
    """Window CRPS at theta = (center, log b0, r) with its gradient and
    Hessian, chained through mu = offset + X center and
    sigma = max(b0 + r^2 vol, SIGMA_FLOOR); the scale terms are zero on rows
    where the floor binds. A point where any of the three is not finite gets
    (1e12, 0, 0)."""
    n, p_center = X.shape
    mu = offset + X @ theta[:p_center]
    r = theta[p_center + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        b0 = np.exp(theta[p_center])
        raw = b0 + r * r * vol
        sigma = np.maximum(raw, SIGMA_FLOOR)
        crps, d_mu, d_sigma, h_mm, h_ms, h_ss = _crps_grad(mu, sigma, y, hessian=True)
        val = float(np.mean(crps))
        free = raw > SIGMA_FLOOR
        d_sigma, h_ms, h_ss = (np.where(free, d, 0.0) for d in (d_sigma, h_ms, h_ss))
        # d sigma / d (log b0, r) per row; its second derivatives are b0 and 2 v
        j_scale = np.column_stack([np.full(n, b0), 2.0 * r * vol])
        grad = np.concatenate([X.T @ d_mu, d_sigma @ j_scale]) / n
        hess = np.empty((p_center + 2, p_center + 2))
        hess[:p_center, :p_center] = X.T @ (h_mm[:, None] * X)
        hess[:p_center, p_center:] = X.T @ (h_ms[:, None] * j_scale)
        hess[p_center:, :p_center] = hess[:p_center, p_center:].T
        hess[p_center:, p_center:] = j_scale.T @ (h_ss[:, None] * j_scale) + np.diag(
            [b0 * d_sigma.sum(), 2.0 * (d_sigma @ vol)])
        hess /= n
    if not (np.isfinite(val) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return 1e12, np.zeros_like(theta), np.zeros_like(hess)
    return val, grad, hess


def _newton(derivatives, theta):
    """Minimize from theta by Newton steps with Levenberg-Marquardt damping.

    ``derivatives(theta)`` gives (value, gradient, Hessian). Each step solves
    (H + lam I) s = -g through a Cholesky factor. lam stays 0 while H is
    positive definite and steps pay off; it rises, from 1e-3 max|diag H|,
    when the factorisation fails or a step gains at most 1e-4 of the decrease
    its quadratic model predicts (such a step is not taken), and returns to
    0 after a step that gains more than 3/4 of it. Stops once the gradient's
    2-norm is at most FIT_GTOL, once 4 lam would overflow (no step can pay
    off any more), or after FIT_MAXITER iterations, each one factorisation
    attempt. Returns (theta, value, iterations, gradient norm).
    """
    val, grad, hess = derivatives(theta)
    eye = np.eye(theta.size)
    lam = 0.0
    for it in range(FIT_MAXITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= FIT_GTOL:
            return theta, val, it, gnorm
        try:
            chol = np.linalg.cholesky(hess + lam * eye)
        except np.linalg.LinAlgError:
            pass
        else:
            step = np.linalg.solve(chol.T, np.linalg.solve(chol, -grad))
            trial = derivatives(theta + step)
            predicted = -(grad @ step + 0.5 * step @ hess @ step)
            ratio = (val - trial[0]) / predicted if predicted > 0 else -np.inf
            if ratio > 1e-4:
                theta = theta + step
                val, grad, hess = trial
                if ratio > 0.75:
                    lam = 0.0
                continue
        lam = max(4.0 * lam, 1e-3 * float(np.max(np.abs(np.diag(hess)))))
        if not np.isfinite(4.0 * lam):
            return theta, val, it + 1, gnorm
    return theta, val, FIT_MAXITER, float(np.linalg.norm(grad))


def fit_crps(bundle: DesignBundle, window: tuple) -> Coefficients:
    """Minimum-CRPS coefficient estimation over a sliding window.

    Rows are the bundle's issue times in [window_start, window_end - horizon]
    with fully observed features, target, and volatility; rows with missing
    values are dropped. Damped Newton steps (``_newton``) minimize the mean
    CRPS from the least-squares start, on the analytic gradient and Hessian of
    ``_crps_derivatives`` in (center, log b0, r) with b1 = r^2; numpy.linalg
    factors the steps. The window CRPS stays curved in r where the optimum
    has b1 -> 0, which it is not in log b1. A fit that stops short of
    FIT_GTOL logs one warning.
    """
    rows = bundle.valid_rows(window[0], window[1])
    p_center = bundle.X.shape[1]
    n = rows.size
    if n < p_center + 2:
        raise TrainingDataError(
            f"window [{window[0]}, {window[1]}] has {n} usable rows for "
            f"{p_center + 2} coefficients"
        )
    X = bundle.X[rows]
    y = bundle.target[rows]
    offset = bundle.offset[rows]
    vol = bundle.vol[rows]

    x0 = _initial_point(X, y - offset, vol)
    x0[-1] = np.exp(0.5 * x0[-1])  # log b1 -> r
    theta, _, iterations, gnorm = _newton(
        lambda t: _crps_derivatives(t, X, y, offset, vol), x0)
    if gnorm > FIT_GTOL:
        log.warning("CRPS fit over window [%d, %d] did not converge after %d "
                    "iterations: gradient norm %.3g > %g", window[0], window[1],
                    iterations, gnorm, FIT_GTOL)
    return Coefficients(
        center=theta[:p_center].copy(),
        b0=float(np.exp(theta[p_center])),
        b1=float(theta[p_center + 1] ** 2),
        n_rows=n,
    )


def predict_params(coefficients: Coefficients, bundle: DesignBundle, rows) -> tuple:
    """(mu, sigma) arrays of the predictive distributions for the valid times
    of the bundle's ``rows`` (a slice or index array), NaN on rows whose
    features, volatility or offset are missing (the caller falls back to
    persistence there)."""
    X, vol, offset = bundle.X[rows], bundle.vol[rows], bundle.offset[rows]
    have = np.isfinite(X).all(axis=1) & np.isfinite(vol) & np.isfinite(offset)
    mu = np.full(vol.size, np.nan)
    sigma = np.full(vol.size, np.nan)
    # a (1, p) @ (p, 1) product per row rounds as x @ center; X @ center on the block does not
    mu[have] = offset[have] + (X[have][:, None, :] @ coefficients.center[:, None])[:, 0, 0]
    sigma[have] = np.maximum(coefficients.b0 + coefficients.b1 * vol[have], SIGMA_FLOOR)
    return mu, sigma
