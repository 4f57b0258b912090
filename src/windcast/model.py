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
greedy forward selection under BIC on the least-squares center fit, each
candidate scored from the normal equations of one Gram matrix; a saved
bundle holds that selection only. Coefficients are then estimated on a
sliding window by minimizing the mean CRPS of the resulting truncated
normal forecasts (Gneiting et al. 2006; Thorarinsdottir & Gneiting 2010)
with Levenberg-Marquardt-damped Newton steps on the analytic gradient and
Hessian, started from least squares; numpy.linalg factors each step, so a
fit loads nothing from scipy.optimize. The fit works in (log b0, r) with
b1 = r^2, which keeps b0, b1 > 0 without the flat log b1 -> -inf of a
logarithm.

The target stations of one variant share its residual states and, in
selection, one candidate pool per horizon (``CandidatePool``); a refit's
design covers only the rows that refit reads (``DesignBundle.build`` over a
row span). Distinct variants, and disjoint station groups of one variant,
share only read-only inputs and can run in parallel.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .diurnal import (
    EMPIRICAL_METHODS,
    TRIG,
    fit_empirical,
    fit_trig,
)
from .errors import InvalidInputError, LoadError, TrainingDataError
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
DIURNAL_METHODS = (TRIG,) + EMPIRICAL_METHODS

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


@dataclass(frozen=True)
class FeatureSpec:
    """Selected predictors for one target station and horizon.

    Lag entries are bundle maxima: a station present in ``speed_lags`` with
    value q contributes residual-speed lags 0..q.
    """

    target_station: str
    horizon: int
    speed_lags: Mapping[str, int] = field(default_factory=dict)
    direction_lags: Mapping[str, int] = field(default_factory=dict)
    include_gw: bool = False
    gw_lags: int = -1  # max lag when include_gw; -1 = no bundle selected
    include_gw_direction: bool = False
    include_temp_diff: bool = False
    diurnal_method: str = TRIG

    def __post_init__(self):
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise InvalidInputError(f"horizon {self.horizon} outside 1..{MAX_HORIZON}")
        for lags in (self.speed_lags, self.direction_lags):
            for st, q in lags.items():
                if not 0 <= q <= MAX_LAG:
                    raise InvalidInputError(f"lag {q} for {st} outside 0..{MAX_LAG}")
        if self.include_gw and self.gw_lags > MAX_LAG:
            raise InvalidInputError(f"geostrophic lag {self.gw_lags} outside 0..{MAX_LAG}")
        if self.diurnal_method not in DIURNAL_METHODS:
            raise InvalidInputError(f"unknown diurnal method {self.diurnal_method!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        return cls(**d)


@dataclass(frozen=True)
class Coefficients:
    """Fitted center weights (aligned with ``names``) and scale parameters."""

    names: tuple
    center: np.ndarray
    b0: float
    b1: float

    def __post_init__(self):
        if not (np.isfinite(self.b0) and np.isfinite(self.b1) and self.b0 > 0 and self.b1 > 0):
            raise InvalidInputError("scale coefficients b0, b1 must be finite and positive")
        if len(self.names) != np.asarray(self.center).size:
            raise InvalidInputError("coefficient names and values disagree in length")


@dataclass
class ModelData:
    """Aligned modeling arrays for the feature-station set."""

    times: np.ndarray  # (n,) epoch hours, contiguous
    stations: list[str]
    speed: np.ndarray  # (S, n)
    cos_dir: np.ndarray
    sin_dir: np.ndarray
    temperature: np.ndarray
    gw_speed: np.ndarray  # (n,)
    gw_cos: np.ndarray
    gw_sin: np.ndarray
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
    def from_network(cls, network: Network, geowind: GeoWindSeries,
                     station_ids: Sequence[str] | None = None,
                     tz_offset: int = 0) -> "ModelData":
        net = network if station_ids is None else network.subset(list(station_ids))
        gw_speed = np.full(net.times.size, np.nan)
        gw_cos = np.full(net.times.size, np.nan)
        gw_sin = np.full(net.times.size, np.nan)
        pos = np.searchsorted(net.times, geowind.times)
        ok = (pos < net.times.size) & (net.times[np.minimum(pos, net.times.size - 1)] == geowind.times)
        gw_speed[pos[ok]] = geowind.w_g[ok]
        gw_cos[pos[ok]] = np.cos(geowind.theta_g[ok])
        gw_sin[pos[ok]] = np.sin(geowind.theta_g[ok])
        return cls(
            times=net.times.copy(),
            stations=net.station_ids(),
            speed=net.wind_speed.copy(),
            cos_dir=np.cos(net.wind_direction),
            sin_dir=np.sin(net.wind_direction),
            temperature=net.temperature.copy(),
            gw_speed=gw_speed,
            gw_cos=gw_cos,
            gw_sin=gw_sin,
            tz_offset=tz_offset,
        )

    def truncated_at(self, eh: int) -> "ModelData":
        """Copy with every observation strictly after ``eh`` removed (audits)."""
        keep = self.times <= eh
        return ModelData(
            times=self.times[keep],
            stations=list(self.stations),
            speed=self.speed[:, keep],
            cos_dir=self.cos_dir[:, keep],
            sin_dir=self.sin_dir[:, keep],
            temperature=self.temperature[:, keep],
            gw_speed=self.gw_speed[keep],
            gw_cos=self.gw_cos[keep],
            gw_sin=self.gw_sin[keep],
            tz_offset=self.tz_offset,
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
    """Diurnal profiles plus residualized arrays, built for one fit time.

    Profiles come only from observations strictly before ``fit_time`` (and
    inside the training bounds for TRIG/SMD/YMD), so downstream features
    are leakage-free by construction.
    """

    data: ModelData
    method: str
    fit_time: int
    profiles: dict
    speed_r: np.ndarray
    cos_r: np.ndarray
    sin_r: np.ndarray
    gw_r: np.ndarray
    vol: np.ndarray

    @classmethod
    def build(cls, data: ModelData, method: str, fit_time: int,
              train_bounds: tuple, window_days: int = 45) -> "ResidualState":
        train_start, train_end = int(train_bounds[0]), int(train_bounds[1])
        fit_time = int(fit_time)

        def profile_for(values):
            if method == TRIG:
                mask = (data.times >= train_start) & (data.times < min(train_end, fit_time))
                return fit_trig(data.hod[mask], values[mask])
            return fit_empirical(data.times, values, data.hod, method, fit_time,
                                 window_days=window_days,
                                 training_end=train_end if method in ("SMD", "YMD") else None)

        profiles = {}
        S = len(data.stations)
        speed_r = np.empty_like(data.speed)
        cos_r = np.empty_like(data.cos_dir)
        sin_r = np.empty_like(data.sin_dir)
        for i, st in enumerate(data.stations):
            for key, raw, out in ((f"speed/{st}", data.speed, speed_r),
                                  (f"cos/{st}", data.cos_dir, cos_r),
                                  (f"sin/{st}", data.sin_dir, sin_r)):
                prof = profile_for(raw[i])
                profiles[key] = prof
                out[i] = raw[i] - prof.evaluate(data.hod)
        gw_prof = profile_for(data.gw_speed)
        profiles["gw_speed"] = gw_prof
        gw_r = data.gw_speed - gw_prof.evaluate(data.hod)
        return cls(data=data, method=method, fit_time=fit_time, profiles=profiles,
                   speed_r=speed_r, cos_r=cos_r, sin_r=sin_r, gw_r=gw_r,
                   vol=volatility(speed_r))


def _regressors(state: ResidualState, speed_lags: Mapping[str, int],
                direction_lags: Mapping[str, int], gw_lags: int,
                gw_direction: bool) -> tuple[list, list]:
    """Names of the regressors after the intercept, in design order, and the
    (whole-axis series, lag) each one reads: residual speed and direction
    lags 0..q of each station in the lag maps, residual geostrophic lags
    0..``gw_lags`` and, with ``gw_direction``, the geostrophic direction
    pair."""
    data = state.data
    names: list[str] = []
    sources: list[tuple] = []
    for st in data.stations:
        q = speed_lags.get(st)
        if q is None:
            continue
        i = data.station_index(st)
        for j in range(q + 1):
            names.append(f"speed_r[{st}][{j}]")
            sources.append((state.speed_r[i], j))
    for st in data.stations:
        q = direction_lags.get(st)
        if q is None:
            continue
        i = data.station_index(st)
        for j in range(q + 1):
            names += [f"cos_r[{st}][{j}]", f"sin_r[{st}][{j}]"]
            sources += [(state.cos_r[i], j), (state.sin_r[i], j)]
    for j in range(gw_lags + 1):
        names.append(f"gw_r[{j}]")
        sources.append((state.gw_r, j))
    if gw_direction:
        names += ["gw_cos[0]", "gw_sin[0]"]
        sources += [(data.gw_cos, 0), (data.gw_sin, 0)]
    return names, sources


def _design(sources: list, lo: int, hi: int, extra: Sequence = (),
            keep: np.ndarray | None = None) -> np.ndarray:
    """Design rows for the axis rows [lo, hi), or for those of them that
    ``keep`` selects: the intercept, each (series, lag) source, then the
    ``extra`` columns given on [lo, hi). The matrix is filled one column at
    a time, so no more than one column exists outside it. Lagged values are
    read from the whole-axis series, so the span needs no history before lo.
    """
    n = hi - lo if keep is None else int(np.count_nonzero(keep))
    X = np.empty((n, 1 + len(sources) + len(extra)))
    X[:, 0] = 1.0
    columns = chain((_at(series, lo, hi, -lag) for series, lag in sources), extra)
    for c, col in enumerate(columns, 1):
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
    data = state.data
    target = _at(data.speed[data.station_index(station)], lo, hi, k).copy()
    offset = state.profiles[f"speed/{station}"].evaluate((data.hod[lo:hi] + k) % 24)
    return target, offset


@dataclass
class DesignBundle:
    """Design matrix for one FeatureSpec on a span of the axis.

    Row t carries the regressors observed at issue time t; ``target``/
    ``offset`` refer to the valid time t+k (raw observed speed and the
    target station's diurnal component there). NaN rows signal missing
    features. Every value depends on its row alone, so the rows of a span
    equal the same rows of the whole-axis design bit for bit.
    """

    spec: FeatureSpec
    names: tuple
    X: np.ndarray  # (rows, p) including leading intercept column
    target: np.ndarray  # (rows,)
    offset: np.ndarray  # (rows,)
    vol: np.ndarray  # (rows,)
    times: np.ndarray  # (rows,) issue times, contiguous

    @classmethod
    def build(cls, state: ResidualState, spec: FeatureSpec,
              span: tuple | None = None) -> "DesignBundle":
        """The design on the axis rows ``span`` = [lo, hi), the whole axis by
        default."""
        lo, hi = (0, state.data.n) if span is None else (int(span[0]), int(span[1]))
        names, sources = _regressors(state, spec.speed_lags, spec.direction_lags,
                                     spec.gw_lags if spec.include_gw else -1,
                                     spec.include_gw_direction)
        extra = []
        if spec.include_temp_diff:
            names.append("temp_diff_24h")
            extra.append(_temp_diff(state.data, spec.target_station, lo, hi))
        target, offset = _target_offset(state, spec.target_station, spec.horizon, lo, hi)
        return cls(spec=spec, names=("intercept", *names), X=_design(sources, lo, hi, extra),
                   target=target, offset=offset, vol=state.vol[lo:hi],
                   times=state.data.times[lo:hi])

    def valid_rows(self, start_eh: int, end_eh: int, need_vol: bool = True) -> np.ndarray:
        """Indices of fully observed rows with issue in [start, end-k]."""
        k = self.spec.horizon
        mask = (self.times >= int(start_eh)) & (self.times + k <= int(end_eh))
        mask &= np.all(np.isfinite(self.X), axis=1)
        mask &= np.isfinite(self.target) & np.isfinite(self.offset)
        if need_vol:
            mask &= np.isfinite(self.vol)
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class TrainedModel:
    """Selected predictors plus coefficients fitted on ``n_rows`` rows of one
    window."""

    spec: FeatureSpec
    coefficients: Coefficients
    n_rows: int


BUNDLE_FORMAT_VERSION = 2


def save_bundle(spec: FeatureSpec, path, config_sha: str) -> None:
    """Write the selected spec as JSON, stamped with the digest of the run
    config."""
    bundle = {"format_version": BUNDLE_FORMAT_VERSION, "library_version": __version__,
              "spec": spec.to_dict(), "config_sha": config_sha}
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bundle(path, config_sha: str | None = None) -> FeatureSpec:
    """Read a bundle's spec, refusing one selected under another config than
    ``config_sha``, or stamped with none, as stale. ``config_sha=None`` is an
    inspection read: it skips the check. A bundle that is not JSON, or whose
    spec is missing or has fields FeatureSpec does not know, is a LoadError."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise LoadError(f"{path}: damaged bundle, not JSON ({exc}); re-run train") from None
    found = d.get("config_sha")
    if config_sha is not None and found != config_sha:
        raise LoadError(f"{path}: bundle trained under config {found or '(none recorded)'}, "
                        f"this run is config {config_sha}; re-run train")
    if d.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise InvalidInputError(f"unsupported bundle version {d.get('format_version')}")
    try:
        return FeatureSpec.from_dict(d["spec"])
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: damaged bundle spec ({type(exc).__name__}: {exc}); "
                        f"re-run train") from None


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

    ``X`` holds the intercept, every lag bundle up to ``max_lag`` and the
    geostrophic direction pair when the variant has it, on the rows whose
    issue and valid times fall inside the selection window and whose columns
    are all finite. A target station adds only its target, offset and, when
    the variant has it, its ``temp_diff_24h`` column (see
    ``normal_equations``).
    """

    state: ResidualState
    variant: VariantSpec
    horizon: int
    max_lag: int
    names: tuple
    span: tuple  # axis rows [lo, hi) with issue and valid time in the window
    finite: np.ndarray  # (hi - lo,) rows where every pool column is finite
    X: np.ndarray  # (finite rows, p)
    _gram: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, state: ResidualState, variant: VariantSpec, horizon: int,
              window: tuple, max_lag: int = MAX_LAG) -> "CandidatePool":
        """The pool for selection on ``window`` = (start, end) epoch hours."""
        data = state.data
        t0 = int(data.times[0])
        lo = min(max(int(window[0]) - t0, 0), data.n)
        hi = min(max(int(window[1]) - horizon + 1 - t0, lo), data.n)
        every = {st: max_lag for st in data.stations}
        names, sources = _regressors(state, every, every, max_lag if variant.include_gw else -1,
                                     variant.include_gw_direction)
        finite = np.ones(hi - lo, dtype=bool)
        for series, lag in sources:
            finite &= np.isfinite(_at(series, lo, hi, -lag))
        return cls(state=state, variant=variant, horizon=horizon, max_lag=max_lag,
                   names=("intercept", *names), span=(lo, hi), finite=finite,
                   X=_design(sources, lo, hi, keep=finite))

    def normal_equations(self, station: str) -> tuple:
        """(names, XᵀX, Xᵀy, yᵀy, n) over the station's selection rows: the
        pool rows where its target, offset and temperature difference are
        finite too, with y the target less the offset."""
        lo, hi = self.span
        target, offset = _target_offset(self.state, station, self.horizon, lo, hi)
        keep = self.finite & np.isfinite(target) & np.isfinite(offset)
        if self.variant.include_temp_diff:
            temp = _temp_diff(self.state.data, station, lo, hi)
            keep &= np.isfinite(temp)
        names, X = self.names, self.X
        own = keep[self.finite]
        if not own.all():
            X = X[own]
        if self.variant.include_temp_diff:
            names, X = names + ("temp_diff_24h",), np.column_stack([X, temp[keep]])
        if X is self.X:  # every pool row and no added column: one XᵀX for all such stations
            if self._gram is None:
                self._gram = X.T @ X
            gram = self._gram
        else:
            gram = X.T @ X
        y = target[keep] - offset[keep]
        return names, gram, X.T @ y, float(y @ y), y.size


def select_lags_bic(pool: CandidatePool, target_station: str) -> FeatureSpec:
    """Greedy forward selection of contiguous lag bundles under BIC.

    Candidate families are residual speed and direction per station plus
    the shared geostrophic wind (when the variant includes it); each step
    extends one family by its next lag, starting at lag 0, and the step
    with the lowest BIC is kept while it improves on the incumbent.
    Geostrophic-direction and temperature-difference columns are fixed by
    the variant, not selected. Deterministic given the data.

    The Gram matrix of the pool over the station's selection rows is formed
    once (and shared with the pool's other stations where it can be); each
    candidate is scored from its sub-block.
    """
    data = pool.state.data
    variant, horizon, max_lag = pool.variant, pool.horizon, pool.max_lag
    families: list[tuple] = [("speed", st) for st in data.stations]
    families += [("dir", st) for st in data.stations]
    if variant.include_gw:
        families.append(("gw",))

    names, gram, xty, yty, n = pool.normal_equations(target_station)
    p_max = len(names)
    if n < MIN_ROWS_PER_PARAM * p_max:
        raise TrainingDataError(
            f"selection window has {n} rows for {p_max} candidate parameters "
            f"(need >= {MIN_ROWS_PER_PARAM} per parameter)"
        )
    name_to_col = {nm: i for i, nm in enumerate(names)}

    forced = ["intercept"]
    if variant.include_gw_direction:
        forced += ["gw_cos[0]", "gw_sin[0]"]
    if variant.include_temp_diff:
        forced += ["temp_diff_24h"]

    def family_cols(fam, q):
        kind = fam[0]
        if kind == "speed":
            return [f"speed_r[{fam[1]}][{j}]" for j in range(q + 1)]
        if kind == "dir":
            out = []
            for j in range(q + 1):
                out += [f"cos_r[{fam[1]}][{j}]", f"sin_r[{fam[1]}][{j}]"]
            return out
        return [f"gw_r[{j}]" for j in range(q + 1)]

    chosen = {fam: -1 for fam in families}

    def spec_cols():
        names = list(forced)
        for fam in families:
            if chosen[fam] >= 0:
                names += family_cols(fam, chosen[fam])
        return names

    def score(names):
        idx = [name_to_col[nm] for nm in names]
        return bic_score(gram[np.ix_(idx, idx)], xty[idx], yty, n)

    best = score(spec_cols())
    while True:
        best_fam, best_bic = None, best
        for fam in families:
            q = chosen[fam]
            if q + 1 > max_lag:
                continue
            chosen[fam] = q + 1
            candidate = score(spec_cols())
            chosen[fam] = q
            if candidate < best_bic:
                best_fam, best_bic = fam, candidate
        if best_fam is None:
            break
        chosen[best_fam] += 1
        best = best_bic

    return FeatureSpec(
        target_station=target_station,
        horizon=horizon,
        speed_lags={fam[1]: q for fam, q in chosen.items() if fam[0] == "speed" and q >= 0},
        direction_lags={fam[1]: q for fam, q in chosen.items() if fam[0] == "dir" and q >= 0},
        include_gw=variant.include_gw,
        gw_lags=next((q for fam, q in chosen.items() if fam[0] == "gw"), -1),
        include_gw_direction=variant.include_gw_direction,
        include_temp_diff=variant.include_temp_diff,
        diurnal_method=variant.diurnal_method,
    )


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


def fit_crps(
    state: ResidualState,
    spec: FeatureSpec,
    window: tuple,
    bundle: DesignBundle | None = None,
) -> TrainedModel:
    """Minimum-CRPS coefficient estimation over a sliding window.

    Rows are issue times in [window_start, window_end - horizon] with fully
    observed features, target, and volatility; rows with missing values are
    dropped. Damped Newton steps (``_newton``) minimize the mean CRPS from
    the least-squares start, on the analytic gradient and Hessian of
    ``_crps_derivatives`` in (center, log b0, r) with b1 = r^2; numpy.linalg
    factors the steps. The window CRPS stays curved in r where the optimum
    has b1 -> 0, which it is not in log b1. A fit that stops short of
    FIT_GTOL logs one warning.
    """
    if bundle is None or bundle.spec != spec:
        bundle = DesignBundle.build(state, spec)
    rows = bundle.valid_rows(window[0], window[1])
    p_center = len(bundle.names)
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
    coefficients = Coefficients(
        names=bundle.names,
        center=theta[:p_center].copy(),
        b0=float(np.exp(theta[p_center])),
        b1=float(theta[p_center + 1] ** 2),
    )
    return TrainedModel(spec=spec, coefficients=coefficients, n_rows=n)


def predict_params(model: TrainedModel, bundle: DesignBundle, rows) -> tuple:
    """(mu, sigma) arrays of the predictive distributions for the valid times
    of the bundle's ``rows`` (a slice or index array), NaN on rows whose
    features, volatility or offset are missing (the caller falls back to
    persistence there)."""
    X, vol, offset = bundle.X[rows], bundle.vol[rows], bundle.offset[rows]
    c = model.coefficients
    have = np.isfinite(X).all(axis=1) & np.isfinite(vol) & np.isfinite(offset)
    mu = np.full(vol.size, np.nan)
    sigma = np.full(vol.size, np.nan)
    # one dot per row: X @ center on the block rounds differently on some rows
    mu[have] = offset[have] + np.array([x @ c.center for x in X[have]])
    sigma[have] = np.maximum(c.b0 + c.b1 * vol[have], SIGMA_FLOOR)
    return mu, sigma
