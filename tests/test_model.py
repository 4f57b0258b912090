"""Regression machinery: features, volatility, BIC selection, CRPS training."""

import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest

from windcast import diurnal
from windcast.errors import InvalidInputError, TrainingDataError
from windcast.model import (
    CandidatePool,
    Coefficients,
    DesignBundle,
    FIT_MAXITER,
    ModelData,
    ResidualState,
    SELECTION_CHUNK_ROWS,
    SIGMA_FLOOR,
    _crps_derivatives,
    _design,
    _initial_point,
    _newton,
    _target_offset,
    _temp_diff,
    bic_score,
    fit_crps,
    parse_variant,
    predict_params,
    select_lags_bic,
    volatility,
)
from windcast.predictive import _crps_grad, crps_values
from windcast.timeutil import epoch_hour

from conftest import make_model_data, truncated_at


def _ar1(rng, n, mean, std, rho):
    x = np.empty(n)
    x[0] = mean + std * rng.standard_normal()
    innov = std * math.sqrt(1 - rho * rho)
    for t in range(1, n):
        x[t] = mean + rho * (x[t - 1] - mean) + innov * rng.standard_normal()
    return x


def _make_data(speed_rows, gw=None, temps=None, start="2008-01-01T00:00",
               directions=None, tz_offset=0):
    speed = np.asarray(speed_rows, dtype=float)
    S, n = speed.shape
    t0 = epoch_hour(start)
    times = np.arange(t0, t0 + n, dtype=np.int64)
    rng = np.random.default_rng(1234)
    if directions is None:
        directions = rng.uniform(0, 2 * math.pi, (S, n))
    if gw is None:
        gw = np.full(n, 8.0)
    if temps is None:
        temps = np.full((S, n), 15.0)
    theta_g = rng.uniform(0, 2 * math.pi, n)
    return ModelData(
        times=times,
        stations=[f"S{i+1}" for i in range(S)],
        speed=speed,
        cos_dir=np.cos(directions),
        sin_dir=np.sin(directions),
        temperature=np.asarray(temps, dtype=float),
        gw_speed=np.asarray(gw, dtype=float),
        gw_cos=np.cos(theta_g),
        gw_sin=np.sin(theta_g),
        tz_offset=tz_offset,
    )


def _state(data, method, fit_time, train, window_days=45):
    """The residual state of ``method``'s averaging window at ``fit_time``."""
    return ResidualState.build(data, method,
                               diurnal.window(method, fit_time, train, window_days),
                               include_gw=True)


def _columns(speed=(), direction=(), gw=-1, forced=()):
    """Design column names in pool order: the intercept, residual speed
    lags 0..q and direction (cos, sin) lags 0..q of each (station, q) in
    ``speed`` and ``direction``, geostrophic lags 0..``gw``, then ``forced``."""
    names = ["intercept"]
    names += [f"speed_r[{st}][{j}]" for st, q in dict(speed).items() for j in range(q + 1)]
    names += [f"{trig}_r[{st}][{j}]" for st, q in dict(direction).items()
              for j in range(q + 1) for trig in ("cos", "sin")]
    names += [f"gw_r[{j}]" for j in range(gw + 1)]
    return tuple(names) + tuple(forced)


def _bundle(state, spec, span=None):
    """The design of ``spec`` = (variant, target station, horizon, column names)."""
    variant, station, k, names = spec
    return DesignBundle.build(state, parse_variant(variant), station, k, names, span)


class TestVolatility:
    def test_constant_residuals(self):
        assert volatility(np.full((3, 10), 2.5))[5] == 0.0

    def test_single_station_hand_value(self):
        # S=1, residuals (0, 1, 3): sqrt(((3-1)^2 + (1-0)^2) / 2) = sqrt(2.5)
        v = volatility(np.array([[0.0, 1.0, 3.0]]))
        assert v[2] == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert np.isnan(v[0]) and np.isnan(v[1])

    def test_homogeneous_of_degree_one(self):
        rng = np.random.default_rng(0)
        resid = rng.normal(0, 1, (4, 50))
        v1 = volatility(resid)
        v2 = volatility(2.0 * resid)
        np.testing.assert_allclose(v2[2:], 2.0 * v1[2:], rtol=1e-12)

    def test_missing_lag_propagates(self):
        resid = np.ones((2, 30))
        resid[0, 10] = np.nan
        v = volatility(resid)
        assert np.isnan(v[10]) and np.isnan(v[11]) and np.isnan(v[12])
        assert np.isfinite(v[13])


@pytest.fixture(scope="module")
def plain_state():
    rng = np.random.default_rng(42)
    n = 24 * 80
    speed = np.abs(rng.normal(6, 1.5, (2, n)))
    gw = np.abs(_ar1(rng, n, 8, 2, 0.95))
    temps = rng.normal(15, 4, (2, n))
    data = _make_data(speed, gw=gw, temps=temps)
    train = (int(data.times[0]), int(data.times[-1]) + 1)
    return _state(data, "YMD", train[1], train), train


class TestDesignBundle:
    def test_minimal_row_length(self, plain_state):
        state, _ = plain_state
        bundle = _bundle(state, ("TDD", "S1", 2, _columns({"S1": 0}, {"S1": 0})))
        # intercept, speed lag 0, cos lag 0, sin lag 0
        assert len(bundle.names) == bundle.X.shape[1] == 4

    def test_gw_bundle_adds_three(self, plain_state):
        state, _ = plain_state
        bundle = _bundle(state, ("TDDGW", "S1", 2, _columns({"S1": 0}, {"S1": 0}, gw=2)))
        assert len(bundle.names) == bundle.X.shape[1] == 7

    def test_temp_diff_zero_for_24h_periodic(self):
        n = 24 * 30
        hod = np.arange(n) % 24
        temps = 10.0 + 5.0 * np.sin(2 * np.pi * hod / 24.0)
        data = _make_data(np.full((1, n), 5.0), temps=temps[None, :])
        state = _state(data, "YMD", int(data.times[-1]) + 1,
                       (int(data.times[0]), int(data.times[-1]) + 1))
        bundle = _bundle(state, ("TDDGWT", "S1", 1, ("intercept", "temp_diff_24h")))
        col = bundle.X[:, list(bundle.names).index("temp_diff_24h")]
        assert np.allclose(col[24:], 0.0, atol=1e-12)

    def test_nesting(self, plain_state):
        state, _ = plain_state
        lags = ({"S1": 1, "S2": 0}, {"S1": 0})
        pair = ("gw_cos[0]", "gw_sin[0]")
        tdd = _bundle(state, ("TDD", "S1", 2, _columns(*lags)))
        tddgw = _bundle(state, ("TDDGW", "S1", 2, _columns(*lags, gw=1)))
        gwd = _bundle(state, ("TDDGWD", "S1", 2, _columns(*lags, gw=1, forced=pair)))
        gwdt = _bundle(state, ("TDDGWDT", "S1", 2,
                               _columns(*lags, gw=1, forced=pair + ("temp_diff_24h",))))
        # each design leads with the columns of the one before, value for value
        for small, large, added in ((tdd, tddgw, ("gw_r[0]", "gw_r[1]")), (tddgw, gwd, pair),
                                    (gwd, gwdt, ("temp_diff_24h",))):
            assert large.names == small.names + added
            p = len(small.names)
            assert large.X[:, :p].tobytes() == small.X.tobytes()

    @pytest.mark.parametrize("variant, names", [
        ("TDD", ("speed_r[S1][0]",)),
        ("TDD", ("intercept", "speed_r[S2][0]", "speed_r[S1][0]")),
        ("TDD", ("intercept", "speed_r[S1][11]")),
        ("TDD", ("intercept", "speed_r[S3][0]")),
        ("TDDGWT", ("intercept",)),
        ("TDDGWD", ("intercept", "gw_sin[0]", "gw_cos[0]")),
    ], ids=["no-intercept", "out-of-order", "past-max-lag", "unknown-station",
            "no-temp-diff", "direction-pair-swapped"])
    def test_names_outside_the_pool_refused(self, plain_state, variant, names):
        state, _ = plain_state
        with pytest.raises(InvalidInputError):
            _bundle(state, (variant, "S1", 2, names))


@pytest.fixture(scope="module")
def span_case():
    """Residual states on a 60-day axis and TDDGWDT columns of every kind."""
    data, _ = make_model_data(seed=13, days=60)
    bounds = (int(data.times[0]), int(data.times[0]) + 40 * 24)
    names = _columns({"S01": 10, "S02": 2}, {"S03": 1}, gw=4,
                     forced=("gw_cos[0]", "gw_sin[0]", "temp_diff_24h"))
    return data, bounds, names


class TestDesignSpan:
    """A design over a row span equals the same rows of the whole-axis one."""

    @pytest.mark.parametrize("method", ["TRIG", "MD"])
    @pytest.mark.parametrize("where", ["start", "end", "inside"])
    def test_rows_equal_the_whole_axis(self, span_case, method, where):
        data, bounds, names = span_case
        state = _state(data, method, bounds[1], bounds)
        spec = (f"TDDGWDT-{method}", "S02", 3, names)
        n = data.n
        # "start": lags and temp_diff_24h reach before the axis for its first
        # max_lag + 24 rows; "end": the last valid times fall off the axis
        lo, hi = {"start": (2, 30), "end": (n - 40, n - 1), "inside": (700, 900)}[where]
        full = _bundle(state, spec)
        part = _bundle(state, spec, (lo, hi))
        assert part.names == full.names == names
        for name in ("X", "target", "offset", "vol", "times"):
            a, b = getattr(part, name), getattr(full, name)[lo:hi]
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        # against the definitions, with the axis padded by NaN at both ends
        pad = np.full(10, np.nan)
        lag10 = np.concatenate([pad, state.speed_r[data.station_index("S01")]])[lo:hi]
        lead3 = np.concatenate([data.speed[data.station_index("S02")], pad])[lo + 3:hi + 3]
        assert part.X[:, part.names.index("speed_r[S01][10]")].tobytes() == lag10.tobytes()
        assert part.target.tobytes() == lead3.tobytes()
        assert np.isnan(part.target[-1]) == (where == "end")

    @pytest.mark.parametrize("where", ["start", "end"])
    def test_fit_and_forecasts_equal_the_whole_axis(self, span_case, where):
        data, bounds, names = span_case
        state = _state(data, "MD", bounds[1], bounds)
        spec = ("TDDGWDT-MD", "S02", 3, names)
        lo, hi = (0, 500) if where == "start" else (data.n - 500, data.n)
        window = (int(data.times[lo]), int(data.times[hi - 100]))
        full = _bundle(state, spec)
        part = _bundle(state, spec, (lo, hi))
        a = fit_crps(full, window)
        b = fit_crps(part, window)
        assert a.n_rows == b.n_rows
        assert a.center.tobytes() == b.center.tobytes()
        assert (a.b0, a.b1) == (b.b0, b.b1)
        whole = predict_params(a, full, slice(hi - 100, hi))
        spanned = predict_params(b, part, slice(hi - 100 - lo, hi - lo))
        for x, y in zip(whole, spanned):  # mu, then sigma
            assert x.tobytes() == y.tobytes()
        assert np.isfinite(whole[0]).sum() >= 90

    @pytest.mark.parametrize("span", [None, (300, 900)], ids=["whole-axis", "span"])
    def test_valid_rows_equal_the_per_window_mask(self, span_case, span):
        """valid_rows cuts each window out of the mask the bundle computed
        once; the rows equal those of the mask recomputed per window, also on
        a bundle that dataclasses.replace gave NaN holes."""
        data, bounds, names = span_case
        state = _state(data, "MD", bounds[1], bounds)
        rng = np.random.default_rng(3)
        bundle = _bundle(state, ("TDDGWDT-MD", "S02", 3, names), span)
        holes = {name: getattr(bundle, name).copy() for name in ("X", "target", "offset", "vol")}
        for name, values in holes.items():
            rows = rng.choice(bundle.times.size, 15, replace=False)
            if name == "X":
                values[rows, rng.integers(0, values.shape[1], rows.size)] = np.nan
            else:
                values[rows] = np.nan
        t0, t1 = int(bundle.times[0]), int(bundle.times[-1])
        windows = [(t0, t1 + 1), (t0 - 50, t0 + 100), (t1 - 200, t1 + 50), (t0 + 100, t0 + 400),
                   (t0 + 10, t0 + 13), (t0 + 10, t0 + 12), (t1 + 5, t1 + 90), (t0 + 50, t0 + 20)]
        for b in (bundle, dataclasses.replace(bundle, **holes)):
            for start, end in windows:
                k = b.horizon
                mask = (b.times >= start) & (b.times + k <= end)
                mask &= np.all(np.isfinite(b.X), axis=1)
                mask &= np.isfinite(b.target) & np.isfinite(b.offset) & np.isfinite(b.vol)
                want = np.nonzero(mask)[0]
                got = b.valid_rows(start, end)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), (start, end)
        # the holes drop rows the clean bundle keeps
        assert (b.valid_rows(t0, t1 + 1).size + 40
                < bundle.valid_rows(t0, t1 + 1).size)


class TestSpecValidation:
    @pytest.mark.parametrize("variant, gw_lags", [("PSS", -1), ("TDDXX", -1), ("TDD", 2),
                                                   ("TDD-MD", 0), ("TDDGW", 11),
                                                   ("TDDGW-MD", -2)])
    def test_variant_and_gw_lags(self, plain_state, variant, gw_lags):
        # a design takes only the geostrophic lags its variant's pool lists
        state, _ = plain_state
        with pytest.raises(InvalidInputError):
            _bundle(state, (variant, "S1", 2, ("intercept", f"gw_r[{gw_lags}]")))
        _bundle(state, ("TDDGW", "S1", 2, ("intercept",)))
        _bundle(state, ("TDDGW-MD", "S1", 2, _columns(gw=10)))

    def test_variant_parsing(self):
        v = parse_variant("TDDGWD-MD")
        assert (v.include_gw, v.include_gw_direction, v.include_temp_diff) == (
            True, True, False)
        assert v.diurnal_method == "MD"
        assert parse_variant("TDD").diurnal_method == "TRIG"
        assert parse_variant("TDDGWDT-YMD").include_temp_diff
        with pytest.raises(InvalidInputError):
            parse_variant("PSS")
        with pytest.raises(InvalidInputError):
            parse_variant("TDDXX")


def _design_bic(X, y):
    """``bic_score`` of the least-squares fit of y on the design X."""
    return bic_score(X.T @ X, X.T @ y, float(y @ y), X.shape[0])


def _lstsq_bic(X, y):
    """BIC n*ln(SSE/n) + p*ln(n) from a least-squares fit on the design itself."""
    n, p = X.shape
    coeffs, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    sse = max(float(np.sum((y - X @ coeffs) ** 2)), 1e-300)
    return n * np.log(sse / n) + p * np.log(n)


def oracle_select_lags_bic(state, target_station, horizon, variant, window,
                           max_lag=10, min_rows_per_param=10):
    """Greedy forward selection that refits ``lstsq`` on the columns of
    every candidate, as selection did before it scored from a Gram matrix."""
    data = state.data
    families = [("speed", st) for st in data.stations]
    families += [("dir", st) for st in data.stations]
    if variant.include_gw:
        families.append(("gw",))
    tail = []
    if variant.include_gw_direction:
        tail += ["gw_cos[0]", "gw_sin[0]"]
    if variant.include_temp_diff:
        tail += ["temp_diff_24h"]
    every = {st: max_lag for st in data.stations}
    pool = DesignBundle.build(state, variant, target_station, horizon,
                              _columns(every, every, max_lag if variant.include_gw else -1, tail))
    # rows in the window with finite features, target and offset; unlike a fit,
    # selection does not need the volatility
    k = pool.horizon
    rows = np.nonzero((pool.times >= window[0]) & (pool.times + k <= window[1])
                      & np.isfinite(pool.X).all(axis=1) & np.isfinite(pool.target)
                      & np.isfinite(pool.offset))[0]
    assert rows.size >= min_rows_per_param * len(pool.names)
    X = pool.X[rows]
    y = pool.target[rows] - pool.offset[rows]
    col = {nm: i for i, nm in enumerate(pool.names)}
    forced = ["intercept"] + tail

    def family_cols(fam, q):
        if fam[0] == "speed":
            return [f"speed_r[{fam[1]}][{j}]" for j in range(q + 1)]
        if fam[0] == "dir":
            return [nm for j in range(q + 1)
                    for nm in (f"cos_r[{fam[1]}][{j}]", f"sin_r[{fam[1]}][{j}]")]
        return [f"gw_r[{j}]" for j in range(q + 1)]

    chosen = {fam: -1 for fam in families}

    def score():
        names = list(forced)
        for fam in families:
            if chosen[fam] >= 0:
                names += family_cols(fam, chosen[fam])
        return _lstsq_bic(X[:, [col[nm] for nm in names]], y)

    best = score()
    while True:
        best_fam, best_bic = None, best
        for fam in families:
            q = chosen[fam]
            if q + 1 > max_lag:
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
    return _columns({f[1]: q for f, q in chosen.items() if f[0] == "speed" and q >= 0},
                    {f[1]: q for f, q in chosen.items() if f[0] == "dir" and q >= 0},
                    chosen.get(("gw",), -1), tail)


class TestBicSelection:
    def test_duplicate_column_never_helps(self, plain_state):
        state, _ = plain_state
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(500), rng.normal(0, 1, 500)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(0, 1, 500)
        base = _design_bic(X, y)
        duplicated = np.column_stack([X, X[:, 1]])
        assert _design_bic(duplicated, y) > base

    @pytest.mark.parametrize("collinear", [None, 1e-3])
    def test_gram_score_matches_design_lstsq(self, collinear):
        # the normal equations square the condition number: at a column
        # difference of 1e-5 the two scores part by about 5e-8 relative
        rng = np.random.default_rng(17)
        for p in (1, 2, 5, 20):
            X = np.column_stack([np.ones(800), rng.normal(0, 1, (800, p - 1))])
            if collinear and p > 2:
                X[:, -1] = X[:, 1] + collinear * rng.standard_normal(800)
            y = X @ rng.normal(0, 1, p) + rng.normal(0, 0.5, 800)
            assert _design_bic(X, y) == pytest.approx(_lstsq_bic(X, y), rel=1e-9)

    def test_rank_deficient_design_scores_like_lstsq(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(600), rng.normal(0, 1, (600, 3))])
        X = np.column_stack([X, X[:, 1], X[:, 2] - X[:, 3]])  # rank 4 of 6 columns
        y = X[:, :4] @ np.array([1.0, 0.5, -0.3, 0.2]) + rng.normal(0, 1, 600)
        assert _design_bic(X, y) == pytest.approx(_lstsq_bic(X, y), rel=1e-9)

    @pytest.mark.parametrize("variant", ["TDD", "TDDGW-MD", "TDDGWD", "TDDGWT-YMD",
                                         "TDDGWDT-SMD"])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_matches_lstsq_oracle(self, variant, seed):
        data, _ = make_model_data(seed=seed, days=100)
        vspec = parse_variant(variant)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, vspec.diurnal_method, bounds[1], bounds)
        for k in (1, 3):
            pool = CandidatePool.build(state, vspec, k, bounds)  # shared by both stations
            for station in ("S01", "S03"):
                spec = select_lags_bic(pool, station)
                assert spec == oracle_select_lags_bic(state, station, k, vspec, bounds)

    @pytest.mark.parametrize("variant", ["TDDGWDT-SMD", "TDDGWT-YMD"])
    def test_candidate_columns_keep_their_order(self, monkeypatch, variant):
        # lstsq on a permuted Gram block can round differently and flip a
        # near-tie, so every candidate lists its columns in one order: the
        # forced ones (intercept, geostrophic direction pair, temperature
        # difference), then its lag columns in pool order
        data, _ = make_model_data(seed=21, days=100)
        vspec = parse_variant(variant)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, vspec.diurnal_method, bounds[1], bounds)
        pool = CandidatePool.build(state, vspec, 1, bounds, 3)
        names, _, xty, _, _ = pool.normal_equations("S01")
        column = {value: i for i, value in enumerate(xty)}  # xty values name the columns
        assert len(column) == len(names)
        seen, score = [], bic_score

        def spy(gram, xty_block, yty, n):
            seen.append([column[value] for value in xty_block])
            return score(gram, xty_block, yty, n)

        monkeypatch.setattr("windcast.model.bic_score", spy)
        select_lags_bic(pool, "S01")
        order = ("intercept", "gw_cos[0]", "gw_sin[0]", "temp_diff_24h")
        forced = [names.index(nm) for nm in order if nm in names]
        assert len(seen) > 10 and len(forced) == 2 + 2 * vspec.include_gw_direction
        for candidate in seen:
            assert candidate[:len(forced)] == forced
            assert candidate[len(forced):] == sorted(set(candidate) - set(forced))

    @pytest.mark.parametrize("variant", ["TDD", "TDDGWDT-SMD"])
    def test_stations_with_their_own_rows_match_oracle(self, variant):
        # S01's speed gap drops its target rows from its own selection only,
        # and S02's temperature gap its temp_diff_24h rows; one pool serves all
        data, _ = make_model_data(seed=24, days=100)
        data = truncated_at(data, int(data.times[-1]))  # private copy
        data.speed[data.station_index("S01"), 900:905] = np.nan
        data.temperature[data.station_index("S02"), 1500:1510] = np.nan
        vspec = parse_variant(variant)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, vspec.diurnal_method, bounds[1], bounds)
        pool = CandidatePool.build(state, vspec, 2, bounds)
        rows = {st: pool.normal_equations(st)[4] for st in ("S01", "S02", "S03")}
        assert rows["S01"] < rows["S03"]
        assert (rows["S02"] < rows["S03"]) == vspec.include_temp_diff
        for station in ("S01", "S02", "S03"):
            spec = select_lags_bic(pool, station)
            assert spec == oracle_select_lags_bic(state, station, 2, vspec, bounds)

    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    def test_duplicate_and_near_collinear_stations_match_oracle(self, noise):
        # S2 repeats S1 (exactly, or up to tiny noise); the target S3 follows both
        rng = np.random.default_rng(31)
        n = 24 * 90
        driver = np.abs(_ar1(rng, n, 6, 1.5, 0.9))
        twin = driver + noise * rng.standard_normal(n)
        target = np.abs(1.0 + 0.6 * np.concatenate([[driver[0]] * 2, driver[:-2]])
                        + _ar1(rng, n, 0, 0.6, 0.5))
        angles = rng.uniform(0, 2 * math.pi, (1, n))
        directions = np.vstack([angles, angles + noise, rng.uniform(0, 2 * math.pi, (1, n))])
        data = _make_data(np.vstack([driver, twin, target]), directions=directions)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        for variant in ("TDD", "TDDGW-MD"):
            vspec = parse_variant(variant)
            state = _state(data, vspec.diurnal_method, bounds[1], bounds)
            for station, k in (("S3", 2), ("S1", 1)):
                spec = select_lags_bic(CandidatePool.build(state, vspec, k, bounds, 4), station)
                assert spec == oracle_select_lags_bic(state, station, k, vspec, bounds,
                                                      max_lag=4)

    def test_white_noise_selects_intercept_only(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = 5000
            speed = np.abs(rng.normal(5, 1, (1, n)))
            data = _make_data(speed)
            bounds = (int(data.times[0]), int(data.times[-1]) + 1)
            state = _state(data, "YMD", bounds[1], bounds)
            names = select_lags_bic(CandidatePool.build(state, parse_variant("TDD"), 2, bounds),
                                    "S1")
            assert names == ("intercept",)

    def test_ar_process_selects_own_lag(self):
        rng = np.random.default_rng(8)
        n = 6000
        speed = np.abs(_ar1(rng, n, 5, 1.2, 0.8))[None, :]
        data = _make_data(speed)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, "YMD", bounds[1], bounds)
        names = select_lags_bic(CandidatePool.build(state, parse_variant("TDD"), 1, bounds), "S1")
        assert names == ("intercept", "speed_r[S1][0]")

    def test_gw_driver_selected_for_tddgw(self):
        rng = np.random.default_rng(9)
        n = 6000
        gw = np.abs(_ar1(rng, n, 8, 2.5, 0.97))
        noise = _ar1(rng, n, 0, 0.8, 0.5)
        speed = np.maximum(0.0, 0.5 * np.concatenate([[gw[0], gw[0]], gw[:-2]])
                           + 3.0 + noise)[None, :]
        data = _make_data(speed, gw=gw)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, "MD", bounds[1], bounds)
        pool = CandidatePool.build(state, parse_variant("TDDGW-MD"), 2, bounds)
        assert "gw_r[0]" in select_lags_bic(pool, "S1")

    def test_insufficient_rows(self, plain_state):
        state, train = plain_state
        with pytest.raises(TrainingDataError):
            select_lags_bic(CandidatePool.build(state, parse_variant("TDD"), 2,
                                                (train[0], train[0] + 200)), "S1")


def dense_normal_equations(pool, station):
    """(names, XᵀX, Xᵀy, yᵀy, n) of the station from the whole pool design,
    built at once: the normal equations before they were added up in chunks."""
    lo, hi = pool.span
    X = _design(pool.columns, lo, hi, keep=pool.finite)
    target, offset = _target_offset(pool.state, station, pool.horizon, lo, hi)
    keep = pool.finite & np.isfinite(target) & np.isfinite(offset)
    names = pool.names
    if pool.variant.include_temp_diff:
        temp = _temp_diff(pool.state.data, station, lo, hi)
        keep &= np.isfinite(temp)
    X = X[keep[pool.finite]]
    if pool.variant.include_temp_diff:
        names, X = names + ("temp_diff_24h",), np.column_stack([X, temp[keep]])
    y = target[keep] - offset[keep]
    return names, X.T @ X, X.T @ y, float(y @ y), y.size


class TestChunkedNormalEquations:
    """The pool adds up every station's normal equations over chunks of
    SELECTION_CHUNK_ROWS rows; they equal those of the dense pool design."""

    C = SELECTION_CHUNK_ROWS
    LO = 100  # first axis row of every span

    @pytest.fixture(scope="class")
    def gappy(self):
        # S01's speed gap blanks targets on pool rows: S01 keeps its own rows.
        # S02's blanks every pool row of the second chunk of a long span, whose
        # lags 0..10 all fall in it, and no later row.
        data, _ = make_model_data(seed=24, days=200)
        data = truncated_at(data, int(data.times[-1]))  # private copy
        data.speed[data.station_index("S01"), 900:905] = np.nan
        data.speed[data.station_index("S02"), self.LO + self.C:self.LO + 2 * self.C - 10] = np.nan
        return data

    @pytest.mark.parametrize("variant", ["TDD", "TDDGWT-YMD"])
    @pytest.mark.parametrize("rows", [C // 2, 2 * C, 2 * C + 1])
    def test_equals_the_dense_design(self, gappy, variant, rows):
        vspec = parse_variant(variant)
        t0, k = int(gappy.times[0]), 2
        bounds = (t0, int(gappy.times[-1]) + 1)
        state = _state(gappy, vspec.diurnal_method, bounds[1], bounds)
        pool = CandidatePool.build(state, vspec, k, (t0 + self.LO, t0 + self.LO + rows + k - 1))
        assert pool.span == (self.LO, self.LO + rows)
        assert len(pool.names) > 100
        if rows > self.C:
            assert not pool.finite[self.C:2 * self.C].any()
            assert pool.finite[2 * self.C:].all()  # the 1-row last chunk of 2C + 1 rows
        got = {st: pool.normal_equations(st) for st in ("S01", "S03", "S04")}
        assert got["S01"][4] < got["S03"][4]
        # S03 and S04 keep every pool row: without temp_diff_24h they share one XᵀX
        assert (got["S03"][1] is got["S04"][1]) == (not vspec.include_temp_diff)
        for station, (names, gram, xty, yty, n) in got.items():
            want_names, want_gram, want_xty, want_yty, want_n = dense_normal_equations(
                pool, station)
            assert names == want_names and n == want_n and yty == want_yty
            assert gram.shape == (len(names),) * 2
            # scaled by |XᵢᵀXⱼ| <= (XᵢᵀXᵢ XⱼᵀXⱼ)^½ and |Xᵢᵀy| <= (XᵢᵀXᵢ yᵀy)^½
            d = np.sqrt(np.diag(want_gram))
            assert np.all(np.abs(gram - want_gram) <= 1e-12 * np.outer(d, d))
            assert np.all(np.abs(xty - want_xty) <= 1e-12 * d * math.sqrt(want_yty))

    def test_unknown_station_refused(self, gappy):
        t0 = int(gappy.times[0])
        state = _state(gappy, "TRIG", t0 + 2000, (t0, t0 + 2000))
        pool = CandidatePool.build(state, parse_variant("TDD"), 1, (t0, t0 + 2000), 2)
        with pytest.raises(InvalidInputError, match="S99"):
            pool.normal_equations("S99")


class TestSelectionDesign:
    """A selection is the design column names BIC kept; the refit design
    builds exactly those columns."""

    @pytest.mark.parametrize("variant", ["TDD", "TDDGW-MD", "TDDGWD", "TDDGWT-YMD",
                                         "TDDGWDT-SMD"])
    def test_design_equals_the_pool_columns(self, variant):
        data, _ = make_model_data(seed=21, days=100)
        vspec = parse_variant(variant)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, vspec.diurnal_method, bounds[1], bounds)
        lagged = 0
        for k in (1, 3):
            pool = CandidatePool.build(state, vspec, k, bounds)
            design = _design(pool.columns, *pool.span, keep=pool.finite)
            assert design.shape[1] == len(pool.names)
            for station in data.stations:
                names = select_lags_bic(pool, station)
                bundle = DesignBundle.build(state, vspec, station, k, names, pool.span)
                assert bundle.names == names
                assert (names[-1] == "temp_diff_24h") == vspec.include_temp_diff
                if not vspec.include_gw:
                    assert not any(nm.startswith("gw_") for nm in names)
                shared = [nm for nm in names if nm != "temp_diff_24h"]
                in_pool = [pool.names.index(nm) for nm in shared]
                assert in_pool == sorted(in_pool)
                rows = bundle.X[pool.finite]
                for nm, c in zip(shared, in_pool):
                    assert rows[:, names.index(nm)].tobytes() == design[:, c].tobytes(), nm
                lagged += sum("_r[" in nm for nm in names)
        assert lagged >= 16  # the selections hold lags, not just the forced columns


def _recovery_setup(noise=0.05, n=24 * 70, seed=5):
    rng = np.random.default_rng(seed)
    exog = np.abs(_ar1(rng, n, 6, 1.5, 0.9))
    gw = np.abs(_ar1(rng, n, 8, 2.0, 0.95))
    target = np.empty(n)
    k = 2
    eps = rng.normal(0, noise, n)
    shifted_exog = np.concatenate([[exog[0]] * k, exog[:-k]])
    shifted_gw = np.concatenate([[gw[0]] * k, gw[:-k]])
    target = 1.0 + 0.7 * shifted_exog + 0.5 * shifted_gw + eps
    assert np.all(target > 0)
    data = _make_data(np.vstack([target, exog]), gw=gw)
    bounds = (int(data.times[0]), int(data.times[-1]) + 1)
    state = _state(data, "YMD", bounds[1], bounds)
    spec = ("TDDGW-YMD", "S1", k, ("intercept", "speed_r[S2][0]", "gw_r[0]"))
    return state, spec, bounds


def _window_arrays(state, spec, window):
    """A fit window's rows as fit_crps reads them: (X, y, offset, vol)."""
    bundle = _bundle(state, spec)
    rows = bundle.valid_rows(*window)
    return bundle.X[rows], bundle.target[rows], bundle.offset[rows], bundle.vol[rows]


def _fit(state, spec, window):
    """fit_crps on the whole-axis design of ``spec``."""
    return fit_crps(_bundle(state, spec), window)


def fitted_crps(state, spec, window, c):
    """The mean CRPS over a fit window at the fitted coefficients ``c``."""
    X, y, offset, vol = _window_arrays(state, spec, window)
    sigma = np.maximum(c.b0 + c.b1 * vol, SIGMA_FLOOR)
    return float(crps_values(offset + X @ c.center, sigma, y).mean())


def _newton_start(X, y, offset, vol):
    """fit_crps's start in (center, log b0, r)."""
    x0 = _initial_point(X, y - offset, vol)
    x0[-1] = np.exp(0.5 * x0[-1])
    return x0


def trust_exact_fit_crps(state, spec, window):
    """The fit before its Newton loop was written out: scipy ``trust-exact``
    on ``_crps_derivatives`` from fit_crps's start. Returns scipy's result,
    whose ``fun`` is the window CRPS, and the number of points at which the
    derivatives were evaluated."""
    from scipy.optimize import minimize

    X, y, offset, vol = _window_arrays(state, spec, window)
    seen = []  # (theta, derivatives); trust-exact asks for the Hessian first

    def at(theta):
        if not seen or not np.array_equal(theta, seen[-1][0]):
            seen.append((theta.copy(), _crps_derivatives(theta, X, y, offset, vol)))
        return seen[-1][1]

    result = minimize(lambda theta: at(theta)[:2], _newton_start(X, y, offset, vol),
                      method="trust-exact", jac=True, hess=lambda theta: at(theta)[2],
                      options={"gtol": 1e-8, "maxiter": 1000})
    return result, len(seen)


def oracle_fit_crps(state, spec, window):
    """The fit as it was before Newton steps: one BFGS run in (center,
    log b0, log b1) on the analytic gradient, from ``_initial_point``.
    Returns scipy's result; ``fun`` is the window CRPS."""
    from scipy.optimize import minimize

    bundle = _bundle(state, spec)
    rows = bundle.valid_rows(*window)
    X, y, offset, vol = (bundle.X[rows], bundle.target[rows], bundle.offset[rows],
                         bundle.vol[rows])
    n, p = X.shape

    def objective(theta):
        mu = offset + X @ theta[:p]
        with np.errstate(over="ignore", invalid="ignore"):
            b0, b1 = np.exp(theta[p:])
            raw = b0 + b1 * vol
            crps, d_mu, d_sigma = _crps_grad(mu, np.maximum(raw, 1e-8), y)
            val = float(np.mean(crps))
            d_sigma = np.where(raw > 1e-8, d_sigma, 0.0)
            grad = np.concatenate([X.T @ d_mu, [d_sigma.sum() * b0, d_sigma @ vol * b1]]) / n
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            val, grad = 1e12, np.zeros_like(theta)
        return val, grad

    return minimize(objective, _initial_point(X, y - offset, vol), method="BFGS", jac=True,
                    options={"gtol": 1e-8, "maxiter": 1000})


@pytest.fixture(scope="module")
def oracle_windows():
    """Three daily 45-day windows after a selection year, per variant."""
    data, _ = make_model_data(seed=41, days=420)
    train = (int(data.times[0]), int(data.times[0]) + 365 * 24)
    cases = []
    for variant in ("TDD", "TDDGW-MD", "TDDGWDT-SMD"):
        vspec = parse_variant(variant)
        state = _state(data, vspec.diurnal_method, train[1], train)
        for station in ("S01", "S03"):
            spec = (variant, station, 2,
                    select_lags_bic(CandidatePool.build(state, vspec, 2, train), station))
            for day in range(3):
                end = train[1] + 24 * day
                refit = _state(data, vspec.diurnal_method, end, train)
                cases.append((variant, station, refit, spec, (end - 45 * 24, end)))
    return cases


class TestFitCrps:
    def test_recovers_generating_coefficients(self):
        state, spec, bounds = _recovery_setup()
        bundle = _bundle(state, spec)
        c = fit_crps(bundle, bounds)
        named = dict(zip(bundle.names, c.center))
        assert named["speed_r[S2][0]"] == pytest.approx(0.7, rel=0.05)
        assert named["gw_r[0]"] == pytest.approx(0.5, rel=0.05)

    def test_fit_beats_least_squares_start(self):
        state, spec, bounds = _recovery_setup(noise=0.5)
        bundle = _bundle(state, spec)
        model = fit_crps(bundle, bounds)
        rows = bundle.valid_rows(*bounds)
        X, y, offset, vol = (bundle.X[rows], bundle.target[rows], bundle.offset[rows],
                             bundle.vol[rows])
        theta = _initial_point(X, y - offset, vol)
        sigma = np.exp(theta[-2]) + np.exp(theta[-1]) * vol
        start_crps = crps_values(offset + X @ theta[:-2], sigma, y).mean()
        assert fitted_crps(state, spec, bounds, model) <= start_crps

    def test_deterministic(self):
        state, spec, bounds = _recovery_setup(noise=0.3)
        a = _fit(state, spec, bounds)
        b = _fit(state, spec, bounds)
        assert np.array_equal(a.center, b.center)
        assert a.b0 == b.b0
        assert a.b1 == b.b1

    def test_intercept_only_matches_grid_oracle(self):
        rng = np.random.default_rng(21)
        n = 24 * 60
        speed = np.abs(rng.normal(6, 1.0, (1, n)))
        data = _make_data(speed)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, "TRIG", bounds[1], bounds)
        spec = ("TDD", "S1", 1, ("intercept",))
        bundle = _bundle(state, spec)
        model = fit_crps(bundle, bounds)

        rows = bundle.valid_rows(*bounds)
        y = bundle.target[rows]
        offset = bundle.offset[rows]
        # independent oracle: constant-parameter grid search over (mu, sigma)
        mus = np.linspace(y.mean() - 1.0, y.mean() + 1.0, 81)
        sigmas = np.linspace(0.3, 2.5, 45)
        best = None
        for m in mus:
            for s in sigmas:
                val = crps_values(np.full(y.size, m), np.full(y.size, s), y).mean()
                if best is None or val < best[0]:
                    best = (val, m, s)
        # the trained model may exploit hour-varying offset and volatility,
        # so it can only be as good or better than the constant oracle
        assert fitted_crps(state, spec, bounds, model) <= best[0] + 1e-3
        mu_fit = offset.mean() + dict(zip(bundle.names, model.center))["intercept"]
        assert mu_fit == pytest.approx(best[1], abs=0.1)

    def test_degenerate_window_hits_sigma_floor(self):
        n = 24 * 60
        data = _make_data(np.full((1, n), 4.0))
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, "YMD", bounds[1], bounds)
        spec = ("TDD-YMD", "S1", 1, ("intercept",))
        model = _fit(state, spec, bounds)
        assert fitted_crps(state, spec, bounds, model) < 1e-4
        assert model.b0 > 0 and model.b1 > 0

    def test_unconverged_fit_logs_one_warning(self, caplog, monkeypatch):
        monkeypatch.setattr("windcast.model.FIT_MAXITER", 1)
        state, spec, bounds = _recovery_setup(noise=0.3)
        with caplog.at_level(logging.WARNING, logger="windcast.model"):
            _fit(state, spec, bounds)
        (record,) = caplog.records
        text = record.getMessage()
        assert f"[{bounds[0]}, {bounds[1]}]" in text
        assert "after 1 iterations" in text and "gradient norm" in text

    def test_newton_stops_when_damping_would_overflow(self):
        # a flat objective with a nonzero gradient: no step ever pays off, so
        # lam grows 4x per iteration; the loop must stop before lam is inf
        hess = np.array([[2.0, 0.5], [0.5, 1.0]])
        calls = []

        def derivatives(theta):
            calls.append(1)
            return 1.0, np.array([1.0, -2.0]), hess

        start = np.array([0.3, -0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf * eye would warn
            theta, value, iterations, gnorm = _newton(derivatives, start.copy())
        assert theta.tobytes() == start.tobytes() and value == 1.0
        assert iterations < FIT_MAXITER and len(calls) == iterations + 1
        assert gnorm == pytest.approx(math.sqrt(5.0))

    def test_converged_fit_logs_nothing(self, caplog):
        state, spec, bounds = _recovery_setup(noise=0.3)
        with caplog.at_level(logging.DEBUG, logger="windcast.model"):
            _fit(state, spec, bounds)
        assert caplog.records == []

    def test_never_worse_than_bfgs_oracle(self, oracle_windows, caplog):
        with caplog.at_level(logging.WARNING, logger="windcast.model"):
            for variant, station, state, spec, window in oracle_windows:
                model = _fit(state, spec, window)
                oracle = oracle_fit_crps(state, spec, window)
                assert fitted_crps(state, spec, window, model) <= oracle.fun + 1e-9, \
                    (variant, station, window)
        assert caplog.records == []

    def test_never_worse_than_trust_exact(self, oracle_windows, caplog, monkeypatch):
        calls = []  # one call into the CRPS kernel per objective evaluation

        def counted(*args, **kwargs):
            calls.append(1)
            return _crps_grad(*args, **kwargs)

        reference_evaluations = 0
        with caplog.at_level(logging.WARNING, logger="windcast.model"):
            for variant, station, state, spec, window in oracle_windows:
                reference, evals = trust_exact_fit_crps(state, spec, window)
                assert reference.success
                reference_evaluations += evals
                with monkeypatch.context() as patch:
                    patch.setattr("windcast.model._crps_grad", counted)
                    model = _fit(state, spec, window)
                assert fitted_crps(state, spec, window, model) <= reference.fun + 1e-9, \
                    (variant, station, window)
        assert caplog.records == []
        assert len(calls) <= reference_evaluations

    def test_indefinite_start_is_damped(self, caplog, monkeypatch):
        # with b0 well below its optimum and b1 near 0, a larger b1 lowers the
        # CRPS: the r-r curvature 2 mean(d crps/d sigma * v) is negative, the
        # first Cholesky factorisation fails, and damping has to take over
        state, spec, bounds = _recovery_setup(noise=0.3)
        X, y, offset, vol = _window_arrays(state, spec, bounds)
        start = _initial_point(X, y - offset, vol) + np.r_[np.zeros(X.shape[1]), -2.0, -12.0]
        x0 = np.r_[start[:-1], np.exp(0.5 * start[-1])]
        assert np.linalg.eigvalsh(_crps_derivatives(x0, X, y, offset, vol)[2])[0] < 0
        reference, _ = trust_exact_fit_crps(state, spec, bounds)
        monkeypatch.setattr("windcast.model._initial_point", lambda *args: start.copy())
        with caplog.at_level(logging.WARNING, logger="windcast.model"):
            model = _fit(state, spec, bounds)
        assert caplog.records == []
        assert fitted_crps(state, spec, bounds, model) <= reference.fun + 1e-9

    def test_non_finite_trial_point_is_rejected(self, caplog, monkeypatch):
        # the CRPS kernel turns NaN at the first trial point, as it does where
        # sigma overflows; _crps_derivatives answers with its 1e12 sentinel,
        # and the fit must refuse that step rather than stop there
        state, spec, bounds = _recovery_setup(noise=0.3)
        reference, _ = trust_exact_fit_crps(state, spec, bounds)
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(1)
            out = _crps_grad(*args, **kwargs)
            return tuple(np.full_like(v, np.nan) for v in out) if len(calls) == 2 else out

        monkeypatch.setattr("windcast.model._crps_grad", poisoned)
        with caplog.at_level(logging.WARNING, logger="windcast.model"):
            model = _fit(state, spec, bounds)
        assert caplog.records == []
        assert len(calls) > 2
        assert fitted_crps(state, spec, bounds, model) <= reference.fun + 1e-9

    def test_volatility_free_noise_drives_b1_to_zero(self, caplog, monkeypatch):
        # the target's noise has one spread whatever the network volatility, so
        # the optimum has b1 -> 0; a fit in log b1 crawls down that slope
        state, spec, bounds = _recovery_setup(noise=0.3, seed=5)
        oracle = oracle_fit_crps(state, spec, bounds)
        calls = []  # one call into the CRPS kernel per objective evaluation

        def counted(*args, **kwargs):
            calls.append(1)
            return _crps_grad(*args, **kwargs)

        monkeypatch.setattr("windcast.model._crps_grad", counted)
        with caplog.at_level(logging.WARNING, logger="windcast.model"):
            model = _fit(state, spec, bounds)
        assert caplog.records == []
        assert model.b1 > 0
        assert model.b1 < 1e-6 * model.b0
        assert len(calls) <= 15
        assert fitted_crps(state, spec, bounds, model) <= oracle.fun + 1e-9

    def test_hessian_is_the_derivative_of_the_gradient(self):
        # _crps_derivatives checked by central differences of its gradient at
        # the least-squares start and at a point with a larger b1
        state, spec, bounds = _recovery_setup(noise=0.3)
        X, y, offset, vol = _window_arrays(state, spec, bounds)
        x0 = _newton_start(X, y, offset, vol)

        def grad(theta):
            return _crps_derivatives(theta, X, y, offset, vol)[1]

        for theta in (x0, x0 + np.r_[0.05, -0.1, 0.1, -0.3, 0.4]):
            h = 1e-5 * np.maximum(np.abs(theta), 1.0)
            fd = np.array([(grad(theta + h[i] * e) - grad(theta - h[i] * e)) / (2 * h[i])
                           for i, e in enumerate(np.eye(theta.size))])
            np.testing.assert_allclose(_crps_derivatives(theta, X, y, offset, vol)[2], fd,
                                       rtol=1e-5, atol=1e-7)

    def test_too_small_window(self):
        state, spec, bounds = _recovery_setup()
        with pytest.raises(TrainingDataError):
            _fit(state, spec, (bounds[0], bounds[0] + 4))

    def test_stationary_at_fitted_coefficients(self):
        # central differences of the window CRPS in the fitted parameters
        # (center, log b0, log b1) vanish at the fit; a wrong chain rule in
        # the fitter's gradient would stop it elsewhere
        state, spec, bounds = _recovery_setup(noise=0.3)
        bundle = _bundle(state, spec)
        model = fit_crps(bundle, bounds)
        rows = bundle.valid_rows(*bounds)
        X, y, offset, vol = (bundle.X[rows], bundle.target[rows], bundle.offset[rows],
                             bundle.vol[rows])

        def window_crps(theta):
            mu = offset + X @ theta[:-2]
            sigma = np.exp(theta[-2]) + np.exp(theta[-1]) * vol
            return crps_values(mu, sigma, y).mean()

        theta = np.concatenate([model.center, [math.log(model.b0), math.log(model.b1)]])
        assert window_crps(theta) == pytest.approx(fitted_crps(state, spec, bounds, model),
                                                   rel=1e-12)
        h = 1e-6
        grad = np.array([(window_crps(theta + h * e) - window_crps(theta - h * e)) / (2 * h)
                         for e in np.eye(theta.size)])
        assert np.max(np.abs(grad)) < 1e-6


class TestPredictParams:
    def test_intercept_plus_diurnal(self):
        rng = np.random.default_rng(13)
        n = 24 * 60
        hod = np.arange(n) % 24
        speed = 5.0 + np.sin(2 * np.pi * hod / 24) + 0.01 * rng.standard_normal(n)
        data = _make_data(speed[None, :])
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = _state(data, "MD", bounds[1], bounds)
        spec = ("TDD-MD", "S1", 2, ("intercept",))
        bundle = _bundle(state, spec)
        model = Coefficients(np.array([0.25]), 0.5, 1e-300, 1)
        t = 30 * 24
        (mu,), (sigma,) = predict_params(model, bundle, [t])
        expected_mu = float(state.speed_diurnal[0][(t + 2) % 24]) + 0.25
        assert mu == pytest.approx(expected_mu, abs=1e-12)
        # b1 ~ 0 pins sigma at b0 regardless of volatility
        assert sigma == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def _per_row_formula(c, bundle, rows):
        """(mu, sigma) of ``rows`` one row at a time: offset + x @ center and
        max(b0 + b1 v, SIGMA_FLOOR), NaN where an input is missing."""
        want_mu, want_sigma = np.full(rows.size, np.nan), np.full(rows.size, np.nan)
        for i, t in enumerate(rows):
            x, v, offset = bundle.X[t], bundle.vol[t], bundle.offset[t]
            if np.isfinite(x).all() and np.isfinite(v) and np.isfinite(offset):
                want_mu[i] = offset + x @ c.center
                want_sigma[i] = max(c.b0 + c.b1 * v, SIGMA_FLOOR)
        return want_mu, want_sigma

    def test_block_equals_the_per_row_formula(self, span_case):
        """Bit for bit, on a block from the start of the axis, whose first
        rows have no volatility yet, and on both sides of SIGMA_FLOOR; then
        on every candidate column of a TDDGWDT pool, with missing feature
        rows inside the block."""
        state, spec, bounds = _recovery_setup(noise=0.3)
        bundle = _bundle(state, spec)
        fitted = fit_crps(bundle, bounds)
        # scale terms that put the rows below 0.9 of the median vol on SIGMA_FLOOR
        c = Coefficients(fitted.center, 1e-9, 1e-8 / float(np.nanmedian(bundle.vol)), 1)
        rows = np.arange(0, 600)
        mu, sigma = predict_params(c, bundle, rows)
        want_mu, want_sigma = self._per_row_formula(c, bundle, rows)
        assert np.isnan(mu).any() and np.isfinite(mu).sum() > 500
        assert (sigma == SIGMA_FLOOR).any() and (sigma > SIGMA_FLOOR).any()
        assert mu.tobytes() == want_mu.tobytes()
        assert sigma.tobytes() == want_sigma.tobytes()

        data, bounds, _ = span_case
        vspec = parse_variant("TDDGWDT-MD")
        state = _state(data, "MD", bounds[1], bounds)
        names = CandidatePool.build(state, vspec, 3, bounds).names + ("temp_diff_24h",)
        wide = DesignBundle.build(state, vspec, "S02", 3, names)
        X = wide.X.copy()
        X[[300, 301, 450], [7, 60, 140]] = np.nan
        wide = dataclasses.replace(wide, X=X)
        rng = np.random.default_rng(3)
        c = Coefficients(rng.normal(0.0, 0.3, len(names)), 0.5, 0.2, 1)
        rows = np.arange(0, 600)
        mu, sigma = predict_params(c, wide, rows)
        want_mu, want_sigma = self._per_row_formula(c, wide, rows)
        assert len(names) > 100
        # temp_diff_24h reaches before the axis for the first 24 rows
        assert np.isnan(mu[:24]).all() and np.isnan(mu[[300, 301, 450]]).all()
        assert np.isfinite(mu[24:300]).all() and np.isfinite(mu).sum() > 500
        assert mu.tobytes() == want_mu.tobytes()
        assert sigma.tobytes() == want_sigma.tobytes()

    @pytest.mark.parametrize("missing", ["feature", "vol", "offset"])
    def test_missing_input_reads_nan(self, missing):
        state, spec, bounds = _recovery_setup(noise=0.3)
        if missing == "feature":  # a lag-0 regressor that the volatility does not read
            state.data.gw_speed[500] = np.nan
            state = _state(state.data, "YMD", bounds[1], bounds)
        bundle = _bundle(state, spec)
        model = fit_crps(bundle, bounds)
        if missing != "feature":
            column = getattr(bundle, missing).copy()
            column[500] = np.nan
            bundle = dataclasses.replace(bundle, **{missing: column})
        mu, sigma = predict_params(model, bundle, slice(498, 503))
        assert np.isnan(mu[2]) and np.isnan(sigma[2])
        assert np.isfinite(np.delete(mu, 2)).all() and np.isfinite(np.delete(sigma, 2)).all()

    def test_missing_rows_dropped_from_training(self):
        state, spec, bounds = _recovery_setup(noise=0.3, seed=6)
        full = _fit(state, spec, bounds)
        data = state.data
        data.speed[1, 400:420] = np.nan
        state2 = _state(data, "YMD", bounds[1], bounds)
        holey = _fit(state2, spec, bounds)
        assert holey.n_rows < full.n_rows


def test_scale_coefficients_must_be_positive():
    with pytest.raises(InvalidInputError):
        Coefficients(np.array([1.0]), 0.0, 1.0, 1)
    with pytest.raises(InvalidInputError):
        Coefficients(np.array([1.0]), 1.0, -0.5, 1)
