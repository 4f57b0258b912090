"""Regression machinery: features, volatility, BIC selection, CRPS training."""

import dataclasses
import json
import logging
import math
import warnings

import numpy as np
import pytest

from windcast.errors import InvalidInputError, LoadError, TrainingDataError
from windcast.model import (
    CandidatePool,
    Coefficients,
    DesignBundle,
    FIT_MAXITER,
    FeatureSpec,
    ModelData,
    ResidualState,
    SIGMA_FLOOR,
    _crps_derivatives,
    _initial_point,
    _newton,
    bic_score,
    fit_crps,
    load_bundle,
    parse_variant,
    predict_params,
    save_bundle,
    select_lags_bic,
    volatility,
)
from windcast.predictive import _crps_grad, crps_values
from windcast.timeutil import epoch_hour

from conftest import make_model_data


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
    return ResidualState.build(data, "YMD", train[1], train), train


class TestDesignBundle:
    def test_minimal_row_length(self, plain_state):
        state, _ = plain_state
        spec = FeatureSpec(target_station="S1", horizon=2,
                           speed_lags={"S1": 0}, direction_lags={"S1": 0})
        bundle = DesignBundle.build(state, spec)
        # intercept, speed lag 0, cos lag 0, sin lag 0
        assert len(bundle.names) == 4

    def test_gw_bundle_adds_three(self, plain_state):
        state, _ = plain_state
        spec = FeatureSpec(target_station="S1", horizon=2, variant="TDDGW",
                           speed_lags={"S1": 0}, direction_lags={"S1": 0}, gw_lags=2)
        assert len(DesignBundle.build(state, spec).names) == 7

    def test_temp_diff_zero_for_24h_periodic(self):
        n = 24 * 30
        hod = np.arange(n) % 24
        temps = 10.0 + 5.0 * np.sin(2 * np.pi * hod / 24.0)
        data = _make_data(np.full((1, n), 5.0), temps=temps[None, :])
        state = ResidualState.build(data, "YMD", int(data.times[-1]) + 1,
                                    (int(data.times[0]), int(data.times[-1]) + 1))
        spec = FeatureSpec(target_station="S1", horizon=1, variant="TDDGWT")
        bundle = DesignBundle.build(state, spec)
        col = bundle.X[:, list(bundle.names).index("temp_diff_24h")]
        assert np.allclose(col[24:], 0.0, atol=1e-12)

    def test_nesting(self, plain_state):
        state, _ = plain_state
        kw = dict(target_station="S1", horizon=2, speed_lags={"S1": 1, "S2": 0},
                  direction_lags={"S1": 0})
        tdd = DesignBundle.build(state, FeatureSpec(**kw))
        tddgw = DesignBundle.build(state, FeatureSpec(**kw, variant="TDDGW", gw_lags=1))
        assert set(tdd.names) < set(tddgw.names)
        assert set(tddgw.names) - set(tdd.names) == {"gw_r[0]", "gw_r[1]"}
        gwd = DesignBundle.build(state, FeatureSpec(**kw, variant="TDDGWD", gw_lags=1))
        gwdt = DesignBundle.build(state, FeatureSpec(**kw, variant="TDDGWDT", gw_lags=1))
        assert list(gwdt.names) == list(gwd.names) + ["temp_diff_24h"]


@pytest.fixture(scope="module")
def span_case():
    """Residual states on a 60-day axis and a spec with every kind of column."""
    data, _ = make_model_data(seed=13, days=60)
    bounds = (int(data.times[0]), int(data.times[0]) + 40 * 24)
    spec = dict(target_station="S02", horizon=3, speed_lags={"S01": 10, "S02": 2},
                direction_lags={"S03": 1}, gw_lags=4)
    return data, bounds, spec


class TestDesignSpan:
    """A design over a row span equals the same rows of the whole-axis one."""

    @pytest.mark.parametrize("method", ["TRIG", "MD"])
    @pytest.mark.parametrize("where", ["start", "end", "inside"])
    def test_rows_equal_the_whole_axis(self, span_case, method, where):
        data, bounds, kw = span_case
        state = ResidualState.build(data, method, bounds[1], bounds)
        spec = FeatureSpec(**kw, variant=f"TDDGWDT-{method}")
        n = data.n
        # "start": lags and temp_diff_24h reach before the axis for its first
        # max_lag + 24 rows; "end": the last valid times fall off the axis
        lo, hi = {"start": (2, 30), "end": (n - 40, n - 1), "inside": (700, 900)}[where]
        full = DesignBundle.build(state, spec)
        part = DesignBundle.build(state, spec, (lo, hi))
        assert part.names == full.names
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
        data, bounds, kw = span_case
        state = ResidualState.build(data, "MD", bounds[1], bounds)
        spec = FeatureSpec(**kw, variant="TDDGWDT-MD")
        lo, hi = (0, 500) if where == "start" else (data.n - 500, data.n)
        window = (int(data.times[lo]), int(data.times[hi - 100]))
        full = DesignBundle.build(state, spec)
        part = DesignBundle.build(state, spec, (lo, hi))
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


class TestSpecValidation:
    def test_lag_bounds(self):
        with pytest.raises(InvalidInputError):
            FeatureSpec(target_station="S1", horizon=2, speed_lags={"S1": 11})

    def test_horizon_bounds(self):
        for k in (0, 7):
            with pytest.raises(InvalidInputError):
                FeatureSpec(target_station="S1", horizon=k)

    @pytest.mark.parametrize("variant, gw_lags", [("PSS", -1), ("TDDXX", -1), ("TDD", 2),
                                                   ("TDD-MD", 0), ("TDDGW", 11),
                                                   ("TDDGW-MD", -2)])
    def test_variant_and_gw_lags(self, variant, gw_lags):
        with pytest.raises(InvalidInputError):
            FeatureSpec(target_station="S1", horizon=2, variant=variant, gw_lags=gw_lags)
        FeatureSpec(target_station="S1", horizon=2, variant="TDDGW", gw_lags=-1)
        FeatureSpec(target_station="S1", horizon=2, variant="TDDGW-MD", gw_lags=10)

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
    full = FeatureSpec(
        target_station=target_station, horizon=horizon, variant=variant.name,
        speed_lags={st: max_lag for st in data.stations},
        direction_lags={st: max_lag for st in data.stations},
        gw_lags=max_lag if variant.include_gw else -1)
    pool = DesignBundle.build(state, full)
    rows = pool.valid_rows(window[0], window[1], need_vol=False)
    assert rows.size >= min_rows_per_param * len(pool.names)
    X = pool.X[rows]
    y = pool.target[rows] - pool.offset[rows]
    col = {nm: i for i, nm in enumerate(pool.names)}
    forced = ["intercept"]
    if variant.include_gw_direction:
        forced += ["gw_cos[0]", "gw_sin[0]"]
    if variant.include_temp_diff:
        forced += ["temp_diff_24h"]

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
    return FeatureSpec(
        target_station=target_station, horizon=horizon, variant=variant.name,
        speed_lags={f[1]: q for f, q in chosen.items() if f[0] == "speed" and q >= 0},
        direction_lags={f[1]: q for f, q in chosen.items() if f[0] == "dir" and q >= 0},
        gw_lags=next((q for f, q in chosen.items() if f[0] == "gw"), -1))


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
        state = ResidualState.build(data, vspec.diurnal_method, bounds[1], bounds)
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
        state = ResidualState.build(data, vspec.diurnal_method, bounds[1], bounds)
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
        data = data.truncated_at(int(data.times[-1]))  # private copy
        data.speed[data.station_index("S01"), 900:905] = np.nan
        data.temperature[data.station_index("S02"), 1500:1510] = np.nan
        vspec = parse_variant(variant)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = ResidualState.build(data, vspec.diurnal_method, bounds[1], bounds)
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
            state = ResidualState.build(data, vspec.diurnal_method, bounds[1], bounds)
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
            state = ResidualState.build(data, "YMD", bounds[1], bounds)
            spec = select_lags_bic(CandidatePool.build(state, parse_variant("TDD"), 2, bounds),
                                   "S1")
            assert spec.speed_lags == {}
            assert spec.direction_lags == {}

    def test_ar_process_selects_own_lag(self):
        rng = np.random.default_rng(8)
        n = 6000
        speed = np.abs(_ar1(rng, n, 5, 1.2, 0.8))[None, :]
        data = _make_data(speed)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = ResidualState.build(data, "YMD", bounds[1], bounds)
        spec = select_lags_bic(CandidatePool.build(state, parse_variant("TDD"), 1, bounds), "S1")
        assert spec.speed_lags == {"S1": 0}

    def test_gw_driver_selected_for_tddgw(self):
        rng = np.random.default_rng(9)
        n = 6000
        gw = np.abs(_ar1(rng, n, 8, 2.5, 0.97))
        noise = _ar1(rng, n, 0, 0.8, 0.5)
        speed = np.maximum(0.0, 0.5 * np.concatenate([[gw[0], gw[0]], gw[:-2]])
                           + 3.0 + noise)[None, :]
        data = _make_data(speed, gw=gw)
        bounds = (int(data.times[0]), int(data.times[-1]) + 1)
        state = ResidualState.build(data, "MD", bounds[1], bounds)
        pool = CandidatePool.build(state, parse_variant("TDDGW-MD"), 2, bounds)
        spec = select_lags_bic(pool, "S1")
        assert spec.variant == "TDDGW-MD" and spec.gw_lags >= 0

    def test_insufficient_rows(self, plain_state):
        state, train = plain_state
        with pytest.raises(TrainingDataError):
            select_lags_bic(CandidatePool.build(state, parse_variant("TDD"), 2,
                                                (train[0], train[0] + 200)), "S1")


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
    state = ResidualState.build(data, "YMD", bounds[1], bounds)
    spec = FeatureSpec(target_station="S1", horizon=k, variant="TDDGW-YMD",
                       speed_lags={"S2": 0}, gw_lags=0)
    return state, spec, bounds


def _window_arrays(state, spec, window):
    """A fit window's rows as fit_crps reads them: (X, y, offset, vol)."""
    bundle = DesignBundle.build(state, spec)
    rows = bundle.valid_rows(*window)
    return bundle.X[rows], bundle.target[rows], bundle.offset[rows], bundle.vol[rows]


def _fit(state, spec, window):
    """fit_crps on the whole-axis design of ``spec``."""
    return fit_crps(DesignBundle.build(state, spec), window)


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

    bundle = DesignBundle.build(state, spec)
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
        state = ResidualState.build(data, vspec.diurnal_method, train[1], train)
        for station in ("S01", "S03"):
            spec = select_lags_bic(CandidatePool.build(state, vspec, 2, train), station)
            for day in range(3):
                end = train[1] + 24 * day
                refit = ResidualState.build(data, vspec.diurnal_method, end, train)
                cases.append((variant, station, refit, spec, (end - 45 * 24, end)))
    return cases


class TestFitCrps:
    def test_recovers_generating_coefficients(self):
        state, spec, bounds = _recovery_setup()
        bundle = DesignBundle.build(state, spec)
        c = fit_crps(bundle, bounds)
        named = dict(zip(bundle.names, c.center))
        assert named["speed_r[S2][0]"] == pytest.approx(0.7, rel=0.05)
        assert named["gw_r[0]"] == pytest.approx(0.5, rel=0.05)

    def test_fit_beats_least_squares_start(self):
        state, spec, bounds = _recovery_setup(noise=0.5)
        bundle = DesignBundle.build(state, spec)
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
        state = ResidualState.build(data, "TRIG", bounds[1], bounds)
        spec = FeatureSpec(target_station="S1", horizon=1, variant="TDD")
        bundle = DesignBundle.build(state, spec)
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
        state = ResidualState.build(data, "YMD", bounds[1], bounds)
        spec = FeatureSpec(target_station="S1", horizon=1, variant="TDD-YMD")
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
        bundle = DesignBundle.build(state, spec)
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
        state = ResidualState.build(data, "MD", bounds[1], bounds)
        spec = FeatureSpec(target_station="S1", horizon=2, variant="TDD-MD")
        bundle = DesignBundle.build(state, spec)
        model = Coefficients(np.array([0.25]), 0.5, 1e-300, 1)
        t = 30 * 24
        (mu,), (sigma,) = predict_params(model, bundle, [t])
        prof = state.profiles["speed/S1"]
        expected_mu = float(prof.evaluate(np.array([(t + 2) % 24]))[0]) + 0.25
        assert mu == pytest.approx(expected_mu, abs=1e-12)
        # b1 ~ 0 pins sigma at b0 regardless of volatility
        assert sigma == pytest.approx(0.5, abs=1e-12)

    def test_block_equals_the_per_row_formula(self):
        """Bit for bit, on a block from the start of the axis, whose first
        rows have no volatility yet, and on both sides of SIGMA_FLOOR."""
        state, spec, bounds = _recovery_setup(noise=0.3)
        bundle = DesignBundle.build(state, spec)
        fitted = fit_crps(bundle, bounds)
        # scale terms that put the rows below 0.9 of the median vol on SIGMA_FLOOR
        c = Coefficients(fitted.center, 1e-9, 1e-8 / float(np.nanmedian(bundle.vol)), 1)
        rows = np.arange(0, 600)
        mu, sigma = predict_params(c, bundle, rows)
        want_mu, want_sigma = np.full(rows.size, np.nan), np.full(rows.size, np.nan)
        for i, t in enumerate(rows):
            x, v, offset = bundle.X[t], bundle.vol[t], bundle.offset[t]
            if np.isfinite(x).all() and np.isfinite(v) and np.isfinite(offset):
                want_mu[i] = offset + x @ c.center
                want_sigma[i] = max(c.b0 + c.b1 * v, SIGMA_FLOOR)
        assert np.isnan(mu).any() and np.isfinite(mu).sum() > 500
        assert (sigma == SIGMA_FLOOR).any() and (sigma > SIGMA_FLOOR).any()
        assert mu.tobytes() == want_mu.tobytes()
        assert sigma.tobytes() == want_sigma.tobytes()

    @pytest.mark.parametrize("missing", ["feature", "vol", "offset"])
    def test_missing_input_reads_nan(self, missing):
        state, spec, bounds = _recovery_setup(noise=0.3)
        if missing == "feature":  # a lag-0 regressor that the volatility does not read
            state.data.gw_speed[500] = np.nan
            state = ResidualState.build(state.data, "YMD", bounds[1], bounds)
        bundle = DesignBundle.build(state, spec)
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
        state2 = ResidualState.build(data, "YMD", bounds[1], bounds)
        holey = _fit(state2, spec, bounds)
        assert holey.n_rows < full.n_rows


def _selected_spec():
    state, _, bounds = _recovery_setup(noise=0.3)
    return select_lags_bic(CandidatePool.build(state, parse_variant("TDDGW-YMD"), 2, bounds, 3),
                           "S1")


def test_bundle_round_trip(tmp_path):
    spec = _selected_spec()
    path = tmp_path / "bundle.json"
    save_bundle(spec, path, "aaaaaaaaaaaa")
    assert load_bundle(path, "aaaaaaaaaaaa") == spec
    raw = json.loads(path.read_text())
    assert set(raw) == {"format_version", "library_version", "spec", "config_sha"}
    assert raw["format_version"] == 3
    raw["format_version"] = 1  # format 1 also carried coefficients, profiles and a seed
    path.write_text(json.dumps(raw))
    with pytest.raises(LoadError, match="unsupported bundle version 1.*re-run train"):
        load_bundle(path, "aaaaaaaaaaaa")


def test_bundle_config_digest(tmp_path):
    spec = _selected_spec()
    path = tmp_path / "bundle.json"
    save_bundle(spec, path, config_sha="aaaaaaaaaaaa")
    assert load_bundle(path, "aaaaaaaaaaaa") == spec
    with pytest.raises(LoadError, match="aaaaaaaaaaaa.*bbbbbbbbbbbb"):
        load_bundle(path, "bbbbbbbbbbbb")
    raw = json.loads(path.read_text())
    del raw["config_sha"]  # as written before bundles carried a digest
    path.write_text(json.dumps(raw))
    with pytest.raises(LoadError, match="none recorded"):
        load_bundle(path, "aaaaaaaaaaaa")


def test_scale_coefficients_must_be_positive():
    with pytest.raises(InvalidInputError):
        Coefficients(np.array([1.0]), 0.0, 1.0, 1)
    with pytest.raises(InvalidInputError):
        Coefficients(np.array([1.0]), 1.0, -0.5, 1)
