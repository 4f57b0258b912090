"""Rolling engine: persistence, causality, record bookkeeping."""

import math
import tracemalloc

import numpy as np
import pytest

from windcast.config import RunConfig
from windcast.forecast import (
    ForecastColumns,
    _selection,
    persistence,
    read_records_csv,
    run_rolling,
    write_records_csv,
)
from windcast.diurnal import window
from windcast.model import (
    SELECTION_CHUNK_ROWS,
    CandidatePool,
    DesignBundle,
    ModelData,
    ResidualState,
    parse_variant,
)
from windcast.predictive import cdf_values
from windcast.errors import InvalidInputError, TrainingDataError
from windcast.timeutil import epoch_hour

from conftest import make_model_data, truncated_at

ROLLING = (RunConfig.window_days, RunConfig.refit_hours)  # the config defaults
WINDOW_HOURS = 24 * RunConfig.window_days


@pytest.fixture(scope="module")
def data():
    d, _ = make_model_data(seed=12, days=120)
    return d


def _bounds(data, train_days, test_days):
    t0 = int(data.times[0])
    t1 = t0 + 24 * train_days
    return (t0, t1), (t1, t1 + 24 * test_days)


def _one(data, station, t_eh, horizon, max_back_hours=45 * 24):
    """The persistence record for one issue hour and horizon, as one row."""
    rec = persistence(data, station, (t_eh, t_eh + 1), [horizon], max_back_hours)
    assert len(rec) == 1
    return rec


def oracle_persistence(data, station, t_eh, horizon, max_back_hours):
    """Per-record persistence: a scan back from the issue hour over the
    lookback for the latest finite speed. The record is a tuple in
    ForecastColumns field order."""
    si = data.station_index(station)
    ti = data.index_of_time(t_eh)
    lo = max(0, ti - max_back_hours)
    finite = np.nonzero(np.isfinite(data.speed[si, lo:ti + 1]))[0]
    if finite.size == 0:
        value, fallback = math.nan, True
    else:
        at = lo + int(finite[-1])
        value, fallback = float(data.speed[si, at]), at != ti
    vi = ti + horizon
    observed = float(data.speed[si, vi]) if vi < data.n else math.nan
    return (station, int(t_eh), horizon, math.nan, math.nan, value, bool(fallback),
            observed)


class TestPersistence:
    def test_definitional(self, data):
        t = int(data.times[1000])
        si = data.station_index("S01")
        current = float(data.speed[si, 1000])
        for k in (1, 2, 6):
            rec = _one(data, "S01", t, k)
            assert rec.point[0] == current
            assert not rec.fallback[0]
            assert math.isnan(rec.mu[0]) and math.isnan(rec.sigma[0])

    def test_constant_series_zero_error(self):
        d, _ = make_model_data(seed=3, days=30, noise_sigma=0.0,
                               diurnal_amplitude=0.0, wind_std=0.0,
                               height_noise_m=0.0)
        si = d.station_index("S01")
        t = int(d.times[200])
        rec = _one(d, "S01", t, 2)
        assert rec.observed[0] == pytest.approx(rec.point[0], abs=1e-9)

    def test_missing_current_uses_latest_and_flags(self, data):
        d = truncated_at(data, int(data.times[-1]))  # private copy
        si = d.station_index("S01")
        d.speed[si, 1000] = np.nan
        rec = _one(d, "S01", int(d.times[1000]), 2)
        assert rec.fallback[0]
        assert rec.point[0] == float(d.speed[si, 999])

    def test_mae_matches_brute_force(self, data):
        (t0, t1), (ts, te) = _bounds(data, 90, 20)
        (recs,) = run_rolling(data, "PSS", ["S02"], [3], (t0, t1), (ts, te), *ROLLING)
        scored = np.isfinite(recs.point) & np.isfinite(recs.observed)
        mae = np.mean(np.abs(recs.observed[scored] - recs.point[scored]))
        si = data.station_index("S02")
        i0 = data.index_of_time(ts)
        i1 = data.index_of_time(te - 1) + 1
        brute = np.nanmean(np.abs(data.speed[si, i0 + 3:i1 + 3]
                                  - data.speed[si, i0:i1]))
        assert mae == pytest.approx(brute, rel=1e-12)


WINDOW = 6  # lookback of the fault-injection cases, in hours


def _holed(data, station, *slices):
    """Private copy of ``data`` with ``station``'s speed blanked on ``slices``."""
    d = truncated_at(data, int(data.times[-1]))
    si = d.station_index(station)
    for sl in slices:
        d.speed[si, sl] = np.nan
    return d


class TestPersistenceFaults:
    """The vectorised forward fill against the per-record scan, bit for bit."""

    def _check(self, d, first, last, horizons=(1, 2, 6), max_back=WINDOW):
        t0 = int(d.times[first])
        t1 = int(d.times[last]) + 1
        got = persistence(d, "S01", (t0, t1), list(horizons), max_back)
        rows = [oracle_persistence(d, "S01", t, k, max_back)
                for t in range(t0, t1) for k in horizons]
        want = ForecastColumns(*map(np.array, zip(*rows)))
        for name in ("station", "issue_time", "horizon", "mu", "sigma", "point",
                     "fallback", "observed"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        return got

    def test_nan_at_issue_hour(self, data):
        d = _holed(data, "S01", 500)
        got = self._check(d, 495, 505)
        at = got.issue_time == int(d.times[500])
        assert got.fallback[at].all()
        assert (got.point[at] == d.speed[d.station_index("S01"), 499]).all()

    @pytest.mark.parametrize("gap, usable", [(WINDOW, True), (WINDOW + 1, False)])
    def test_gap_at_the_lookback_edge(self, data, gap, usable):
        # finite at 600, blank from 601 through 600 + gap: the issue hour
        # 600 + gap sees its latest observation exactly ``gap`` hours back
        d = _holed(data, "S01", slice(601, 601 + gap))
        got = self._check(d, 595, 600 + gap + 3)
        at = got.issue_time == int(d.times[600 + gap])
        assert got.fallback[at].all()
        if usable:
            assert (got.point[at] == d.speed[d.station_index("S01"), 600]).all()
        else:
            assert np.isnan(got.point[at]).all()

    def test_leading_nans(self, data):
        d = _holed(data, "S01", slice(0, 10))
        got = self._check(d, 0, 14, max_back=45 * 24)
        early = got.issue_time < int(d.times[10])
        assert np.isnan(got.point[early]).all() and got.fallback[early].all()

    def test_station_nan_everywhere(self, data):
        d = _holed(data, "S01", slice(None))
        got = self._check(d, 0, 30)
        assert np.isnan(got.point).all() and got.fallback.all()
        assert np.isnan(got.observed).all()

    def test_valid_time_past_the_axis(self, data):
        n = data.n
        got = self._check(data, n - 8, n - 1)
        past = got.issue_time + got.horizon > int(data.times[-1])
        assert past.any() and np.isnan(got.observed[past]).all()
        assert np.isfinite(got.observed[~past]).all()

    def test_test_period_off_the_axis_rejected(self, data):
        first, last = int(data.times[0]), int(data.times[-1])
        for test in ((first - 3, first + 2), (last - 3, last + 2)):
            with pytest.raises(InvalidInputError):  # neither IndexError nor a wrapped index
                persistence(data, "S01", test, [1], WINDOW_HOURS)

    def test_rolling_test_period_past_the_data_rejected(self, data):
        (t0, t1), _ = _bounds(data, 100, 1)
        end = int(data.times[-1]) + 3
        with pytest.raises(InvalidInputError):
            run_rolling(data, "PSS", ["S01"], [1], (t0, t1), (end - 24, end), *ROLLING)


class TestRunRolling:
    def test_pss_records_match_persistence_op(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 3)
        (recs,) = run_rolling(data, "PSS", ["S01"], [1, 4], (t0, t1), (ts, te), *ROLLING)
        assert len(recs) == 72 * 2
        for i in range(40):
            direct = _one(data, "S01", int(recs.issue_time[i]), int(recs.horizon[i]),
                          WINDOW_HOURS)
            assert recs.point[i] == direct.point[0]
            assert recs.observed[i] == direct.observed[0] or (
                math.isnan(recs.observed[i]) and math.isnan(direct.observed[0]))

    def test_record_count_and_order(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 4)
        recs = ForecastColumns.concat(run_rolling(data, "TDDGW-MD", ["S01", "S02"], [1, 2],
                                                  (t0, t1), (ts, te), *ROLLING))
        assert len(recs) == 2 * 96 * 2
        keys = list(zip(recs.station.tolist(), recs.issue_time.tolist(),
                        recs.horizon.tolist()))
        assert keys == sorted(keys)

    def test_median_point_consistency(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 2)
        (recs,) = run_rolling(data, "TDD", ["S01"], [2], (t0, t1), (ts, te), *ROLLING)
        ok = recs.take(~recs.fallback)
        assert np.all(np.abs(cdf_values(ok.mu, ok.sigma, ok.point) - 0.5) < 1e-9)
        assert len(ok) > 40

    def test_causality_audit(self, data):
        (t0, t1), (ts, _) = _bounds(data, 100, 4)
        cutoff = ts + 48
        (full,) = run_rolling(data, "TDDGW-MD", ["S01"], [2], (t0, t1), (ts, ts + 96),
                              *ROLLING)
        truncated_data = truncated_at(data, cutoff)
        (part,) = run_rolling(truncated_data, "TDDGW-MD", ["S01"], [2], (t0, t1),
                              (ts, cutoff), *ROLLING)
        assert len(part) == 48
        mate = full.take(slice(0, 48))  # ordered by issue hour, one horizon
        assert part.issue_time.tolist() == mate.issue_time.tolist()
        assert part.horizon.tolist() == mate.horizon.tolist()
        assert part.fallback.tolist() == mate.fallback.tolist()
        assert part.point.tolist() == mate.point.tolist()
        # a distribution on either side is one on both, with equal parameters
        assert np.array_equal(part.mu, mate.mu, equal_nan=True)
        assert np.array_equal(part.sigma, mate.sigma, equal_nan=True)

    def test_train_history_shorter_than_window_rejected(self, data):
        t0 = int(data.times[0])
        with pytest.raises(TrainingDataError):
            run_rolling(data, "PSS", ["S01"], [1], (t0, t0 + 24 * 10),
                        (t0 + 24 * 10, t0 + 24 * 12), *ROLLING)

    def test_fallback_on_missing_features(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 2)
        holed = truncated_at(data, int(data.times[-1]))
        si = holed.station_index("S02")
        i = holed.index_of_time(ts + 30)
        holed.speed[si, i] = np.nan  # cross-station feature hole
        (recs,) = run_rolling(holed, "TDD", ["S01"], [2], (t0, t1), (ts, te), *ROLLING)
        # the hole can only matter if S02 was selected; persistence point
        # forecasts must exist either way
        assert np.isfinite(recs.point).all()

    def test_fallbacks_read_the_persistence_columns(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 2)
        holed = _holed(data, "S01", data.index_of_time(ts + 30))  # the target's own lag
        (recs,) = run_rolling(holed, "TDD", ["S01"], [2], (t0, t1), (ts, te), *ROLLING)
        pss = persistence(holed, "S01", (ts, te), [2], WINDOW_HOURS)
        fb = recs.fallback
        assert fb.any() and not fb.all()
        assert np.isnan(recs.mu[fb]).all() and np.isnan(recs.sigma[fb]).all()
        assert np.isfinite(recs.mu[~fb]).all() and np.isfinite(recs.sigma[~fb]).all()
        assert recs.point[fb].tobytes() == pss.point[fb].tobytes()
        assert recs.observed.tobytes() == pss.observed.tobytes()


def _window(method, fit_time, train):
    return window(method, fit_time, train, RunConfig.window_days)


def _state(data, variant, fit_time, train):
    """The residual state ``variant`` builds for a fit at ``fit_time``."""
    spec = parse_variant(variant)
    method = spec.diurnal_method
    return ResidualState.build(data, method, _window(method, fit_time, train),
                               include_gw=spec.include_gw)


class TestStateReuse:
    """The residual state built for selection serves the first refits while
    their averaging window is its window, and equals a state built afresh
    for them."""

    @staticmethod
    def _spied_run(monkeypatch, data, variant, train, test):
        """Run one station at k=2; return the states built, in order, and the
        state each refit design was built on."""
        built, fitted = [], []
        build, design = ResidualState.build.__func__, DesignBundle.build.__func__

        def spy_build(cls, *args, **kwargs):
            built.append(build(cls, *args, **kwargs))
            return built[-1]

        def spy_design(cls, state, *args, **kwargs):
            fitted.append(state)
            return design(cls, state, *args, **kwargs)

        monkeypatch.setattr(ResidualState, "build", classmethod(spy_build))
        monkeypatch.setattr(DesignBundle, "build", classmethod(spy_design))
        run_rolling(data, variant, ["S01"], [2], train, test, *ROLLING)
        return built, fitted

    @staticmethod
    def _same_state(state, fresh):
        for name in ("speed_r", "cos_r", "sin_r", "vol"):
            assert getattr(state, name).tobytes() == getattr(fresh, name).tobytes(), name
        if fresh.gw_r is None:  # a variant without the geostrophic wind
            assert state.gw_r is None
        else:
            assert state.gw_r.tobytes() == fresh.gw_r.tobytes()
        assert state.window == fresh.window
        assert state.speed_diurnal.tobytes() == fresh.speed_diurnal.tobytes()

    @pytest.mark.parametrize("variant, delay_days, rebuilt", [
        ("TDD", 0, []), ("TDD", 1, []), ("TDD-SMD", 1, []), ("TDD-YMD", 1, []),
        ("TDDGW-MD", 0, [1]), ("TDDGW-MD", 1, [0, 1]),
    ])
    def test_first_refit_state(self, data, monkeypatch, variant, delay_days, rebuilt):
        (t0, t1), _ = _bounds(data, 100, 2)
        ts = t1 + 24 * delay_days
        method = variant.partition("-")[2] or "TRIG"
        fresh = _state(data, variant, ts, (t0, t1))
        built, fitted = self._spied_run(monkeypatch, data, variant, (t0, t1), (ts, ts + 48))

        assert [st.window for st in built] == [_window(method, at, (t0, t1)) for at in
                                               [t1] + [ts + 24 * day for day in rebuilt]]
        assert (fitted[0] is built[0]) == (0 not in rebuilt)  # built[0] selected the lags
        self._same_state(fitted[0], fresh)

    @pytest.mark.parametrize("variant, rebuilt", [
        ("TDD", []), ("TDD-YMD", []), ("TDD-SMD", [2]), ("TDD-MD", [1, 2, 3]),
    ])
    def test_refits_across_a_season_boundary(self, monkeypatch, variant, rebuilt):
        # the record opens with 10 days of DJF, so the training record holds
        # the season the test period enters on day 2 (2008-12-01)
        data, _ = make_model_data(seed=15, days=290, start="2008-02-20T00:00")
        t0, t1 = int(data.times[0]), epoch_hour("2008-11-29T00:00")
        method = variant.partition("-")[2] or "TRIG"
        built, fitted = self._spied_run(monkeypatch, data, variant, (t0, t1), (t1, t1 + 96))

        assert [st.window for st in built] == [_window(method, at, (t0, t1)) for at in
                                               [t1] + [t1 + 24 * day for day in rebuilt]]
        # one design per state, the first on the selection state
        assert [id(st) for st in fitted] == [id(st) for st in built]
        for day, state in zip([0] + rebuilt, fitted):
            self._same_state(state, _state(data, variant, t1 + 24 * day, (t0, t1)))


def test_records_csv_round_trip(tmp_path):
    records = ForecastColumns(
        station=np.array(["S01", "S01"]), issue_time=np.array([350000, 350001]),
        horizon=np.array([2, 2]), mu=np.array([5.5, math.nan]),
        sigma=np.array([1.25, math.nan]), point=np.array([5.497, 4.2]),
        fallback=np.array([False, True]), observed=np.array([6.1, math.nan]))
    path = tmp_path / "f.csv"
    write_records_csv(records, path, header_lines=["unit test"])
    back = read_records_csv(path)
    assert len(back) == 2
    for name in ("station", "issue_time", "horizon", "fallback"):
        assert getattr(back, name).tolist() == getattr(records, name).tolist(), name
    for name in ("mu", "sigma", "point", "observed"):
        np.testing.assert_array_equal(getattr(back, name), getattr(records, name), name)


def test_selection_never_holds_the_pool_design():
    """Selection on a 48-chunk period of 4 stations (133 TDD columns) traces
    less than a quarter of the pool design's rows x columns x 8 bytes: the
    pool adds up its normal equations one chunk at a time. Most of what it
    traces is the residual state, about 0.36 of that quarter."""
    rng = np.random.default_rng(5)
    n = 48 * SELECTION_CHUNK_ROWS + 200
    angles = rng.uniform(0, 2 * math.pi, (4, n))
    t0 = epoch_hour("2008-01-01T00:00")
    data = ModelData(times=np.arange(t0, t0 + n, dtype=np.int64),
                     stations=["S1", "S2", "S3", "S4"], speed=np.abs(rng.normal(6, 1.5, (4, n))),
                     cos_dir=np.cos(angles), sin_dir=np.sin(angles), temperature=None,
                     gw_speed=None, gw_cos=None, gw_sin=None)
    train = (t0, t0 + n - 24)  # every target of the training period is observed
    variant = parse_variant("TDD")
    pools = []
    build = CandidatePool.build.__func__

    def spy(cls, *args, **kwargs):
        pools.append(build(cls, *args, **kwargs))
        return pools[-1]

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CandidatePool, "build", classmethod(spy))
            _, chosen = _selection(data, variant, data.stations, [1], train, 45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (pool,) = pools
    rows, columns = int(pool.finite.sum()), len(pool.names)
    assert rows > 4 * SELECTION_CHUNK_ROWS and columns > 100
    assert len(chosen) == 4
    assert peak < rows * columns * 8 / 4
