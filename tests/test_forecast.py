"""Rolling engine: persistence, causality, record bookkeeping."""

import math

import numpy as np
import pytest

from windcast.forecast import (
    ForecastRecord,
    RollingConfig,
    persistence,
    read_records_csv,
    run_rolling_station,
    write_records_csv,
)
from windcast.predictive import TruncatedNormal
from windcast.errors import TrainingDataError

from conftest import make_model_data

ROLLING = RollingConfig(restarts=1)


@pytest.fixture(scope="module")
def data():
    d, _ = make_model_data(seed=12, days=120)
    return d


def _bounds(data, train_days, test_days):
    t0 = int(data.times[0])
    t1 = t0 + 24 * train_days
    return (t0, t1), (t1, t1 + 24 * test_days)


class TestPersistence:
    def test_definitional(self, data):
        t = int(data.times[1000])
        si = data.station_index("S01")
        current = float(data.speed[si, 1000])
        for k in (1, 2, 6):
            rec = persistence(data, "S01", t, k)
            assert rec.point == current
            assert not rec.fallback
            assert math.isnan(rec.mu) and math.isnan(rec.sigma)

    def test_constant_series_zero_error(self):
        d, _ = make_model_data(seed=3, days=30, noise_sigma=0.0,
                               diurnal_amplitude=0.0, wind_std=0.0,
                               height_noise_m=0.0)
        si = d.station_index("S01")
        t = int(d.times[200])
        rec = persistence(d, "S01", t, 2)
        assert rec.observed == pytest.approx(rec.point, abs=1e-9)

    def test_missing_current_uses_latest_and_flags(self, data):
        d = data.truncated_at(int(data.times[-1]))  # private copy
        si = d.station_index("S01")
        d.speed[si, 1000] = np.nan
        rec = persistence(d, "S01", int(d.times[1000]), 2)
        assert rec.fallback
        assert rec.point == float(d.speed[si, 999])

    def test_mae_matches_brute_force(self, data):
        (t0, t1), (ts, te) = _bounds(data, 90, 20)
        recs = run_rolling_station(data, "PSS", "S02", [3], (t0, t1), (ts, te), ROLLING)
        scored = [(r.point, r.observed) for r in recs
                  if math.isfinite(r.point) and math.isfinite(r.observed)]
        mae = np.mean([abs(o - p) for p, o in scored])
        si = data.station_index("S02")
        i0 = data.index_of_time(ts)
        i1 = data.index_of_time(te - 1) + 1
        brute = np.nanmean(np.abs(data.speed[si, i0 + 3:i1 + 3]
                                  - data.speed[si, i0:i1]))
        assert mae == pytest.approx(brute, rel=1e-12)


class TestRunRolling:
    def test_pss_records_match_persistence_op(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 3)
        recs = run_rolling_station(data, "PSS", "S01", [1, 4], (t0, t1), (ts, te),
                                   ROLLING)
        assert len(recs) == 72 * 2
        for rec in recs[:40]:
            direct = persistence(data, "S01", rec.issue_time, rec.horizon,
                                 ROLLING.window_hours)
            assert rec.point == direct.point
            assert rec.observed == direct.observed or (
                math.isnan(rec.observed) and math.isnan(direct.observed))

    def test_record_count_and_order(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 4)
        recs = [r for st in ("S01", "S02")
                for r in run_rolling_station(data, "TDDGW-MD", st, [1, 2], (t0, t1),
                                             (ts, te), ROLLING, seed=5)]
        assert len(recs) == 2 * 96 * 2
        keys = [(r.station, r.issue_time, r.horizon) for r in recs]
        assert keys == sorted(keys)

    def test_median_point_consistency(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 2)
        recs = run_rolling_station(data, "TDD", "S01", [2], (t0, t1), (ts, te),
                                   ROLLING, seed=5)
        checked = 0
        for r in recs:
            if r.fallback:
                continue
            d = TruncatedNormal(r.mu, r.sigma)
            assert abs(d.cdf(r.point) - 0.5) < 1e-9
            checked += 1
        assert checked > 40

    def test_causality_audit(self, data):
        (t0, t1), (ts, _) = _bounds(data, 100, 4)
        cutoff = ts + 48
        full = run_rolling_station(data, "TDDGW-MD", "S01", [2], (t0, t1),
                                   (ts, ts + 96), ROLLING, seed=5)
        truncated_data = data.truncated_at(cutoff)
        part = run_rolling_station(truncated_data, "TDDGW-MD", "S01", [2], (t0, t1),
                                   (ts, cutoff), ROLLING, seed=5)
        full_by_key = {(r.issue_time, r.horizon): r for r in full}
        assert len(part) == 48
        for r in part:
            mate = full_by_key[(r.issue_time, r.horizon)]
            assert r.fallback == mate.fallback
            assert r.point == mate.point
            if math.isfinite(r.mu) or math.isfinite(mate.mu):
                assert r.mu == mate.mu and r.sigma == mate.sigma

    def test_train_history_shorter_than_window_rejected(self, data):
        t0 = int(data.times[0])
        with pytest.raises(TrainingDataError):
            run_rolling_station(data, "PSS", "S01", [1], (t0, t0 + 24 * 10),
                                (t0 + 24 * 10, t0 + 24 * 12), ROLLING)

    def test_fallback_on_missing_features(self, data):
        (t0, t1), (ts, te) = _bounds(data, 100, 2)
        holed = data.truncated_at(int(data.times[-1]))
        si = holed.station_index("S02")
        i = holed.index_of_time(ts + 30)
        holed.speed[si, i] = np.nan  # cross-station feature hole
        recs = run_rolling_station(holed, "TDD", "S01", [2], (t0, t1), (ts, te),
                                   ROLLING, seed=5)
        flagged = [r for r in recs if r.fallback]
        clean = [r for r in recs if not r.fallback]
        # the hole can only matter if S02 was selected; persistence point
        # forecasts must exist either way
        assert all(math.isfinite(r.point) for r in flagged + clean)


def test_records_csv_round_trip(tmp_path):
    records = [
        ForecastRecord("S01", 350000, 2, 5.5, 1.25, 5.497, False, 6.1),
        ForecastRecord("S01", 350001, 2, math.nan, math.nan, 4.2, True, math.nan),
    ]
    path = tmp_path / "f.csv"
    write_records_csv(records, path, header_lines=["unit test"])
    back = read_records_csv(path)
    assert len(back) == 2
    for a, b in zip(back, records):
        assert a.station == b.station
        assert a.issue_time == b.issue_time
        assert a.horizon == b.horizon
        assert a.fallback == b.fallback
        for field in ("mu", "sigma", "point", "observed"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x == y) or (math.isnan(x) and math.isnan(y))
