"""Verification: score identities, PIT calibration, reductions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from windcast.errors import EmptyReportError, InvalidInputError
from windcast.forecast import ForecastColumns
from windcast.predictive import quantile_values
from windcast.timeutil import epoch_hour
from windcast.verification import (
    SCORE_METRICS,
    CellScores,
    format_score_table,
    read_scores_csv,
    relative_reduction,
    score,
    score_groups,
    write_pit_csv,
    write_scores_csv,
)

T0 = epoch_hour("2010-01-01T00:00")


def _columns(point, observed, mu=math.nan, sigma=math.nan, station="S01", k=2):
    """Forecasts of one (station, k) cell, one per issue hour from T0; scalars
    fill their whole column."""
    n = len(observed)
    return ForecastColumns(
        station=np.full(n, station), issue_time=T0 + np.arange(n), horizon=np.full(n, k),
        mu=np.broadcast_to(mu, n).astype(float), sigma=np.broadcast_to(sigma, n).astype(float),
        point=np.broadcast_to(point, n).astype(float), fallback=np.zeros(n, dtype=bool),
        observed=np.asarray(observed, dtype=float))


def _records(n=200, station="S01", k=2, seed=0, sigma=1.0, perfect=False,
             from_own_dist=False):
    rng = np.random.default_rng(seed)
    mu = 5.0 + 2.0 * np.sin(np.arange(n) / 40.0)
    sigma = np.full(n, sigma)
    point = quantile_values(mu, sigma, 0.5)
    if perfect:
        observed = point
    elif from_own_dist:  # inverse-CDF draws
        u = np.clip(rng.uniform(0.0, 1.0, n), 1e-15, 1.0 - 1e-15)
        observed = quantile_values(mu, sigma, u)
    else:
        observed = np.maximum(0.0, mu + rng.normal(0.0, sigma))
    return _columns(point, observed, mu, sigma, station, k)


def _fields(cell) -> dict:
    """A cell's fields, its metric mappings spread out as monthly.<metric>
    and overall.<metric>."""
    out = {name: value for name, value in vars(cell).items() if not isinstance(value, dict)}
    for metric in SCORE_METRICS:
        out[f"monthly.{metric}"] = cell.monthly[metric]
        out[f"overall.{metric}"] = cell.overall[metric]
    return out


class TestScore:
    def test_perfect_point_forecasts(self):
        rep = score(_records(perfect=True), "TDD")
        assert rep.overall["mae"] == 0.0
        assert rep.overall["rmse"] == 0.0

    def test_rmse_dominates_mae(self):
        for seed in range(5):
            rep = score(_records(seed=seed, n=400), "TDD")
            assert rep.overall["rmse"] >= rep.overall["mae"]
            assert np.all(rep.monthly["rmse"] >= rep.monthly["mae"] - 1e-12)

    def test_monthly_aggregation_identities(self):
        rep = score(_records(n=24 * 70, seed=3), "TDD")  # spans >2 months
        assert len(rep.months) >= 2
        n = rep.n_by_month
        assert n.sum() == rep.n_scored
        for metric in ("mae", "crps", "width90"):
            weighted = float(np.sum(n * rep.monthly[metric]) / n.sum())
            assert rep.overall[metric] == pytest.approx(weighted, rel=1e-12), metric
        pooled = float(np.sqrt(np.sum(n * rep.monthly["rmse"]**2) / n.sum()))
        assert rep.overall["rmse"] == pytest.approx(pooled, rel=1e-12)

    def test_pit_values_and_counts(self):
        rep = score(_records(n=500, seed=1), "TDD")
        assert rep.pit_counts.sum() == rep.n_prob == 500

    def test_pit_uniform_when_calibrated(self):
        rep = score(_records(n=10000, seed=42, from_own_dist=True), "TDD")
        expected = rep.n_prob / 10
        stat = float(np.sum((rep.pit_counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.95, df=9)

    def test_sigma_shrink_limits_to_point_mae(self):
        # frozen record set: as sigma -> 0 the mean CRPS approaches the MAE
        # of the median point forecasts
        base = _records(n=300, seed=7, sigma=1.0)
        sigma = np.full(300, 1e-7)
        shrunk = replace(base, sigma=sigma, point=quantile_values(base.mu, sigma, 0.5))
        rep = score(shrunk, "TDD")
        assert rep.overall["crps"] == pytest.approx(rep.overall["mae"], abs=1e-5)

    def test_interval_width_positive(self):
        rep = score(_records(n=300, seed=2), "TDD")
        widths = rep.monthly["width90"]
        assert rep.overall["width90"] > 0.0
        assert np.all(widths[np.isfinite(widths)] > 0.0)

    def test_point_only_records(self):
        rep = score(_columns(5.0, 5.0 + 0.1 * np.arange(50)), "PSS")
        assert rep.n_prob == 0
        assert math.isnan(rep.overall["crps"])
        assert rep.overall["mae"] > 0.0

    def test_empty_errors(self):
        with pytest.raises(EmptyReportError):
            score(_records(n=0), "TDD")
        no_obs = _columns(5.0, [math.nan], mu=5.0, sigma=1.0)
        with pytest.raises(EmptyReportError):
            score(no_obs, "TDD")

    def test_mixed_groups_rejected(self):
        recs = ForecastColumns.concat([_records(n=10), _records(n=10, station="S02")])
        with pytest.raises(InvalidInputError):
            score(recs, "TDD")
        groups = score_groups(recs, "TDD")
        assert set(groups) == {("S01", 2), ("S02", 2)}

    def test_groups_keep_each_cells_rows_in_order(self):
        """score_groups' one stable sort gives each cell the rows, in file
        order, that a mask of its (station, horizon) selects."""
        parts = [_records(n=90, station=st, k=k, seed=i)
                 for i, (st, k) in enumerate([("S02", 3), ("S01", 1), ("S10", 2), ("S01", 3)])]
        recs = ForecastColumns.concat(parts).take(np.random.default_rng(5).permutation(360))
        recs.horizon[::7] = 1  # a cell whose rows come from several parts
        groups = score_groups(recs, "TDD")
        keys = sorted(set(zip(recs.station.tolist(), recs.horizon.tolist())))
        assert list(groups) == keys
        for (st, k), report in groups.items():
            expected = score(recs.take((recs.station == st) & (recs.horizon == k)), "TDD")
            got = _fields(report)
            for name, want in _fields(expected).items():
                assert np.asarray(got[name]).tobytes() == np.asarray(want).tobytes(), name
        assert score_groups(recs.take(np.zeros(0, dtype=int)), "TDD") == {}

    def test_fallback_exclusion(self):
        recs = _records(n=100, seed=4)
        recs.fallback[:30] = True
        with_fb = score(recs, "TDD")
        without = score(recs.take(~recs.fallback), "TDD")
        assert with_fb.n_scored == 100
        assert without.n_scored == 70


class TestRelativeReduction:
    def test_identical_reports_zero(self):
        assert relative_reduction(0.95, 0.95) == 0.0

    def test_published_style_numbers(self):
        # canonical example: baseline 1.08 vs model 0.88 -> 100*(1.08-0.88)/1.08
        assert relative_reduction(0.88, 1.08) == pytest.approx(18.5185, abs=1e-3)

    def test_worse_model_negative(self):
        assert relative_reduction(1.0, 0.9) < 0.0

    def test_zero_baseline_not_applicable(self):
        assert math.isnan(relative_reduction(0.5, 0.0))

    def test_non_finite_score_not_applicable(self):
        for model, baseline in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                (1.0, -math.inf)):
            assert math.isnan(relative_reduction(model, baseline)), (model, baseline)


def test_score_csv_and_table_outputs(tmp_path):
    reports = [score(_records(n=24 * 40, seed=s), v)
               for s, v in ((1, "PSS"), (2, "TDD"))]
    write_scores_csv(reports, tmp_path / "scores.csv", header_lines=["x"])
    write_pit_csv(reports, tmp_path / "pit.csv")
    text = (tmp_path / "scores.csv").read_text()
    assert "overall" in text and "2010-01" in text
    table = format_score_table(reports, "mae")
    assert "MAE" in table and "Overall" in table
    with pytest.raises(InvalidInputError):
        format_score_table(reports, "nope")


def test_scores_csv_round_trips_bit_exactly(tmp_path):
    """What report reads back is what evaluate scored, NaN cells included."""
    recs = _records(n=24 * 70, seed=8)
    n = len(recs)
    point_only = replace(recs, mu=np.full(n, math.nan), sigma=np.full(n, math.nan),
                         fallback=np.ones(n, dtype=bool))
    reports = [score(_records(n=24 * 70, seed=7), "TDD"), score(point_only, "PSS")]
    write_scores_csv(reports, tmp_path / "scores.csv", header_lines=["x"])
    cells = read_scores_csv(tmp_path / "scores.csv")
    assert math.isnan(cells[1].overall["crps"])
    assert len(cells) == len(reports)
    for cell, rep in zip(cells, reports):
        assert type(cell) is CellScores
        assert tuple(cell.monthly) == tuple(cell.overall) == tuple(rep.overall) == SCORE_METRICS
        scored = _fields(rep)
        for name, got in _fields(cell).items():
            want = scored[name]
            np.testing.assert_array_equal(np.asarray(got), np.asarray(want), err_msg=name)
            assert type(got) is type(want) or isinstance(want, np.ndarray), name
    for metric in SCORE_METRICS:
        assert format_score_table(cells, metric) == format_score_table(reports, metric)
        assert repr(relative_reduction(cells[0].overall[metric], cells[1].overall[metric])) \
            == repr(relative_reduction(reports[0].overall[metric], reports[1].overall[metric]))
