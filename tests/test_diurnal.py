"""Diurnal profiles: trig fits, empirical windows, leakage, round trips."""

import numpy as np
import pytest

from windcast.diurnal import (
    _TRIG_TABLE,
    EmpiricalDiurnal,
    TrigDiurnal,
    fit_empirical,
    _trig_design,
    fit_trig,
)
from windcast.errors import InsufficientDataError, RankDeficiencyError
from windcast.model import ModelData, ResidualState
from windcast.timeutil import epoch_hour, hours_of_day, season_index


def _hourly(start, days):
    t0 = epoch_hour(start)
    times = np.arange(t0, t0 + 24 * days, dtype=np.int64)
    return times, hours_of_day(times)


class TestFitTrig:
    def test_constant_series(self):
        _, hod = _hourly("2008-01-01T00:00", 3)
        prof = fit_trig(hod, np.full(hod.size, 4.25))
        assert prof.coeffs == pytest.approx((4.25, 0.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_pure_first_harmonic(self):
        _, hod = _hourly("2008-01-01T00:00", 2)
        values = 3.0 + 2.0 * np.sin(2.0 * np.pi * hod / 24.0)
        prof = fit_trig(hod, values)
        assert prof.coeffs == pytest.approx((3.0, 2.0, 0.0, 0.0, 0.0), abs=1e-10)

    def test_second_harmonic_over_two_days(self):
        _, hod = _hourly("2008-01-01T00:00", 2)
        values = 1.0 + np.cos(4.0 * np.pi * hod / 24.0)
        prof = fit_trig(hod, values)
        # harmonics are orthogonal over whole cycles; cross-check the whole
        # coefficient vector against a direct least-squares oracle
        design = np.column_stack([
            np.ones(hod.size),
            np.sin(2 * np.pi * hod / 24), np.cos(2 * np.pi * hod / 24),
            np.sin(4 * np.pi * hod / 24), np.cos(4 * np.pi * hod / 24)])
        oracle = np.linalg.lstsq(design, values, rcond=None)[0]
        assert prof.coeffs == pytest.approx(tuple(oracle), abs=1e-9)
        assert prof.coeffs == pytest.approx((1.0, 0.0, 0.0, 0.0, 1.0), abs=1e-9)

    def test_too_few_distinct_hours(self):
        hod = np.array([0, 6, 12, 18, 0, 6, 12, 18])
        with pytest.raises(RankDeficiencyError):
            fit_trig(hod, np.arange(8.0))

    def test_optimality(self):
        # any coefficient perturbation strictly increases the SSE
        rng = np.random.default_rng(2)
        _, hod = _hourly("2008-03-01T00:00", 5)
        values = 5 + np.sin(2 * np.pi * hod / 24) + rng.normal(0, 0.5, hod.size)
        prof = fit_trig(hod, values)
        base = np.sum((values - prof.evaluate(hod)) ** 2)
        for i in range(5):
            for delta in (-0.05, 0.05):
                coeffs = list(prof.coeffs)
                coeffs[i] += delta
                perturbed = TrigDiurnal(tuple(coeffs))
                assert np.sum((values - perturbed.evaluate(hod)) ** 2) > base

    def test_hour_periodicity(self):
        prof = TrigDiurnal((1.0, 0.5, -0.25, 0.1, 0.2))
        h = np.arange(24)
        assert prof.evaluate(h) == pytest.approx(prof.evaluate(h + 24), abs=1e-12)

    def test_harmonic_table_is_the_direct_harmonics(self):
        def direct(hours):
            base = 2.0 * np.pi * np.asarray(hours, dtype=float) / 24.0
            return np.column_stack([np.ones(base.size), np.sin(base), np.cos(base),
                                    np.sin(2.0 * base), np.cos(2.0 * base)])

        assert _TRIG_TABLE.tobytes() == direct(np.arange(24)).tobytes()
        # rows gathered for a long series equal harmonics computed in place
        _, hod = _hourly("2008-03-01T00:00", 40)
        hod = np.random.default_rng(4).permutation(hod)
        assert _trig_design(hod).tobytes() == direct(hod).tobytes()


class TestFitEmpirical:
    def test_constant_series_every_method(self):
        times, hod = _hourly("2008-01-01T00:00", 400)
        values = np.full(times.size, 7.5)
        issue = int(times[-1]) + 1
        for method in ("MD", "SMD", "YMD"):
            prof = fit_empirical(times, values, hod, method, issue)
            assert prof.hourly_mean == pytest.approx(tuple([7.5] * 24))
            assert prof.method == method

    def test_md_hour_of_day_value(self):
        times, hod = _hourly("2008-01-01T00:00", 60)
        values = hod.astype(float)
        issue = int(times[-1]) + 1
        prof = fit_empirical(times, values, hod, "MD", issue)
        assert prof.hourly_mean == pytest.approx(tuple(float(h) for h in range(24)))

    def test_md_window_is_trailing_45_days(self):
        times, hod = _hourly("2008-01-01T00:00", 100)
        issue = int(times[0]) + 24 * 90
        values = np.where(times < issue - 24 * 45, 100.0, 2.0)  # old data differs
        prof = fit_empirical(times, values, hod, "MD", issue)
        assert prof.hourly_mean == pytest.approx(tuple([2.0] * 24))

    def test_smd_per_season_constants(self):
        times, hod = _hourly("2008-01-01T00:00", 731)  # two full years
        season = season_index(times)
        constants = np.array([1.0, 2.0, 3.0, 4.0])
        values = constants[season]
        issue = epoch_hour("2010-01-15T00:00")  # DJF issue -> winter profile
        prof = fit_empirical(times, values, hod, "SMD", issue,
                             training_end=epoch_hour("2010-01-01T00:00"))
        assert prof.hourly_mean == pytest.approx(tuple([1.0] * 24))
        prof = fit_empirical(times, values, hod, "SMD", epoch_hour("2009-07-04T00:00"))
        assert prof.hourly_mean == pytest.approx(tuple([3.0] * 24))

    def test_empty_hour_bucket_named(self):
        times, hod = _hourly("2008-01-01T00:00", 50)
        values = np.where(hod == 13, np.nan, 5.0)
        with pytest.raises(InsufficientDataError, match="hour 13"):
            fit_empirical(times, values, hod, "MD", int(times[-1]) + 1)

    @pytest.mark.parametrize("method", ["MD", "SMD", "YMD"])
    def test_no_leakage(self, method):
        rng = np.random.default_rng(4)
        times, hod = _hourly("2008-01-01T00:00", 500)
        values = 5.0 + rng.normal(0, 1, times.size)
        issue = int(times[0]) + 24 * 400
        train_end = issue - 24 * 30
        before = fit_empirical(times, values, hod, method, issue, training_end=train_end)
        mutated = values.copy()
        mutated[times >= issue] += 50.0  # corrupt the future
        after = fit_empirical(times, mutated, hod, method, issue, training_end=train_end)
        assert before.hourly_mean == after.hourly_mean


def _residual_state(times, speed, method, cos_dir=None):
    """ResidualState of one station, its profiles fitted on the whole series."""
    n = times.size
    data = ModelData(times=times, stations=["S1"], speed=speed[None, :],
                     cos_dir=(np.ones(n) if cos_dir is None else cos_dir)[None, :],
                     sin_dir=np.zeros((1, n)), temperature=np.full((1, n), 15.0),
                     gw_speed=np.ones(n), gw_cos=np.ones(n), gw_sin=np.zeros(n))
    end = int(times[-1]) + 1
    return ResidualState.build(data, method, end, (int(times[0]), end))


class TestResidualize:
    """Residual arrays are the series minus its diurnal profile."""

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        times, hod = _hourly("2008-05-01T00:00", 90)
        values = np.abs(rng.normal(6, 2, times.size))
        state = _residual_state(times, values, "TRIG")
        restored = state.speed_r[0] + state.profiles["speed/S1"].evaluate(hod)
        assert restored == pytest.approx(values, abs=1e-12)

    def test_series_equal_to_profile(self):
        prof = EmpiricalDiurnal(tuple(np.linspace(1, 4, 24)), "YMD", "whole record")
        times, hod = _hourly("2008-02-01T00:00", 10)
        state = _residual_state(times, prof.evaluate(hod), "YMD")
        assert state.profiles["speed/S1"].hourly_mean == pytest.approx(prof.hourly_mean)
        assert np.allclose(state.speed_r[0], 0.0, atol=1e-14)

    def test_direction_component_residual_mean(self):
        # least-squares residuals are orthogonal to the constant regressor,
        # so the residual of cos(direction) has (near) zero mean on the
        # fitting sample
        rng = np.random.default_rng(8)
        times, hod = _hourly("2008-06-01T00:00", 120)
        theta = (2.2 + 0.5 * np.sin(2 * np.pi * hod / 24)
                 + rng.normal(0, 0.4, times.size))
        cos_series = np.cos(theta)
        state = _residual_state(times, np.full(times.size, 5.0), "TRIG", cos_dir=cos_series)
        assert abs(state.cos_r[0].mean()) < 1e-12
