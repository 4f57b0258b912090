"""Diurnal profiles: trig fits, empirical windows, leakage, round trips."""

import numpy as np
import pytest

from windcast.diurnal import (
    TRIG_TABLE,
    describe,
    fit_empirical,
    _trig_design,
    fit_trig,
    in_window,
    window,
)
from windcast.errors import InsufficientDataError, InvalidInputError, RankDeficiencyError
from windcast.model import ModelData, ResidualState
from windcast.timeutil import epoch_hour, hours_of_day, season_index


def _hourly(start, days):
    t0 = epoch_hour(start)
    times = np.arange(t0, t0 + 24 * days, dtype=np.int64)
    return times, hours_of_day(times)


def _evaluate(coeffs, hours):
    """A TRIG profile's values at the given hours of day."""
    return (TRIG_TABLE @ np.asarray(coeffs))[np.mod(hours, 24)]


def _empirical(times, values, method, issue, training_end=None, window_days=45):
    """The method's hourly means at ``issue``, fitted on its window's hours;
    without a training end, the training record runs up to ``issue``."""
    train = (int(times[0]), issue if training_end is None else training_end)
    rows = in_window(window(method, issue, train, window_days), times)
    return fit_empirical(hours_of_day(times[rows]), values[rows])


class TestFitTrig:
    def test_constant_series(self):
        _, hod = _hourly("2008-01-01T00:00", 3)
        coeffs = fit_trig(hod, np.full(hod.size, 4.25))
        assert tuple(coeffs) == pytest.approx((4.25, 0.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_pure_first_harmonic(self):
        _, hod = _hourly("2008-01-01T00:00", 2)
        values = 3.0 + 2.0 * np.sin(2.0 * np.pi * hod / 24.0)
        coeffs = fit_trig(hod, values)
        assert tuple(coeffs) == pytest.approx((3.0, 2.0, 0.0, 0.0, 0.0), abs=1e-10)

    def test_second_harmonic_over_two_days(self):
        _, hod = _hourly("2008-01-01T00:00", 2)
        values = 1.0 + np.cos(4.0 * np.pi * hod / 24.0)
        coeffs = tuple(fit_trig(hod, values))
        # harmonics are orthogonal over whole cycles; cross-check the whole
        # coefficient vector against a direct least-squares oracle
        design = np.column_stack([
            np.ones(hod.size),
            np.sin(2 * np.pi * hod / 24), np.cos(2 * np.pi * hod / 24),
            np.sin(4 * np.pi * hod / 24), np.cos(4 * np.pi * hod / 24)])
        oracle = np.linalg.lstsq(design, values, rcond=None)[0]
        assert coeffs == pytest.approx(tuple(oracle), abs=1e-9)
        assert coeffs == pytest.approx((1.0, 0.0, 0.0, 0.0, 1.0), abs=1e-9)

    def test_too_few_distinct_hours(self):
        hod = np.array([0, 6, 12, 18, 0, 6, 12, 18])
        with pytest.raises(RankDeficiencyError):
            fit_trig(hod, np.arange(8.0))

    def test_optimality(self):
        # any coefficient perturbation strictly increases the SSE
        rng = np.random.default_rng(2)
        _, hod = _hourly("2008-03-01T00:00", 5)
        values = 5 + np.sin(2 * np.pi * hod / 24) + rng.normal(0, 0.5, hod.size)
        best = fit_trig(hod, values)
        base = np.sum((values - _evaluate(best, hod)) ** 2)
        for i in range(5):
            for delta in (-0.05, 0.05):
                coeffs = best.copy()
                coeffs[i] += delta
                assert np.sum((values - _evaluate(coeffs, hod)) ** 2) > base

    def test_hour_periodicity(self):
        coeffs = np.array([1.0, 0.5, -0.25, 0.1, 0.2])
        h = np.arange(24)
        assert _trig_design(h) @ coeffs == pytest.approx(_trig_design(h + 24) @ coeffs,
                                                         abs=1e-12)

    def test_harmonic_table_is_the_direct_harmonics(self):
        def direct(hours):
            base = 2.0 * np.pi * np.asarray(hours, dtype=float) / 24.0
            return np.column_stack([np.ones(base.size), np.sin(base), np.cos(base),
                                    np.sin(2.0 * base), np.cos(2.0 * base)])

        assert TRIG_TABLE.tobytes() == direct(np.arange(24)).tobytes()
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
            means = _empirical(times, values, method, issue)
            assert tuple(means) == pytest.approx(tuple([7.5] * 24))

    def test_md_hour_of_day_value(self):
        times, hod = _hourly("2008-01-01T00:00", 60)
        values = hod.astype(float)
        issue = int(times[-1]) + 1
        means = _empirical(times, values, "MD", issue)
        assert tuple(means) == pytest.approx(tuple(float(h) for h in range(24)))

    def test_md_window_is_trailing_45_days(self):
        times, hod = _hourly("2008-01-01T00:00", 100)
        issue = int(times[0]) + 24 * 90
        values = np.where(times < issue - 24 * 45, 100.0, 2.0)  # old data differs
        means = _empirical(times, values, "MD", issue)
        assert tuple(means) == pytest.approx(tuple([2.0] * 24))

    def test_md_window_trails_window_days(self):
        times, hod = _hourly("2008-01-01T00:00", 100)
        issue = int(times[0]) + 24 * 90
        values = np.where(times < issue - 24 * 30, 100.0, 2.0)
        assert tuple(_empirical(times, values, "MD", issue, window_days=30)) \
            == pytest.approx(tuple([2.0] * 24))
        assert _empirical(times, values, "MD", issue, window_days=31).min() > 2.0

    def test_smd_per_season_constants(self):
        times, hod = _hourly("2008-01-01T00:00", 731)  # two full years
        season = season_index(times)
        constants = np.array([1.0, 2.0, 3.0, 4.0])
        values = constants[season]
        issue = epoch_hour("2010-01-15T00:00")  # DJF issue -> winter profile
        means = _empirical(times, values, "SMD", issue,
                           training_end=epoch_hour("2010-01-01T00:00"))
        assert tuple(means) == pytest.approx(tuple([1.0] * 24))
        means = _empirical(times, values, "SMD", epoch_hour("2009-07-04T00:00"))
        assert tuple(means) == pytest.approx(tuple([3.0] * 24))

    def test_empty_hour_bucket_named(self):
        times, hod = _hourly("2008-01-01T00:00", 50)
        values = np.where(hod == 13, np.nan, 5.0)
        with pytest.raises(InsufficientDataError, match="hour 13"):
            _empirical(times, values, "MD", int(times[-1]) + 1)

    @pytest.mark.parametrize("method", ["MD", "SMD", "YMD"])
    def test_no_leakage(self, method):
        rng = np.random.default_rng(4)
        times, hod = _hourly("2008-01-01T00:00", 500)
        values = 5.0 + rng.normal(0, 1, times.size)
        issue = int(times[0]) + 24 * 400
        train_end = issue - 24 * 30
        before = _empirical(times, values, method, issue, training_end=train_end)
        mutated = values.copy()
        mutated[times >= issue] += 50.0  # corrupt the future
        after = _empirical(times, mutated, method, issue, training_end=train_end)
        assert before.tobytes() == after.tobytes()


class TestWindow:
    """diurnal.window: which hours each method fits on."""

    TRAIN = (epoch_hour("2008-01-01T00:00"), epoch_hour("2008-11-25T00:00"))

    def test_windows(self):
        (s, e), t = self.TRAIN, epoch_hour("2008-12-02T00:00")
        assert window("TRIG", t, self.TRAIN, 45) == (s, e, None)
        assert window("MD", t, self.TRAIN, 30) == (t - 24 * 30, t, None)
        assert window("SMD", t, self.TRAIN, 45) == (None, e, 0)  # DJF
        assert window("YMD", t, self.TRAIN, 45) == (None, e, None)
        early = s + 24 * 50  # before the training end, every window ends at the fit
        assert [window(m, early, self.TRAIN, 45)[1] for m in ("TRIG", "MD", "SMD", "YMD")] \
            == [early] * 4

    def test_unknown_method_refused(self):
        with pytest.raises(InvalidInputError, match="QMD"):
            window("QMD", self.TRAIN[1], self.TRAIN, 45)

    def test_smd_and_ymd_read_history_before_training_start(self):
        times, _ = _hourly("2007-12-01T00:00", 120)
        early = times < self.TRAIN[0]
        for method, reads_early in (("TRIG", False), ("SMD", True), ("YMD", True)):
            rows = in_window(window(method, self.TRAIN[0] + 24 * 30, self.TRAIN, 45), times)
            assert rows[early].any() == reads_early, method

    def test_described(self):
        t = epoch_hour("2008-06-01T00:00")
        assert describe("SMD", window("SMD", t, self.TRAIN, 45)) \
            == "SMD window (season JJA, before 2008-06-01T00:00Z)"
        assert describe("MD", window("MD", t, self.TRAIN, 1)) \
            == "MD window (from 2008-05-31T00:00Z, before 2008-06-01T00:00Z)"


def _residual_state(times, speed, method, cos_dir=None):
    """ResidualState of one station, its profiles fitted on the whole series."""
    n = times.size
    data = ModelData(times=times, stations=["S1"], speed=speed[None, :],
                     cos_dir=(np.ones(n) if cos_dir is None else cos_dir)[None, :],
                     sin_dir=np.zeros((1, n)), temperature=np.full((1, n), 15.0),
                     gw_speed=np.ones(n), gw_cos=np.ones(n), gw_sin=np.zeros(n))
    end = int(times[-1]) + 1
    return ResidualState.build(data, method, window(method, end, (int(times[0]), end), 45),
                               include_gw=True)


class TestResidualize:
    """Residual arrays are the series minus its diurnal profile."""

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        times, hod = _hourly("2008-05-01T00:00", 90)
        values = np.abs(rng.normal(6, 2, times.size))
        state = _residual_state(times, values, "TRIG")
        restored = state.speed_r[0] + state.speed_diurnal[0][hod]
        assert restored == pytest.approx(values, abs=1e-12)

    def test_series_equal_to_profile(self):
        prof = np.linspace(1, 4, 24)
        times, hod = _hourly("2008-02-01T00:00", 10)
        state = _residual_state(times, prof[hod], "YMD")
        assert tuple(state.speed_diurnal[0]) == pytest.approx(tuple(prof))
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

    def test_empty_hour_names_the_window_and_the_series(self):
        # an SMD fit in June whose training record ends in May has no JJA hours
        times, _ = _hourly("2008-03-01T00:00", 100)
        n = times.size
        data = ModelData(times=times, stations=["S1"], speed=np.full((1, n), 5.0),
                         cos_dir=np.ones((1, n)), sin_dir=np.zeros((1, n)),
                         temperature=np.full((1, n), 15.0), gw_speed=np.ones(n),
                         gw_cos=np.ones(n), gw_sin=np.zeros(n))
        train = (int(times[0]), epoch_hour("2008-05-25T00:00"))
        win = window("SMD", epoch_hour("2008-06-01T00:00"), train, 45)
        with pytest.raises(InsufficientDataError) as info:
            ResidualState.build(data, "SMD", win, include_gw=True)
        assert str(info.value) == ("speed at S1 in the SMD window (season JJA, before "
                                   "2008-05-25T00:00Z) has no observations at hour 00")
