"""Geostrophic estimation: hydrostatic reduction, plane fits, wind conversion."""

import math
import warnings

import numpy as np
import pytest

from windcast.errors import (
    InvalidInputError,
    RankDeficiencyError,
    UnsupportedLatitudeError,
)
from windcast.geostrophy import (
    EARTH_RADIUS_M,
    GeoWindSeries,
    MeanRemovalPolicy,
    PhysicalConstants,
    PlaneFit,
    _nanmean,
    coriolis,
    estimate_series,
    fit_plane,
    geostrophic_from_plane,
    project_local,
    reduce_to_reference,
)
from windcast.series import Network, StationMeta, StationSeries
from windcast.timeutil import epoch_hour

CONST = PhysicalConstants()


class TestReduceToReference:
    def test_at_reference_pressure(self):
        # p_i = p_ref kills the log term for any temperature
        for t in (250.0, 290.0, 310.0):
            assert reduce_to_reference(850.0, 1500.0, t) == 1500.0

    def test_scalar_case(self):
        # 700 + (287*290/9.80665)*ln(1000/850), evaluated independently
        expected = 700.0 + (287.0 * 290.0 / 9.80665) * math.log(1000.0 / 850.0)
        got = reduce_to_reference(1000.0, 700.0, 290.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(2079.4, abs=0.1)

    def test_unit_prefactor(self):
        # T = g0/R makes the prefactor exactly 1; p = e*p_ref makes ln = 1
        t_bar = CONST.g0 / CONST.gas_constant
        assert reduce_to_reference(850.0 * math.e, 0.0, t_bar) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            reduce_to_reference(0.0, 100.0, 280.0)
        with pytest.raises(InvalidInputError):
            reduce_to_reference(900.0, 100.0, -1.0)


def _meta(i, lat, lon, elev=800.0):
    return StationMeta(id=f"S{i:02d}", latitude=lat, longitude=lon, elevation=elev)


class TestProjectLocal:
    def test_origin_maps_to_zero(self):
        x, y = project_local([_meta(1, 33.0, -101.0)], 33.0, -101.0)
        assert x[0] == 0.0 and y[0] == 0.0

    def test_one_degree_north(self):
        x, y = project_local([_meta(1, 34.0, -101.0)], 33.0, -101.0)
        assert y[0] == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-12)
        assert y[0] == pytest.approx(111194.93, abs=0.01)

    def test_one_degree_east_at_60(self):
        x, y = project_local([_meta(1, 60.0, -100.0)], 60.0, -101.0)
        assert x[0] == pytest.approx(0.5 * EARTH_RADIUS_M * math.pi / 180.0, rel=1e-9)

    def test_bad_origin(self):
        with pytest.raises(InvalidInputError):
            project_local([_meta(1, 0.0, 0.0)], 95.0, 0.0)


class TestFitPlane:
    def test_exact_plane(self):
        x = np.array([0.0, 1000.0, -500.0, 2000.0, 300.0])
        y = np.array([0.0, -800.0, 1200.0, 500.0, -2000.0])
        z = 1500.0 + 0.001 * x - 0.002 * y
        fit = fit_plane(x, y, z)
        assert fit.a0 == pytest.approx(1500.0, rel=1e-9)
        assert fit.a1 == pytest.approx(0.001, rel=1e-9)
        assert fit.a2 == pytest.approx(-0.002, rel=1e-9)
        assert fit.rms_residual < 1e-9
        assert fit.n_stations == 5

    def test_constant_field(self):
        x = np.array([0.0, 1.0, 0.0, 3.0])
        y = np.array([0.0, 0.0, 2.0, 1.0])
        fit = fit_plane(x, y, np.full(4, 1420.0))
        assert (fit.a0, fit.a1, fit.a2) == pytest.approx((1420.0, 0.0, 0.0), abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5e4, 5e4, 12)
        y = rng.uniform(-5e4, 5e4, 12)
        z = 1480.0 + 2e-4 * x - 1e-4 * y + rng.normal(0.0, 1.0, 12)
        fit = fit_plane(x, y, z)
        # independent oracle: solve the 3x3 normal equations directly
        design = np.column_stack([np.ones(12), x, y])
        oracle = np.linalg.solve(design.T @ design, design.T @ z)
        assert fit.a0 == pytest.approx(oracle[0], rel=1e-9)
        assert fit.a1 == pytest.approx(oracle[1], rel=1e-9)
        assert fit.a2 == pytest.approx(oracle[2], rel=1e-9)

    def test_collinear_points_rejected(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(RankDeficiencyError):
            fit_plane(x, 2.0 * x, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_too_few_points(self):
        with pytest.raises(RankDeficiencyError):
            fit_plane([0.0, 1.0], [0.0, 1.0], [1.0, 2.0])


class TestCoriolis:
    def test_pole(self):
        assert coriolis(90.0) == pytest.approx(2.0 * CONST.omega, rel=1e-12)
        assert coriolis(90.0) == pytest.approx(1.45842318e-4, rel=1e-8)

    def test_thirty_degrees(self):
        assert coriolis(30.0) == pytest.approx(CONST.omega, rel=1e-12)

    def test_study_area(self):
        expected = 2.0 * CONST.omega * math.sin(math.radians(33.6))
        assert coriolis(33.6) == pytest.approx(expected, rel=1e-12)
        assert coriolis(33.6) == pytest.approx(8.0708e-5, abs=1e-9)

    def test_equator_guard(self):
        for lat in (0.0, 4.9, -3.0):
            with pytest.raises(UnsupportedLatitudeError):
                coriolis(lat)

    def test_southern_hemisphere_sign(self):
        assert coriolis(-30.0) == pytest.approx(-CONST.omega, rel=1e-12)


class TestGeostrophicFromPlane:
    def test_flat_field(self):
        fit = PlaneFit(1500.0, 0.0, 0.0, 0.0, 5)
        assert geostrophic_from_plane(fit, 1e-4) == (0.0, 0.0)

    def test_northward_gradient(self):
        fit = PlaneFit(0.0, 0.0, 1e-4, 0.0, 5)
        u, v = geostrophic_from_plane(fit, 1e-4)
        assert u == pytest.approx(-CONST.g0, rel=1e-12)
        assert v == 0.0

    def test_eastward_gradient(self):
        fit = PlaneFit(0.0, 1e-4, 0.0, 0.0, 5)
        u, v = geostrophic_from_plane(fit, 8.069e-5)
        assert u == 0.0
        assert v == pytest.approx(CONST.g0 / 8.069e-5 * 1e-4, rel=1e-12)
        assert v == pytest.approx(12.15, abs=0.01)

    def test_zero_coriolis(self):
        with pytest.raises(InvalidInputError):
            geostrophic_from_plane(PlaneFit(0.0, 0.0, 0.0, 0.0, 3), 0.0)


def _network_from_heights(metas, times, heights, temp_c=15.0, const=CONST):
    """Forward-construct pressures from target reference-surface heights."""
    t_bar_k = temp_c + 273.15
    series = []
    for i, m in enumerate(metas):
        p = const.p_ref * np.exp(const.g0 * (heights[i] - m.elevation)
                                 / (const.gas_constant * t_bar_k))
        series.append(StationSeries(
            meta=m, times=times,
            wind_speed=np.zeros(times.size),
            wind_direction=np.zeros(times.size),
            temperature=np.full(times.size, temp_c),
            pressure=p,
        ))
    return Network.from_series(series)


def _ring_metas(n=12, lat0=33.6, lon0=-101.0, radius_m=150e3):
    angles = 2.0 * math.pi * np.arange(n) / n
    metas = []
    for i, a in enumerate(angles):
        dlat = math.degrees(radius_m * math.sin(a) / EARTH_RADIUS_M)
        dlon = math.degrees(radius_m * math.cos(a)
                            / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
        metas.append(_meta(i + 1, lat0 + dlat, lon0 + dlon, elev=700.0 + 20.0 * i))
    return metas


class TestEstimateSeries:
    def setup_method(self):
        self.metas = _ring_metas()
        self.times = np.arange(epoch_hour("2008-01-01T00:00"),
                               epoch_hour("2008-01-03T00:00"), dtype=np.int64)
        self.lat0 = float(np.mean([m.latitude for m in self.metas]))
        self.lon0 = float(np.mean([m.longitude for m in self.metas]))
        self.x, self.y = project_local(self.metas, self.lat0, self.lon0)
        self.f = coriolis(self.lat0)

    def _heights(self, a1, a2, a0=1500.0):
        n = self.times.size
        return (a0 + a1 * self.x[:, None] + a2 * self.y[:, None]) * np.ones((1, n))

    def test_constant_planar_anomaly(self):
        net = _network_from_heights(self.metas, self.times, self._heights(0.001, 0.0))
        est = estimate_series(net, policy=MeanRemovalPolicy.NONE)
        expected_v = CONST.g0 * 0.001 / self.f
        assert np.allclose(est.v_g, expected_v, atol=1e-8)
        assert np.allclose(est.u_g, 0.0, atol=1e-8)
        assert np.all(est.n_stations == 12)

    def test_zero_anomaly(self):
        net = _network_from_heights(self.metas, self.times, self._heights(0.0, 0.0))
        est = estimate_series(net, policy=MeanRemovalPolicy.NONE)
        assert np.allclose(est.w_g, 0.0, atol=1e-9)

    def test_drop_station_same_plane(self):
        heights = self._heights(5e-4, -3e-4)
        full = estimate_series(
            _network_from_heights(self.metas, self.times, heights),
            policy=MeanRemovalPolicy.NONE)
        reduced = estimate_series(
            _network_from_heights(self.metas[:-1], self.times, heights[:-1]),
            policy=MeanRemovalPolicy.NONE,
            latitude_deg=self.lat0, origin=(self.lat0, self.lon0))
        # the plane is exactly determined either way once f and the
        # projection frame are held fixed
        assert np.allclose(full.u_g, reduced.u_g, atol=1e-6)
        assert np.allclose(full.v_g, reduced.v_g, atol=1e-6)

    def test_too_few_stations_marks_missing(self):
        net = _network_from_heights(self.metas, self.times, self._heights(1e-4, 1e-4))
        net.pressure[3:, 5] = np.nan  # hour 5 keeps only 3 stations
        net.pressure[2:, 6] = np.nan  # hour 6 keeps only 2
        est = estimate_series(net, policy=MeanRemovalPolicy.NONE)
        assert np.isfinite(est.u_g[5])
        assert est.n_stations[5] == 3
        assert np.isnan(est.u_g[6]) and np.isnan(est.w_g[6])
        assert est.n_stations[6] == 0

    def test_rotation_consistency(self):
        rng = np.random.default_rng(3)
        a1, a2 = 4e-4, -2e-4
        alpha = math.radians(35.0)
        heights = self._heights(a1, a2)
        base = estimate_series(_network_from_heights(self.metas, self.times, heights),
                               policy=MeanRemovalPolicy.NONE, latitude_deg=self.lat0)
        # rotate station positions AND the height field by alpha
        c, s = math.cos(alpha), math.sin(alpha)
        xr = c * self.x - s * self.y
        yr = s * self.x + c * self.y
        rot_metas = []
        for i, m in enumerate(self.metas):
            lat = self.lat0 + math.degrees(yr[i] / EARTH_RADIUS_M)
            lon = self.lon0 + math.degrees(
                xr[i] / (EARTH_RADIUS_M * math.cos(math.radians(self.lat0))))
            rot_metas.append(StationMeta(m.id, lat, lon, m.elevation))
        rot = estimate_series(_network_from_heights(rot_metas, self.times, heights),
                              policy=MeanRemovalPolicy.NONE, latitude_deg=self.lat0)
        u_expect = c * base.u_g - s * base.v_g
        v_expect = s * base.u_g + c * base.v_g
        assert np.allclose(rot.u_g, u_expect, rtol=1e-8, atol=1e-10)
        assert np.allclose(rot.v_g, v_expect, rtol=1e-8, atol=1e-10)
        assert np.allclose(rot.w_g, base.w_g, rtol=1e-8)

    def test_linearity_in_anomaly(self):
        h1 = self._heights(3e-4, -1e-4, a0=0.0)
        one = estimate_series(_network_from_heights(self.metas, self.times, h1),
                              policy=MeanRemovalPolicy.NONE, latitude_deg=self.lat0)
        two = estimate_series(_network_from_heights(self.metas, self.times, 2.0 * h1),
                              policy=MeanRemovalPolicy.NONE, latitude_deg=self.lat0)
        assert np.allclose(two.u_g, 2.0 * one.u_g, rtol=1e-9, atol=1e-12)
        assert np.allclose(two.v_g, 2.0 * one.v_g, rtol=1e-9, atol=1e-12)

    def test_sign_convention(self):
        # height rising eastward (a1 > 0) drives southerly flow v_g > 0 in NH
        net = _network_from_heights(self.metas, self.times, self._heights(1e-4, 0.0))
        est = estimate_series(net, policy=MeanRemovalPolicy.NONE)
        assert np.all(est.v_g > 0.0)

    def test_constant_height_shift_absorbed(self):
        heights = self._heights(2e-4, 1e-4)
        base = estimate_series(_network_from_heights(self.metas, self.times, heights),
                               policy=MeanRemovalPolicy.NONE)
        shifted = heights.copy()
        shifted[:, 7] += 25.0  # same constant added to every station at hour 7
        est = estimate_series(_network_from_heights(self.metas, self.times, shifted),
                              policy=MeanRemovalPolicy.NONE)
        assert np.allclose(est.u_g, base.u_g, atol=1e-9)
        assert np.allclose(est.v_g, base.v_g, atol=1e-9)

    @pytest.mark.parametrize("policy", [MeanRemovalPolicy.WHOLE_RECORD,
                                        MeanRemovalPolicy.MONTHLY])
    def test_station_bias_removed(self, policy):
        # time-constant per-station height biases must not leak into the wind
        rng = np.random.default_rng(9)
        n = self.times.size
        a1 = 1e-4 * np.sin(np.arange(n) / 10.0)
        a2 = -5e-5 * np.cos(np.arange(n) / 7.0)
        heights = 1500.0 + self.x[:, None] * a1[None, :] + self.y[:, None] * a2[None, :]
        clean = estimate_series(_network_from_heights(self.metas, self.times, heights),
                                policy=policy)
        biased = heights + rng.normal(0.0, 8.0, 12)[:, None]
        est = estimate_series(_network_from_heights(self.metas, self.times, biased),
                              policy=policy)
        assert np.allclose(est.u_g, clean.u_g, atol=1e-8)
        assert np.allclose(est.v_g, clean.v_g, atol=1e-8)

    @pytest.mark.parametrize("policy", [MeanRemovalPolicy.WHOLE_RECORD,
                                        MeanRemovalPolicy.MONTHLY])
    def test_barometer_outages_warn_nothing(self, policy):
        # one barometer is out for all of February, another for the whole
        # record, and one hour has none: those means are empty and read NaN,
        # without numpy's "Mean of empty slice" warning
        times = np.arange(epoch_hour("2008-01-20T00:00"), epoch_hour("2008-03-10T00:00"),
                          dtype=np.int64)
        n = times.size
        a1 = 1e-4 * np.sin(np.arange(n) / 10.0)
        a2 = -5e-5 * np.cos(np.arange(n) / 7.0)
        heights = 1500.0 + self.x[:, None] * a1[None, :] + self.y[:, None] * a2[None, :]
        biased = heights + np.random.default_rng(9).normal(0.0, 8.0, 12)[:, None]
        february = ((times >= epoch_hour("2008-02-01T00:00"))
                    & (times < epoch_hour("2008-03-01T00:00")))
        out = []
        for h in (heights, biased):
            net = _network_from_heights(self.metas, times, h)
            net.pressure[2, february] = np.nan
            net.pressure[11] = np.nan
            net.pressure[:, 100] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out.append(estimate_series(net, policy=policy))
        clean, est = out
        assert est.n_stations[100] == 0 and np.isnan(est.w_g[100])
        assert set(est.n_stations[february]) == {10}
        assert np.isfinite(est.w_g[:100]).all() and np.isfinite(est.w_g[101:]).all()
        assert np.allclose(est.u_g, clean.u_g, atol=1e-8, equal_nan=True)
        assert np.allclose(est.v_g, clean.v_g, atol=1e-8, equal_nan=True)

    def test_speed_and_direction_identities(self):
        net = _network_from_heights(self.metas, self.times, self._heights(3e-4, 2e-4))
        est = estimate_series(net, policy=MeanRemovalPolicy.NONE)
        assert np.allclose(est.w_g, np.hypot(est.u_g, est.v_g), rtol=1e-15)
        assert np.allclose(est.theta_g, np.arctan2(est.v_g, est.u_g), rtol=1e-15)
        assert np.all((est.theta_g > -math.pi - 1e-12) & (est.theta_g <= math.pi + 1e-12))

    def test_min_stations_guard(self):
        net = _network_from_heights(self.metas, self.times, self._heights(0.0, 0.0))
        with pytest.raises(InvalidInputError):
            estimate_series(net, min_stations=2)


def test_nanmean_equals_numpys_bit_for_bit():
    rng = np.random.default_rng(4)
    a = rng.normal(1500.0, 30.0, (12, 700))
    a[rng.random(a.shape) < 0.3] = np.nan
    a[3] = np.nan  # empty along axis 1
    a[:, 17] = np.nan  # empty along axis 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for axis, keepdims in ((0, False), (1, True)):
            want = np.nanmean(a, axis=axis, keepdims=keepdims)
            assert _nanmean(a, axis, keepdims).tobytes() == want.tobytes()


def test_geowind_csv_round_trip(tmp_path):
    times = np.arange(epoch_hour("2010-06-01T00:00"),
                      epoch_hour("2010-06-01T06:00"), dtype=np.int64)
    series = GeoWindSeries(
        times=times,
        u_g=np.array([1.0, -2.5, 0.3, np.nan, 4.0, 0.0]),
        v_g=np.array([0.5, 3.25, -1.0, np.nan, 2.0, 0.0]),
        w_g=np.array([math.hypot(1, .5), math.hypot(2.5, 3.25), math.hypot(.3, 1),
                      np.nan, math.hypot(4, 2), 0.0]),
        theta_g=np.array([0.1, 2.0, -1.3, np.nan, 0.46, 0.0]),
        n_stations=np.array([12, 12, 11, 0, 12, 12]),
        rms_residual=np.array([0.5, 0.25, 0.75, np.nan, 0.125, 0.0]),
    )
    path = tmp_path / "gw.csv"
    series.to_csv(path, header_lines=["test file"])
    back = GeoWindSeries.from_csv(path)
    assert np.array_equal(back.times, series.times)
    for name in ("u_g", "v_g", "w_g", "theta_g", "rms_residual"):
        np.testing.assert_array_equal(getattr(back, name), getattr(series, name))
    assert np.array_equal(back.n_stations, series.n_stations)
