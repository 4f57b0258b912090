"""Synthetic generator: determinism, friction scaling, estimator round trip."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from windcast import synth
from windcast.geostrophy import MeanRemovalPolicy, estimate_series
from windcast.series import FIELDS, Network

from conftest import benchmark_config, roundtrip_config


def _quick(**kw):
    base = dict(seed=99, days=12, n_stations=12)
    base.update(kw)
    return synth.SynthConfig(**base)


def test_same_seed_bit_identical():
    a_series, a_truth = synth.generate(_quick())
    b_series, b_truth = synth.generate(_quick())
    assert np.array_equal(a_truth.u_g, b_truth.u_g)
    for a, b in zip(a_series, b_series):
        assert a.meta == b.meta
        assert np.array_equal(a.wind_speed, b.wind_speed)
        assert np.array_equal(a.pressure, b.pressure)
        assert np.array_equal(a.temperature, b.temperature)
        assert np.array_equal(a.wind_direction, b.wind_direction)


def test_different_seed_differs():
    a, _ = synth.generate(_quick())
    b, _ = synth.generate(_quick(seed=100))
    assert not np.array_equal(a[0].wind_speed, b[0].wind_speed)


def test_friction_factor_scales_speeds():
    cfg = _quick(days=40, kappa=0.5, noise_sigma=0.0, diurnal_amplitude=0.0,
                 response_lag_hours=0)
    series, truth = synth.generate(cfg)
    for s in series:
        ratio = s.wind_speed.mean() / truth.w_g.mean()
        assert ratio == pytest.approx(0.5, abs=1e-6)


def test_noiseless_round_trip():
    series, truth = synth.generate(roundtrip_config())
    est = estimate_series(Network.from_series(series), policy=MeanRemovalPolicy.NONE)
    assert np.nanmax(np.abs(est.u_g - truth.u_g)) < 1e-6
    assert np.nanmax(np.abs(est.v_g - truth.v_g)) < 1e-6


def test_surface_wind_nonnegative_and_lagged():
    cfg = _quick(days=30, noise_sigma=0.0, diurnal_amplitude=0.0,
                 response_lag_hours=3, kappa=1.0)
    series, truth = synth.generate(cfg)
    speeds = series[0].wind_speed
    assert np.all(speeds >= 0.0)
    # with pure lag coupling the surface speed equals the lagged truth
    assert speeds[3:] == pytest.approx(truth.w_g[:-3], abs=1e-9)


def test_dataset_files_written(tmp_path):
    synth.write_dataset(_quick(days=3), tmp_path)
    assert (tmp_path / "stations.csv").exists()
    assert (tmp_path / "truth.csv").exists()
    assert (tmp_path / "S01.csv").exists()
    assert (tmp_path / "S12.csv").exists()


def test_inner_stations_near_center():
    cfg = _quick(days=3, n_inner=4)
    series, _ = synth.generate(cfg)
    assert len(series) == 16
    lats = np.array([s.meta.latitude for s in series])
    lons = np.array([s.meta.longitude for s in series])
    center_dist = np.hypot(lats - cfg.center_lat, lons - cfg.center_lon)
    assert center_dist[:4].max() < center_dist[4:].min()


def _ar1_indexed(rng, n, mean, std, rho):
    """The AR(1) recurrence on numpy scalars and indexing, as first written."""
    x = np.empty(n)
    innovation = std * math.sqrt(1.0 - rho * rho)
    x[0] = mean + std * rng.standard_normal()
    shocks = innovation * rng.standard_normal(n - 1)
    for t in range(1, n):
        x[t] = mean + rho * (x[t - 1] - mean) + shocks[t - 1]
    return x


@pytest.mark.parametrize("mean, std, rho", [
    (2.0, 3.5, 0.98), (1500.0, 10.0, 0.995), (0.0, 1.5, 0.9), (0.0, 0.25, 0.8), (6, 3.5, 0.0),
])
@pytest.mark.parametrize("n", [1, 2, 2000])
def test_ar1_bit_identical_to_indexing_loop(mean, std, rho, n):
    ours = synth._ar1(np.random.default_rng(7), n, mean, std, rho)
    reference = _ar1_indexed(np.random.default_rng(7), n, mean, std, rho)
    assert ours.dtype == np.float64 and ours.tobytes() == reference.tobytes()


# sha256 over every array synth.generate returns for benchmark_config() at
# 60 days, taken when _ar1 still indexed numpy arrays
GENERATE_SHA256 = "0550f7a4f7ecdbb8d5a4e8cf8a75a302eb4fc1682295dfdd94e4f83bb544167d"


def _generated_arrays(series, truth):
    for s in series:
        yield f"{s.meta.id}.meta", np.array([s.meta.latitude, s.meta.longitude,
                                             s.meta.elevation])
        for name in ("times",) + FIELDS:
            yield f"{s.meta.id}.{name}", getattr(s, name)
    for field in dataclasses.fields(truth):
        yield f"truth.{field.name}", getattr(truth, field.name)


def test_generate_pinned():
    digest = hashlib.sha256()
    generated = synth.generate(dataclasses.replace(benchmark_config(), days=60))
    for name, values in _generated_arrays(*generated):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(values).tobytes())
    assert digest.hexdigest() == GENERATE_SHA256
