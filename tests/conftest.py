"""Shared fixtures: small modeling datasets and the session-scoped benchmark run."""

import time

import pytest
import yaml

from windcast import synth
from windcast.cli import main as cli_main
from windcast.geostrophy import MeanRemovalPolicy, estimate_series
from windcast.model import ModelData
from windcast.series import Network


def make_model_data(seed=11, days=240, n_inner=4, tz_offset=-6, **synth_kw):
    """Synthetic ModelData with the 12-station ring feeding the wind estimate."""
    kw = dict(seed=seed, days=days, n_stations=12, n_inner=n_inner,
              height_noise_m=0.5)
    kw.update(synth_kw)
    cfg = synth.SynthConfig(**kw)
    series, truth = synth.generate(cfg)
    net = Network.from_series(series)
    ring = [m.id for m in net.stations[n_inner:]]
    gw = estimate_series(net.subset(ring), policy=MeanRemovalPolicy.NONE)
    targets = [m.id for m in net.stations[:n_inner]] or [m.id for m in net.stations[:4]]
    data = ModelData.from_network(net, gw, targets, tz_offset=tz_offset)
    return data, truth


def roundtrip_config(height_noise_m: float = 0.0, seed: int = 31337) -> synth.SynthConfig:
    """30-day, 12-station setup for estimator round-trip checks."""
    return synth.SynthConfig(
        seed=seed,
        days=30,
        n_stations=12,
        height_noise_m=height_noise_m,
        noise_sigma=0.0,
        dir_noise_sigma=0.0,
        diurnal_amplitude=0.0,
        kappa=1.0,
        friction_angle_deg=0.0,
        response_lag_hours=0,
    )


def truncated_at(data: ModelData, eh: int) -> ModelData:
    """A private copy of ``data`` without the observations after epoch hour ``eh``."""
    keep = data.times <= eh
    series = ("speed", "cos_dir", "sin_dir", "temperature", "gw_speed", "gw_cos", "gw_sin")
    return ModelData(times=data.times[keep], stations=list(data.stations),
                     tz_offset=data.tz_offset,
                     **{name: getattr(data, name)[..., keep] for name in series})


@pytest.fixture(scope="session")
def small_data():
    data, _ = make_model_data()
    return data


# ---------------------------------------------------------------------------
# the desk-scale forecasting benchmark: 2 synthetic years training, 1 year
# test, 4 target stations, evaluated at the 2-hour horizon

BENCHMARK_TARGETS = ("S01", "S02", "S03", "S04")
BENCHMARK_GW_STATIONS = tuple(f"S{i:02d}" for i in range(5, 17))


def benchmark_config(seed: int = 424242) -> synth.SynthConfig:
    """Three synthetic years (two train, one test) for forecasting skill runs.

    Four inner target stations surrounded by a 12-station barometer ring.
    """
    return synth.SynthConfig(seed=seed, days=1096, n_stations=12, n_inner=4,
                             height_noise_m=0.5)


def benchmark_config_dict(out_dir, days=1096, test_start="2010-01-01T00:00",
                          test_end="2011-01-01T00:00", variants=None,
                          horizons=None, seed=424242):
    synth_cfg = benchmark_config(seed=seed)
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "data": {
            "source": "synth",
            "synth": {
                "seed": seed,
                "days": days,
                "n_stations": synth_cfg.n_stations,
                "n_inner": synth_cfg.n_inner,
                "height_noise_m": synth_cfg.height_noise_m,
            },
        },
        "stations": list(BENCHMARK_TARGETS),
        "gw_stations": list(BENCHMARK_GW_STATIONS),
        "horizons": horizons or [2],
        "variants": variants or ["PSS", "TDD", "TDDGW-MD"],
        "train": {"start": "2008-01-01T00:00", "end": "2010-01-01T00:00"},
        "test": {"start": test_start, "end": test_end},
        "window_days": 45,
        "refit_hours": 24,
        "restarts": 1,
        "tz_offset_hours": -6,
        "mean_removal": "none",
        "jobs": 2,
    }


def run_pipeline(config_path, out_dir, commands=("synth", "geowind", "forecast",
                                                 "evaluate", "report")):
    for command in commands:
        code = cli_main([command, "--config", str(config_path)])
        assert code == 0, f"{command} failed"
    return out_dir


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    """Full pipeline on the 3-year benchmark; shared by the acceptance tests."""
    out = tmp_path_factory.mktemp("benchmark")
    config_path = out / "config.yaml"
    config_path.write_text(yaml.safe_dump(benchmark_config_dict(out)))
    t0 = time.perf_counter()
    run_pipeline(config_path, out)
    elapsed = time.perf_counter() - t0
    return {"out": out, "elapsed_s": elapsed}
