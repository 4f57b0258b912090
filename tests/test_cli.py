"""CLI pipeline: config validation, chained stages, determinism."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

import windcast
from windcast import cli
from windcast.cli import main
from windcast.config import config_from_dict, dump_config, load_config
from windcast.errors import ConfigError
from windcast.forecast import read_records_csv
from windcast.geostrophy import GeoWindSeries
from windcast.ingest import CANONICAL_SCHEMA
from windcast.model import CandidatePool, ResidualState, load_bundle, save_bundle

from conftest import benchmark_config_dict, run_pipeline


def small_config(out_dir, **overrides):
    cfg = benchmark_config_dict(
        out_dir,
        days=130,
        test_start="2008-05-01T00:00",
        test_end="2008-05-06T00:00",
        variants=["PSS", "TDDGW-MD"],
        seed=20240101,
    )
    cfg["train"] = {"start": "2008-01-01T00:00", "end": "2008-05-01T00:00"}
    cfg["jobs"] = 1
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfigValidation:
    def test_collects_every_violation(self, tmp_path):
        bad = {
            "stations": [],
            "horizons": [0, 9],
            "variants": ["NOPE"],
            "train": {"start": "2009-01-01T00:00", "end": "2008-01-01T00:00"},
            "test": {"start": "2007-01-01T00:00", "end": "2007-06-01T00:00"},
            "window_days": -1,
            "bogus_key": 1,
        }
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        text = str(err.value)
        for fragment in ("stations", "horizon 0", "horizon 9", "NOPE",
                         "training period start", "bogus_key", "window_days"):
            assert fragment in text
        assert len(err.value.violations) >= 6

    def test_cli_reports_machine_readable_error(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"stations": []})
        code = main(["forecast", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"]

    @pytest.mark.parametrize("case, bad", [
        ("yaml syntax", "seed: [1\n"),
        ("missing file", None),
        ("stations: 5", {"stations": 5}),
        ("stations: S01", {"stations": "S01"}),
        ("horizons: 5", {"horizons": 5}),
        ("variants: 5", {"variants": 5}),
        ("data.csv: nope", {"data": {"source": "csv", "csv": "nope"}}),
        ("data.synth: nope", {"data": {"synth": "nope"}}),
    ])
    def test_unreadable_or_misshapen_config_refused_as_json(self, tmp_path, capsys, case, bad):
        out = tmp_path / "out"
        path = tmp_path / "c.yaml"
        if isinstance(bad, str):
            path.write_text(bad)
        elif bad is not None:
            path.write_text(yaml.safe_dump(small_config(out, **bad)))
        assert main(["report", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError" and payload["violations"]
        assert not out.exists()

    def test_round_trips_through_yaml(self, tmp_path):
        path = _write_config(tmp_path, small_config(tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.stations == ["S01", "S02", "S03", "S04"]
        assert cfg.validate() == []

    @pytest.mark.parametrize("restarts", [3, 0])
    def test_restarts_other_than_one_refused(self, tmp_path, capsys, restarts):
        path = _write_config(tmp_path, small_config(tmp_path / "out", restarts=restarts))
        assert main(["forecast", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        (violation,) = payload["violations"]
        assert violation.startswith("restarts: random restarts were removed")
        assert "fit study" in violation


@pytest.mark.parametrize("flag, env, violation", [
    ("0", None, "--jobs must be >= 1, got 0"),
    ("-4", None, "--jobs must be >= 1, got -4"),
    (None, "two", "$WINDCAST_JOBS must be an integer, got 'two'"),
    (None, "0", "$WINDCAST_JOBS must be >= 1, got 0"),
], ids=["flag-0", "flag-negative", "env-text", "env-0"])
def test_bad_job_count_refused(tmp_path, capsys, monkeypatch, flag, env, violation):
    """Like a config's jobs, the flag and the environment take integers >= 1."""
    out = tmp_path / "out"
    path = _write_config(tmp_path, small_config(str(out)))
    if env is None:
        monkeypatch.delenv(cli.JOBS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.JOBS_ENV, env)
    assert main(["forecast", "--config", str(path)] + (["--jobs", flag] if flag else [])) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert payload["violations"] == [violation]
    assert not out.exists()


@pytest.mark.parametrize("args, violation", [
    (["forecast", "--config", "{}", "--jobs", "two"],
     "windcast forecast: argument --jobs: invalid int value: 'two'"),
    (["forecast", "--config", "{}", "--seed", "x"],
     "windcast forecast: argument --seed: invalid int value: 'x'"),
    (["forecast"], "windcast forecast: the following arguments are required: --config"),
    (["bogus", "--config", "{}"], "windcast: argument command: invalid choice: 'bogus'"),
], ids=["jobs-text", "seed-text", "no-config", "unknown-command"])
def test_bad_arguments_refused_as_json(tmp_path, capsys, args, violation):
    """A usage error prints the JSON ConfigError of a bad config value, not
    argparse's usage text, and touches no output directory."""
    out = tmp_path / "out"
    path = _write_config(tmp_path, small_config(str(out)))
    assert main([a.format(path) for a in args]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    (found,) = payload["violations"]
    assert found.startswith(violation)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("args", [["--version"], ["forecast", "--help"]])
def test_help_and_version_still_exit_zero(capsys, args):
    with pytest.raises(SystemExit) as done:
        main(args)
    assert done.value.code == 0
    assert capsys.readouterr().out


def csv_config(unit="m_s"):
    cfg = small_config("out")
    cfg["data"] = {"source": "csv", "csv": {"dir": "archive", "schema": {
        "columns": dict(CANONICAL_SCHEMA.columns),
        "units": dict(CANONICAL_SCHEMA.units, speed=unit),
        "sentinels": [-999.0, 9999.0],
    }}}
    return cfg


class TestConfigDigest:
    def test_synth_digest_unchanged(self):
        cfg = small_config("out")
        assert cfg["restarts"] == 1
        assert config_from_dict(cfg).digest() == "eab943a1d767"
        del cfg["restarts"]  # 1 is the only accepted value, so it reads as absent
        assert config_from_dict(cfg).digest() == "eab943a1d767"

    def test_csv_schema_changes_digest(self):
        assert (config_from_dict(csv_config("m_s")).digest()
                != config_from_dict(csv_config("mph")).digest())

    def test_csv_config_round_trips(self, tmp_path):
        cfg = config_from_dict(csv_config("mph"))
        dump_config(cfg, tmp_path / "config.yaml")
        back = load_config(tmp_path / "config.yaml")
        assert back.csv_schema.units["speed"] == "mph"
        assert back.csv_schema.sentinels == [-999.0, 9999.0]
        assert back.digest() == cfg.digest()


def _import_env(**overrides):
    """Environment variables seen after ``import windcast`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(overrides)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(windcast.__file__))
    code = "import os, windcast; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_import_defaults_one_blas_thread():
    assert _import_env() == "1"
    assert _import_env(OPENBLAS_NUM_THREADS="3") == "3"


DEFERRED_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.special")


def _scipy_loaded_after(code):
    """The deferred scipy modules loaded once ``code`` ran in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(windcast.__file__)))
    code += f"; print(sorted(m for m in {DEFERRED_SCIPY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_defers_fit_only_scipy():
    assert _scipy_loaded_after("import sys, windcast.cli") == "[]"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run")
    cfg = small_config(out)
    path = _write_config(out, cfg)
    run_pipeline(path, out, commands=("synth", "geowind", "train", "forecast",
                                      "evaluate", "report"))
    return out, cfg


class TestPipeline:
    @pytest.fixture()
    def run(self, pipeline_run):
        return pipeline_run

    def test_all_artifacts_exist(self, run):
        out, _ = run
        for rel in ("data/stations.csv", "data/S01.csv", "data/truth.csv",
                    "geowind.csv", "models/TDDGW-MD/S01_k2.json",
                    "forecasts/PSS.csv", "forecasts/TDDGW-MD.csv",
                    "scores.csv", "pit.csv", "report.txt", "config.yaml"):
            assert (out / rel).exists(), rel

    def test_bundle_is_self_describing(self, run):
        out, _ = run
        spec = load_bundle(out / "models/TDDGW-MD/S01_k2.json",
                           load_config(out / "config.yaml").digest())
        assert spec.target_station == "S01"
        assert spec.horizon == 2
        assert spec.variant == "TDDGW-MD"
        raw = json.loads((out / "models/TDDGW-MD/S01_k2.json").read_text())
        assert raw["format_version"] == 3
        assert set(raw) == {"format_version", "library_version", "spec", "config_sha"}

    def test_forecast_counts(self, run):
        out, cfg = run
        records = read_records_csv(out / "forecasts" / "TDDGW-MD.csv")
        hours = 5 * 24
        assert len(records) == hours * len(cfg["stations"]) * len(cfg["horizons"])

    def test_scores_file_shape(self, run):
        out, _ = run
        text = (out / "scores.csv").read_text()
        assert "overall" in text
        assert "TDDGW-MD" in text and "PSS" in text

    def test_report_contains_reductions(self, run):
        out, _ = run
        text = (out / "report.txt").read_text()
        assert "Relative reduction vs PSS" in text
        assert "MAE (m/s)" in text


def test_determinism_byte_identical(tmp_path):
    """Same config + seed into two directories: identical forecast/score CSVs."""
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = small_config(out, variants=["PSS", "TDD"])
        cfg["test"]["end"] = "2008-05-03T00:00"
        path = tmp_path / f"config-{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        run_pipeline(path, out, commands=("synth", "geowind", "forecast", "evaluate"))
        outputs.append({
            "pss": (out / "forecasts/PSS.csv").read_bytes(),
            "tdd": (out / "forecasts/TDD.csv").read_bytes(),
            "scores": (out / "scores.csv").read_bytes(),
            "pit": (out / "pit.csv").read_bytes(),
        })
    assert outputs[0]["pss"] == outputs[1]["pss"]
    assert outputs[0]["tdd"] == outputs[1]["tdd"]
    assert outputs[0]["scores"] == outputs[1]["scores"]
    assert outputs[0]["pit"] == outputs[1]["pit"]


def test_geowind_matches_truth_on_noiseless_data(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out)
    cfg["data"]["synth"]["height_noise_m"] = 0.0
    cfg["data"]["synth"]["days"] = 30
    cfg["data"]["synth"]["n_inner"] = 0  # estimator sees the whole generated ring
    cfg["gw_stations"] = None
    cfg["train"] = {"start": "2008-01-01T00:00", "end": "2008-01-25T00:00"}
    cfg["test"] = {"start": "2008-01-25T00:00", "end": "2008-01-30T00:00"}
    cfg["window_days"] = 20
    path = _write_config(tmp_path, cfg)
    run_pipeline(path, out, commands=("synth", "geowind"))
    est = GeoWindSeries.from_csv(out / "geowind.csv")
    truth = GeoWindSeries.from_csv(out / "data" / "truth.csv")
    assert np.nanmax(np.abs(est.u_g - truth.u_g)) < 1e-6
    assert np.nanmax(np.abs(est.v_g - truth.v_g)) < 1e-6


def test_persistence_only_stages_never_load_scipy(pipeline_run, tmp_path):
    src, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(src / "data", out / "data")
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out), variants=["PSS"]))
    stages = ("geowind", "forecast", "evaluate", "report")
    code = ("import sys; from windcast.cli import main; "
            f"assert all(main([s, '--config', {str(path)!r}]) == 0 for s in {stages!r})")
    assert _scipy_loaded_after(code) == "[]"
    assert (out / "report.txt").exists()


def test_report_of_a_fitted_run_never_loads_scipy(pipeline_run, tmp_path):
    src, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(src, out)
    (out / "report.txt").unlink()
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
    code = ("import sys; from windcast.cli import main; "
            f"assert main(['report', '--config', {str(path)!r}]) == 0")
    assert _scipy_loaded_after(code) == "[]"
    assert (out / "report.txt").read_bytes() == (src / "report.txt").read_bytes()


def test_pooled_io_stages_never_load_scipy_optimize(pipeline_run, tmp_path):
    _, cfg = pipeline_run
    out = tmp_path / "out"
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
    code = ("import sys; from windcast.cli import main; "
            f"assert all(main([s, '--config', {str(path)!r}, '--jobs', '2']) == 0 "
            "for s in ('synth', 'geowind', 'train'))")
    assert "scipy.optimize" not in _scipy_loaded_after(code)
    assert (out / "models/TDDGW-MD/S01_k2.json").exists()


def test_fitted_forecast_never_loads_scipy_optimize(pipeline_run, tmp_path):
    src, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(src / "data", out / "data")
    shutil.copy(src / "geowind.csv", out / "geowind.csv")
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out), variants=["PSS", "TDD"]))
    code = ("import sys; from windcast.cli import main; "
            f"assert main(['forecast', '--config', {str(path)!r}, '--jobs', '2']) == 0")
    assert "scipy.optimize" not in _scipy_loaded_after(code)
    assert (out / "forecasts/TDD.csv").exists()


class TestJobs:
    """One worker and two give the same bytes, and a stage opens at most one
    pool, which also does its station file I/O. On the mixed forecast path PSS
    runs in the calling process and the fitted variant in the pool."""

    OUTPUTS = {"synth": "data", "geowind": "geowind.csv", "train": "models",
               "forecast": "forecasts"}

    #: the station group of each fitted pool task, by job count, for one
    #: fitted variant and four targets
    GROUPS = {1: [["S01", "S02", "S03", "S04"]], 2: [["S01", "S02"], ["S03", "S04"]],
              3: [["S01", "S02"], ["S03"], ["S04"]]}

    def _rerun(self, pipeline_run, tmp_path, command, jobs, monkeypatch, groups=None):
        pools = []

        class Pool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        io_pooled = []  # per station-file call: whether it was given the pool
        for name in ("write_dataset", "load_network_dir"):
            def spy(*args, _fn=getattr(cli, name)):
                io_pooled.append(args[-1] is not None)
                return _fn(*args)
            monkeypatch.setattr(cli, name, spy)
        if groups is not None:
            def spy_map(pool, fn, tasks, _map=cli._map):
                groups.append([task[2] for task in tasks])
                return _map(pool, fn, tasks)
            monkeypatch.setattr(cli, "_map", spy_map)
        src, cfg = pipeline_run
        out = tmp_path / f"{command}-{jobs}"
        shutil.copytree(src, out)
        output = out / self.OUTPUTS[command]
        if output.is_dir():
            shutil.rmtree(output)
        else:
            output.unlink()
        path = _write_config(out, dict(cfg, out_dir=str(out)))
        assert main([command, "--config", str(path), "--jobs", str(jobs)]) == 0
        assert pools == ([] if jobs == 1 else [jobs])
        assert io_pooled == [jobs > 1]
        return out

    def _same_files(self, a, b, pattern):
        names = sorted(p.relative_to(a) for p in a.glob(pattern))
        assert names == sorted(p.relative_to(b) for p in b.glob(pattern))
        assert names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def _grouped_reruns(self, pipeline_run, tmp_path, command, monkeypatch):
        outs = []
        for jobs in (1, 2, 3):
            groups = []
            outs.append(self._rerun(pipeline_run, tmp_path, command, jobs, monkeypatch,
                                    groups))
            assert groups == [self.GROUPS[jobs]]
        return outs

    def test_forecasts_identical(self, pipeline_run, tmp_path, monkeypatch):
        one, *more = self._grouped_reruns(pipeline_run, tmp_path, "forecast", monkeypatch)
        for other in more:
            self._same_files(one, other, "forecasts/*.csv")

    def test_train_bundles_identical(self, pipeline_run, tmp_path, monkeypatch):
        one, *more = self._grouped_reruns(pipeline_run, tmp_path, "train", monkeypatch)
        for other in more:
            self._same_files(one, other, "models/*/*.json")

    @pytest.mark.parametrize("jobs, variants, sizes", [
        (1, ["PSS", "TDD", "TDDGW-MD"], [4]),
        (2, ["PSS", "TDD", "TDDGW-MD"], [4]),
        (3, ["PSS", "TDD", "TDDGW-MD"], [2, 2]),
        (2, ["TDD"], [2, 2]),
        (3, ["TDD"], [2, 1, 1]),
        (8, ["PSS", "TDD"], [1, 1, 1, 1]),
    ])
    def test_station_groups(self, tmp_path, jobs, variants, sizes):
        cfg = config_from_dict(small_config(tmp_path, variants=variants))
        groups = cli._station_groups(cfg, jobs)
        assert [len(g) for g in groups] == sizes
        assert sum(groups, []) == cfg.stations

    def test_synth_data_identical(self, pipeline_run, tmp_path, monkeypatch):
        one, two = (self._rerun(pipeline_run, tmp_path, "synth", j, monkeypatch)
                    for j in (1, 2))
        self._same_files(one, two, "data/*")

    def test_geowind_identical(self, pipeline_run, tmp_path, monkeypatch):
        one, two = (self._rerun(pipeline_run, tmp_path, "geowind", j, monkeypatch)
                    for j in (1, 2))
        self._same_files(one, two, "geowind.csv")


class TestSharedWork:
    """Under one job, the target stations of a variant share its selection
    state and one candidate pool per horizon, however many they are."""

    def test_one_selection_state_and_one_pool_per_horizon(self, pipeline_run, tmp_path,
                                                          monkeypatch):
        src, cfg = pipeline_run
        states, pools = [], []
        build_state, build_pool = ResidualState.build.__func__, CandidatePool.build.__func__

        def spy_state(cls, data, method, fit_time, *args, **kwargs):
            states.append((method, fit_time))
            return build_state(cls, data, method, fit_time, *args, **kwargs)

        def spy_pool(cls, state, variant, horizon, *args, **kwargs):
            pools.append((variant.name, horizon))
            return build_pool(cls, state, variant, horizon, *args, **kwargs)

        monkeypatch.setattr(ResidualState, "build", classmethod(spy_state))
        monkeypatch.setattr(CandidatePool, "build", classmethod(spy_pool))
        out = tmp_path / "out"
        shutil.copytree(src / "data", out / "data")
        shutil.copy(src / "geowind.csv", out / "geowind.csv")
        run = dict(cfg, out_dir=str(out), variants=["PSS", "TDD", "TDDGW-MD"], horizons=[1, 2])
        path = _write_config(tmp_path, run)
        loaded = load_config(path)
        train_end, test_start = loaded.train_end, loaded.test_start
        assert len(loaded.stations) == 4
        per_horizon = [("TDD", 1), ("TDD", 2), ("TDDGW-MD", 1), ("TDDGW-MD", 2)]

        assert main(["train", "--config", str(path), "--jobs", "1"]) == 0
        assert states == [("TRIG", train_end), ("MD", train_end)]
        assert pools == per_horizon

        states.clear()
        pools.clear()
        shutil.rmtree(out / "models")
        assert main(["forecast", "--config", str(path), "--jobs", "1"]) == 0
        # MD refits on each of the 5 test days; the first reuses the selection state
        assert states == [("TRIG", train_end), ("MD", train_end)] + [
            ("MD", test_start + 24 * day) for day in range(1, 5)]
        assert pools == per_horizon


class TestWorkerFaults:
    """A corrupt station file fails a pooled stage with the same JSON error as
    one job."""

    @pytest.mark.parametrize("command, station", [("geowind", "S05"), ("forecast", "S01")])
    def test_corrupt_station_file(self, pipeline_run, tmp_path, capsys, command, station):
        src, cfg = pipeline_run
        out = tmp_path / "out"
        shutil.copytree(src, out)
        data = out / "data" / f"{station}.csv"
        data.write_text(data.read_text().replace("2008-03-02T05:00Z", "2008-03-02T5 o'clock"))
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
        payloads = []
        for jobs in ("1", "2"):
            assert main([command, "--config", str(path), "--jobs", jobs]) == 1
            payloads.append(json.loads(capsys.readouterr().err))
        assert payloads[0] == payloads[1]
        assert payloads[0]["error"] == "LoadError"
        assert f"{station}.csv:" in payloads[0]["message"]
        assert "5 o'clock" in payloads[0]["message"]


class TestBundleDigest:
    """forecast reuses a trained bundle only under the config that trained it."""

    def _copy(self, pipeline_run, tmp_path):
        src, cfg = pipeline_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        (out / "forecasts" / "TDDGW-MD.csv").unlink()
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(dict(cfg, out_dir=str(out))))
        return out, path, load_config(path).digest()

    def test_bundles_carry_the_config_digest(self, pipeline_run):
        out, cfg = pipeline_run
        digest = load_config(out / "config.yaml").digest()
        raw = json.loads((out / "models/TDDGW-MD/S01_k2.json").read_text())
        assert raw["config_sha"] == digest
        assert load_bundle(out / "models/TDDGW-MD/S01_k2.json", digest).horizon == 2

    def test_mismatch_refused(self, pipeline_run, tmp_path, capsys):
        out, path, digest = self._copy(pipeline_run, tmp_path)
        bundle = out / "models/TDDGW-MD/S02_k2.json"
        raw = json.loads(bundle.read_text())
        raw["config_sha"] = "0123456789ab"
        bundle.write_text(json.dumps(raw))
        assert main(["forecast", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "LoadError"
        assert "0123456789ab" in payload["message"] and digest in payload["message"]
        assert not (out / "forecasts" / "TDDGW-MD.csv").exists()

    def _refused(self, path, out, capsys, bundle):
        assert main(["forecast", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "LoadError"
        assert bundle in payload["message"] and "re-run train" in payload["message"]
        assert not (out / "forecasts" / "TDDGW-MD.csv").exists()

    def test_bundle_of_another_station_refused(self, pipeline_run, tmp_path, capsys):
        out, path, _ = self._copy(pipeline_run, tmp_path)
        models = out / "models/TDDGW-MD"
        shutil.copy(models / "S01_k2.json", models / "S02_k2.json")  # same config digest
        self._refused(path, out, capsys, "S02_k2.json")

    def test_bundle_of_another_variant_refused(self, pipeline_run, tmp_path, capsys):
        out, path, digest = self._copy(pipeline_run, tmp_path)
        bundle = out / "models/TDDGW-MD/S01_k2.json"
        spec = load_bundle(bundle, digest)
        tdd = dataclasses.replace(spec, variant="TDD", gw_lags=-1)
        save_bundle(tdd, bundle, digest)
        self._refused(path, out, capsys, "S01_k2.json")

    @pytest.mark.parametrize("damage", ["truncated", "no spec", "unknown spec field",
                                        "JSON list", "lags as a list", "lag 99", "lag 2.5",
                                        "horizon 2.0", "format 1", "format 2"])
    def test_damaged_bundle_refused(self, pipeline_run, tmp_path, capsys, damage):
        out, path, _ = self._copy(pipeline_run, tmp_path)
        bundle = out / "models/TDDGW-MD/S02_k2.json"
        text = bundle.read_text()
        raw = json.loads(text)
        if damage == "truncated":
            text = text[:len(text) // 2]
        else:
            if damage == "no spec":
                del raw["spec"]
            elif damage == "unknown spec field":
                raw["spec"]["lags"] = {"S01": 1}
            elif damage == "JSON list":
                raw = [raw]
            elif damage == "lags as a list":
                raw["spec"]["speed_lags"] = [0]
            elif damage == "lag 99":
                raw["spec"]["speed_lags"] = {"S02": 99}
            elif damage == "lag 2.5":
                raw["spec"]["speed_lags"] = {"S02": 2.5}
            elif damage == "horizon 2.0":  # equal to the path's 2, but no row offset
                raw["spec"]["horizon"] = 2.0
            elif damage == "format 1":
                raw["format_version"] = 1
            else:  # the spec as format 2 wrote it, with four of the variant's flags
                raw["format_version"] = 2
                del raw["spec"]["variant"]
                raw["spec"].update(include_gw=True, include_gw_direction=False,
                                   include_temp_diff=False, diurnal_method="MD")
            text = json.dumps(raw)
        bundle.write_text(text)
        self._refused(path, out, capsys, "S02_k2.json")

    def test_job_count_is_not_in_the_digest(self, pipeline_run, tmp_path):
        out, path, digest = self._copy(pipeline_run, tmp_path)
        _, cfg = pipeline_run
        path.write_text(yaml.safe_dump(dict(cfg, out_dir=str(out), jobs=cfg["jobs"] + 1)))
        assert load_config(path).digest() == digest
        assert main(["forecast", "--config", str(path)]) == 0
        assert (out / "forecasts" / "TDDGW-MD.csv").exists()

    def test_bundle_without_digest_refused(self, pipeline_run, tmp_path, capsys):
        out, path, digest = self._copy(pipeline_run, tmp_path)
        bundle = out / "models/TDDGW-MD/S01_k2.json"
        raw = json.loads(bundle.read_text())
        del raw["config_sha"]
        bundle.write_text(json.dumps(raw))
        assert main(["forecast", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert "(none recorded)" in payload["message"] and digest in payload["message"]


class TestReportScores:
    """report reads the scores.csv that evaluate wrote under this config, and
    evaluate the forecasts that forecast wrote under it."""

    def _copy(self, pipeline_run, tmp_path):
        src, cfg = pipeline_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        (out / "report.txt").unlink()
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
        return out, path, load_config(path).digest()

    def _refused(self, path, capsys):
        assert main(["report", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "LoadError"
        return payload["message"]

    def test_missing_scores_refused(self, pipeline_run, tmp_path, capsys):
        out, path, _ = self._copy(pipeline_run, tmp_path)
        (out / "scores.csv").unlink()
        assert "run the evaluate command first" in self._refused(path, capsys)
        assert not (out / "report.txt").exists()

    def test_stale_scores_refused(self, pipeline_run, tmp_path, capsys):
        out, path, digest = self._copy(pipeline_run, tmp_path)
        scores = out / "scores.csv"
        scores.write_text(scores.read_text().replace(f"config_sha={digest}",
                                                     "config_sha=0123456789ab", 1))
        message = self._refused(path, capsys)
        assert "0123456789ab" in message and digest in message
        assert not (out / "report.txt").exists()

    def test_stale_forecasts_refused_by_evaluate(self, pipeline_run, tmp_path, capsys):
        out, _, digest = self._copy(pipeline_run, tmp_path)
        (out / "scores.csv").unlink()
        _, cfg = pipeline_run
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out), interval_level=0.8))
        assert main(["evaluate", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "LoadError"
        message = payload["message"]
        assert "forecasts" in message and digest in message and "re-run forecast" in message
        assert load_config(path).digest() in message
        assert not (out / "scores.csv").exists()


def test_evaluate_without_observations_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "forecasts").mkdir()
    cfg = small_config(out, variants=["PSS"])
    path = _write_config(tmp_path, cfg)
    (out / "forecasts" / "PSS.csv").write_text(
        f"# {cli._provenance(load_config(path), 'forecast')[0]}\n"
        "station,issue_time,horizon,mu,sigma,point,fallback,observed\n"
        "S01,2008-05-01T00:00:00Z,2,,,4.2,0,\n"
    )
    code = main(["evaluate", "--config", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "EmptyReportError"


def test_seed_flag_overrides_config(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = small_config(out_a)
    path = _write_config(tmp_path, cfg)
    assert main(["synth", "--config", str(path), "--seed", "7"]) == 0
    a = (out_a / "data" / "S01.csv").read_bytes()
    cfg_b = small_config(out_b, seed=7)
    cfg_b["data"]["synth"]["seed"] = 7
    path_b = tmp_path / "config-b.yaml"
    path_b.write_text(yaml.safe_dump(cfg_b))
    assert main(["synth", "--config", str(path_b)]) == 0
    assert a == (out_b / "data" / "S01.csv").read_bytes()


def _data_sha(path) -> str:
    """sha256 of a data file without its ``#`` provenance lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"#"))).hexdigest()


def _bundle_sha(path) -> str:
    """sha256 of a bundle's JSON without the library version and config digest."""
    raw = json.loads(path.read_text())
    del raw["library_version"], raw["config_sha"]
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


class TestFrozenModelOutputs:
    """sha256 of model outputs. The forecasts were recorded before selection
    scored candidates from a Gram matrix, trig profiles gathered rows from a
    table and the first refit reused the selection state. TDD and TDDGW-MD
    were re-recorded when the CRPS fits moved from BFGS in log b1 to Newton
    steps in r = sqrt(b1): both stop at a gradient of 1e-8, so the fitted
    coefficients, and the printed mu and sigma, moved by at most 2e-7
    relative, with a window CRPS never above the BFGS oracle's in
    tests/test_model.py. They were re-recorded again when scipy's
    trust-exact gave way to the damped Newton loop in windcast.model, which
    takes other steps to the same optimum: mu, sigma and the point forecast
    moved by at most 2.8e-8 relative, with a window CRPS never above
    trust-exact's. PSS and the bundles come from no fit and did not
    change. The bundles were re-recorded when they came to hold only the
    selected spec; each spec is the one the earlier coefficient bundles
    carried. They were re-recorded again when a spec came to name its
    variant instead of copying four of its flags (bundle format 3): each
    spec has the earlier target, horizon and lags, and its variant's flags
    equal the four fields the earlier spec carried."""

    FORECASTS = {
        "PSS.csv": "f01aa06b1fe896af780deaf9cbe95cce4974a16bd3d22d3b60712ef5ed8d6fcb",
        "TDD.csv": "0969b3901bd145c3c24838df619c6f96cfffcb40dc47d62015929b13962fe550",
        "TDDGW-MD.csv": "3ee0642e6448bf8cacffc10f4bb54562f48ed4080d9c6dfb370450ce31f4c0ac",
    }
    BUNDLES = {
        "TDD/S01_k2.json": "ec1dfe2b6c249bc28e5e80a267a73e8e4522778c7ff48b2afc646939c8beec34",
        "TDD/S02_k2.json": "d823eda174b9ef0ac47c84bf08a61e2efd5cd5f87c17911169d67e6f099ba97e",
        "TDD/S03_k2.json": "ef719cc70c1c07982f753a0f7e77f245c28ebef7b8d9fe285cab3bdc3466385c",
        "TDD/S04_k2.json": "fd318bedb251042466fce83d38ad1370cd1b4ae57d3f570b93a17cfc6f902539",
        "TDDGW-MD/S01_k2.json": "cf57021e88d0b7989b5e98012a3832252537595059433656986b66579b2d006d",
        "TDDGW-MD/S02_k2.json": "ebcc6a75bbc8480042914f5f401de66825d4bda23c2e0230d0a14642e5f878fa",
        "TDDGW-MD/S03_k2.json": "3e31cead68c83c34804fc1b7ce2ae7876f41042e3b287c8a15acf939d07a6f63",
        "TDDGW-MD/S04_k2.json": "620fd255a391ceef2b9fd84cff96da7ada170e8d48c8001cc31529de53ffb902",
    }

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("frozen")
        cfg = small_config(out, variants=["PSS", "TDD", "TDDGW-MD"])
        cfg["test"]["end"] = "2008-05-03T00:00"
        path = _write_config(out, cfg)
        run_pipeline(path, out, commands=("synth", "geowind", "forecast"))
        selected = {name: (out / "forecasts" / name).read_bytes() for name in self.FORECASTS}
        run_pipeline(path, out, commands=("train",))
        return out, selected, path

    def test_forecasts(self, run):
        out, _, _ = run
        assert {name: _data_sha(out / "forecasts" / name) for name in self.FORECASTS} \
            == self.FORECASTS

    def test_train_bundles(self, run):
        out, _, _ = run
        names = sorted(str(p.relative_to(out / "models")) for p in out.glob("models/*/*.json"))
        assert names == sorted(self.BUNDLES)
        assert {name: _bundle_sha(out / "models" / name) for name in names} == self.BUNDLES

    def test_saved_specs_forecast_the_same_bytes(self, run):
        out, selected, path = run
        assert main(["forecast", "--config", str(path)]) == 0  # now reads models/
        for name, text in selected.items():
            assert (out / "forecasts" / name).read_bytes() == text, name
