"""CLI pipeline: config validation, chained stages, determinism."""

import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import windcast
import windcast.csvio
from windcast import cli, forecast
from windcast.cli import main
from windcast.config import config_from_dict, dump_config, load_config
from windcast.diurnal import window
from windcast.errors import ConfigError
from windcast.forecast import read_records_csv
from windcast.geostrophy import GeoWindSeries, MeanRemovalPolicy
from windcast.ingest import CANONICAL_SCHEMA
from windcast.model import CandidatePool, ResidualState, parse_variant
from windcast.timeutil import epoch_hour

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


def _write_unquoted_train(tmp_path, start, end):
    """small_config with its train period written unquoted, for YAML to type."""
    cfg = small_config(tmp_path / "out")
    del cfg["train"]
    path = _write_config(tmp_path, cfg)
    path.write_text(path.read_text() + f"train: {{start: {start}, end: {end}}}\n")
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

    @pytest.mark.parametrize("name, values, repeated", [
        ("stations", ["S01", "S01"], ["S01"]),
        ("gw_stations", ["S05", "S06", "S07", "S06", "S05", "S06"], ["S05", "S06"]),
        ("variants", ["PSS", "TDD", "PSS"], ["PSS"]),
        ("horizons", [2, 1, 2], [2]),
    ], ids=["stations", "gw_stations", "variants", "horizons"])
    def test_repeated_entries_refused(self, tmp_path, name, values, repeated):
        with pytest.raises(ConfigError) as err:
            config_from_dict(small_config(tmp_path / "out", **{name: values}))
        assert err.value.violations == [f"{name} lists {repeated} more than once"]

    @pytest.mark.parametrize("name, values, violation", [
        ("stations", [["S01"], "S02"], "stations entry ['S01'] must be a string"),
        ("stations", ["S01", 2], "stations entry 2 must be a string"),
        ("gw_stations", ["S05", 6, "S07"], "gw_stations entry 6 must be a string"),
        ("horizons", [True, 2], "horizons entry True must be an integer"),
        ("horizons", [2.0], "horizons entry 2.0 must be an integer"),
    ], ids=["stations-list", "stations-int", "gw_stations", "horizons-bool",
            "horizons-float"])
    def test_malformed_entries_refused(self, tmp_path, capsys, name, values, violation):
        cfg = small_config(tmp_path / "out")
        cfg[name] = values
        assert main(["report", "--config", str(_write_config(tmp_path, cfg))]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"] == [violation]

    @pytest.mark.parametrize("name, value", [
        ("tz_offset_hours", -5.5), ("refit_hours", 24.5), ("window_days", True),
        ("jobs", True), ("seed", 424242.9), ("min_stations", 3.0),
    ])
    def test_integer_keys_refuse_other_values(self, tmp_path, capsys, name, value):
        """An integer key is refused, not truncated by int(), when it holds a
        bool, a float or text."""
        out = tmp_path / "out"
        path = _write_config(tmp_path, small_config(str(out), **{name: value}))
        assert main(["report", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"] == [f"{name} must be an integer, got {value!r}"]
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("value", [["a"], 5, True, ""], ids=["list", "int", "bool", "empty"])
    @pytest.mark.parametrize("key", ["out_dir", "data.csv.dir"])
    def test_path_keys_refuse_other_values(self, tmp_path, capsys, monkeypatch, key, value):
        """A path key that is not a nonempty string is refused before anything
        is written, not turned into a directory named after the value or
        stat'ed as a file descriptor."""
        monkeypatch.chdir(tmp_path)
        cfg = csv_config()  # out_dir "out", below tmp_path
        if key == "out_dir":
            cfg["out_dir"] = value
        else:
            cfg["data"]["csv"]["dir"] = value
        path = _write_config(tmp_path, cfg)
        assert main(["geowind", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"] == [f"{key} must be a nonempty string, got {value!r}"]
        assert "Traceback" not in captured.err + captured.out
        assert os.listdir(tmp_path) == ["config.yaml"]

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

    @pytest.mark.parametrize("synth, violation", [
        ({"days": 0}, "data.synth: days must be at least 1, got 0"),
        ({"days": -3}, "data.synth: days must be at least 1, got -3"),
        ({"days": 1, "response_lag_hours": 30},
         "data.synth: response_lag_hours must lie in [0, 24), the archive's hours, got 30"),
    ], ids=["days-0", "days-negative", "lag-past-archive"])
    def test_archive_too_short_refused_before_writing(self, tmp_path, capsys, synth, violation):
        out = tmp_path / "out"
        cfg = small_config(str(out))
        cfg["data"]["synth"].update(synth)
        assert main(["synth", "--config", str(_write_config(tmp_path, cfg))]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"] == [violation]
        assert not out.exists()

    @pytest.mark.parametrize("synth, argv, violation", [
        ({"seed": -1}, [], "data.synth: seed must be nonnegative, got -1"),
        ({}, ["--seed", "-1"], "--seed: seed must be nonnegative, got -1"),
        ({"n_inner": 4.0}, [], "data.synth: n_inner must be an integer, got 4.0"),
        ({"days": 130.5}, [], "data.synth: days must be an integer, got 130.5"),
        ({"days": True}, [], "data.synth: days must be an integer, got True"),
        ({"domain_km": "350"}, [], "data.synth: domain_km must be a number, got '350'"),
        ({"friction_angle_deg": True}, [],
         "data.synth: friction_angle_deg must be a number, got True"),
        ({"start": "yesterday"}, [], "data.synth: unparseable timestamp 'yesterday'"),
        ({"start": "2008-01-01T05:00+05:00"}, [],
         "data.synth: unparseable timestamp '2008-01-01T05:00+05:00'"),
        ({"start": 2008}, [], "data.synth: start must be text, got 2008"),
    ], ids=["seed-negative", "cli-seed-negative", "n_inner-float", "days-float", "days-bool",
            "float-text", "float-bool", "start-unparseable", "start-offset-text", "start-int"])
    def test_synth_fields_refuse_other_values(self, tmp_path, capsys, synth, argv, violation):
        """A synth field is refused, before anything is written, when it
        holds a value of another type or a negative seed."""
        out = tmp_path / "out"
        cfg = small_config(str(out))
        cfg["data"]["synth"].update(synth)
        path = _write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(path)] + argv) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"] == [violation]
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("train, violation", [
        ({"start": "yesterday", "end": "2008-05-01T00:00"},
         "train: unparseable timestamp 'yesterday'"),
        ({"start": "2008-01-01T00:00"}, "train must be a mapping with 'start' and 'end'"),
    ], ids=["unparseable", "no-end"])
    def test_unparsed_period_adds_no_other_violation(self, tmp_path, train, violation):
        """A period that does not parse has no order or length to check."""
        with pytest.raises(ConfigError) as err:
            config_from_dict(small_config(tmp_path / "out", train=train))
        assert err.value.violations == [violation]

    @pytest.mark.parametrize("start, end", [
        ("2008-01-01T00:00:00Z", "2008-05-01T00:00:00Z"),
        ("2008-01-01 00:00:00", "2008-05-01 00:00:00+00:00"),
        ("2008-01-01", "2008-05-01"),
    ], ids=["z", "naive-and-zero-offset", "date"])
    def test_unquoted_utc_timestamps_accepted(self, tmp_path, start, end):
        """YAML reads an unquoted timestamp as a datetime or a date; one in UTC
        gives the period its quoted form gives."""
        quoted = config_from_dict(small_config(tmp_path / "out"))
        loaded = load_config(_write_unquoted_train(tmp_path, start, end))
        assert (loaded.train_start, loaded.train_end) == (quoted.train_start, quoted.train_end)
        assert loaded.digest() == quoted.digest()

    @pytest.mark.parametrize("start, offset", [
        ("2008-01-01T05:00:00+05:00", "UTC+05:00"), ("2007-12-31T18:00:00-06:00", "UTC-06:00"),
    ])
    def test_unquoted_timestamp_with_offset_refused(self, tmp_path, start, offset):
        with pytest.raises(ConfigError) as err:
            load_config(_write_unquoted_train(tmp_path, start, "2008-05-01"))
        assert err.value.violations == [f"train: timestamp {start} is at {offset}, not UTC"]

    @pytest.mark.parametrize("start", ["2008-01-01T00:00:00Z", "2008-01-01 00:00:00",
                                       "2008-01-01"], ids=["z", "naive", "date"])
    def test_unquoted_utc_synth_start_accepted(self, tmp_path, capsys, start):
        """YAML reads an unquoted data.synth.start as a datetime or a date; one
        in UTC is kept as text that names the same hour, and synth runs on it
        to the archive a quoted start writes."""
        quoted = tmp_path / "quoted"
        cfg = small_config(str(quoted))
        cfg["data"]["synth"]["days"] = 2
        cfg["train"] = {"start": "2008-01-01T00:00", "end": "2008-01-02T00:00"}
        cfg.update(test={"start": "2008-01-02T00:00", "end": "2008-01-03T00:00"}, window_days=1)
        assert main(["synth", "--config", str(_write_config(tmp_path, cfg))]) == 0
        out = tmp_path / "unquoted"
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
        path.write_text(path.read_text().replace("days: 2", f"days: 2\n    start: {start}"))
        loaded = load_config(path)
        assert isinstance(loaded.synth.start, str) and loaded.synth.start != "2008-01-01T00:00"
        assert epoch_hour(loaded.synth.start) == epoch_hour("2008-01-01T00:00")
        assert main(["synth", "--config", str(path)]) == 0
        capsys.readouterr()
        for name in ("stations.csv", "S01.csv", "truth.csv"):
            assert (out / "data" / name).read_bytes() == (quoted / "data" / name).read_bytes()

    def test_unquoted_synth_start_with_offset_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_config(tmp_path, small_config(str(out)))
        path.write_text(path.read_text().replace(
            "days: 130", "days: 130\n    start: 2008-01-01T05:00:00+05:00"))
        assert main(["synth", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["violations"] == [
            "data.synth: timestamp 2008-01-01T05:00:00+05:00 is at UTC+05:00, not UTC"]
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_fewer_gw_stations_than_min_stations_refused(self, tmp_path, capsys):
        """No hour could reach min_stations barometers, so geowind would
        estimate nothing and a TDDGW forecast would fail."""
        out = tmp_path / "out"
        path = _write_config(tmp_path, small_config(str(out), gw_stations=["S05", "S06"]))
        assert main(["geowind", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["violations"] == [
            "gw_stations lists 2 stations, fewer than min_stations (3): "
            "no hour gets a geostrophic wind"]
        assert not out.exists()

    def test_readme_example_loads(self):
        """README's example config is valid, and its mean_removal comment
        lists exactly the policies there are."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
        config_from_dict(yaml.safe_load(block))
        (line,) = [x for x in block.splitlines() if x.startswith("mean_removal:")]
        listed = line.partition("#")[2].partition("(")[0].split("|")
        assert [x.strip() for x in listed] == [p.value for p in MeanRemovalPolicy]

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
    (["train", "--config", "{}"], "windcast: argument command: invalid choice: 'train'"),
    (["report", "--config", "{}", "--out", ""], "--out must be a nonempty path"),
], ids=["jobs-text", "seed-text", "no-config", "unknown-command", "removed-train", "out-empty"])
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


def test_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{synth,geowind,forecast,evaluate,report}" in capsys.readouterr().out


def csv_config(unit="m_s"):
    cfg = small_config("out")
    cfg["data"] = {"source": "csv", "csv": {"dir": "archive", "schema": {
        "columns": dict(CANONICAL_SCHEMA.columns),
        "units": dict(CANONICAL_SCHEMA.units, speed=unit),
        "sentinels": [-999.0, 9999.0],
    }}}
    return cfg


@pytest.mark.skipif(not getattr(yaml, "__with_libyaml__", False),
                    reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("raw", [benchmark_config_dict("out"), small_config("out"),
                                 csv_config("m_s"), csv_config("mph")],
                         ids=["benchmark", "small", "csv-m_s", "csv-mph"])
def test_libyaml_reads_and_writes_configs_as_pure_python_does(tmp_path, raw):
    """config.yaml is the same text whichever classes PyYAML offers."""
    cfg = config_from_dict(raw)
    text = yaml.dump(cfg.to_dict(), Dumper=yaml.SafeDumper, sort_keys=True)
    assert yaml.dump(cfg.to_dict(), Dumper=yaml.CSafeDumper, sort_keys=True) == text
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    dump_config(cfg, tmp_path / "config.yaml")
    assert (tmp_path / "config.yaml").read_text() == text
    assert load_config(tmp_path / "config.yaml").digest() == cfg.digest()


class TestConfigDigest:
    def test_synth_digest_unchanged(self):
        cfg = small_config("out")
        assert cfg["restarts"] == 1
        assert config_from_dict(cfg).digest() == "bdf982fb6a3e"
        del cfg["restarts"]  # 1 is the only accepted value, so it reads as absent
        assert config_from_dict(cfg).digest() == "bdf982fb6a3e"

    def test_removed_keys_refused(self, pipeline_run, tmp_path, capsys):
        """The physical constants, the PIT bin count, the interval level and
        the lag depth are fixed values, the feature stations are the targets,
        and no policy removes whole-record means: a fresh config.yaml holds
        none of these keys, and one that an earlier version wrote with any of
        them is refused, writing nothing."""
        src, cfg = pipeline_run
        saved = yaml.safe_load((src / "config.yaml").read_text())
        assert not {"constants", "pit_bins", "interval_level", "feature_stations",
                    "max_lag"} & set(saved)
        assert load_config(src / "config.yaml").digest() == config_from_dict(cfg).digest()
        out = tmp_path / "out"
        cases = [
            ({"pit_bins": 10, "interval_level": 0.9, "constants": {
                "g0": 9.80665, "gas_constant": 287.0, "omega": 7.2921159e-5, "p_ref": 850.0}},
             "unknown config keys: ['constants', 'interval_level', 'pit_bins']"),
            ({"feature_stations": ["S01", "S02", "S03", "S04"]},
             "unknown config keys: ['feature_stations']"),
            ({"max_lag": 10}, "unknown config keys: ['max_lag']"),
            ({"mean_removal": "whole"}, "mean_removal must be one of ['none', 'monthly']"),
        ]
        for removed, violation in cases:
            path = _write_config(tmp_path, dict(saved, out_dir=str(out), **removed))
            assert main(["report", "--config", str(path)]) == 2
            payload = json.loads(capsys.readouterr().err)
            assert payload["error"] == "ConfigError"
            assert payload["violations"] == [violation]
            assert not out.exists()

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

    def test_job_count_is_not_in_the_digest(self, pipeline_run, tmp_path):
        src, cfg = pipeline_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        (out / "forecasts" / "TDDGW-MD.csv").unlink()
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out), jobs=cfg["jobs"] + 1))
        assert load_config(path).digest() == load_config(src / "config.yaml").digest()
        assert main(["forecast", "--config", str(path)]) == 0
        assert (out / "forecasts" / "TDDGW-MD.csv").exists()


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


def _loaded_after(code, modules=DEFERRED_SCIPY):
    """Which of ``modules`` are loaded once ``code`` ran in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(windcast.__file__)))
    code += f"; print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_neither_scipy_nor_multiprocessing():
    # evaluate and report open no pool and fit nothing
    assert _loaded_after("import sys, windcast.cli", ("multiprocessing", "scipy")) == "[]"


def test_persistence_forecast_opens_no_pool(pipeline_run, tmp_path):
    """A forecast that fits nothing starts no workers, however many jobs it
    is given, and needs no scipy.special."""
    src, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(src / "data", out / "data")
    shutil.copy(src / "geowind.csv", out / "geowind.csv")
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out), variants=["PSS"]))
    code = (f"import sys; from windcast.cli import main; "
            f"assert main(['forecast', '--config', {str(path)!r}, '--jobs', '2']) == 0")
    modules = ("multiprocessing", "concurrent.futures", "scipy.special")
    assert _loaded_after(code, modules) == "[]"
    assert (out / "forecasts" / "PSS.csv").exists()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run")
    cfg = small_config(out)
    path = _write_config(out, cfg)
    run_pipeline(path, out)
    return out, cfg


class TestPipeline:
    @pytest.fixture()
    def run(self, pipeline_run):
        return pipeline_run

    def test_all_artifacts_exist(self, run):
        out, _ = run
        for rel in ("data/stations.csv", "data/S01.csv", "data/truth.csv", "geowind.csv",
                    "forecasts/PSS.csv", "forecasts/TDDGW-MD.csv",
                    "scores.csv", "pit.csv", "report.txt", "config.yaml"):
            assert (out / rel).exists(), rel

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


ARTIFACTS = ("data/*", "geowind.csv", "forecasts/*", "scores.csv", "pit.csv", "report.txt")


def _artifacts(out) -> dict:
    return {str(p.relative_to(out)): p.read_bytes()
            for pattern in ARTIFACTS for p in sorted(out.glob(pattern))}


class TestSidecarCache:
    """Every CSV a stage writes has a sidecar in <out>/cache, and the next
    stages read it from there; the cache changes no artifact."""

    def test_cache_deleted_before_every_stage(self, pipeline_run, tmp_path):
        src, cfg = pipeline_run
        csvs = [name for name in _artifacts(src) if name.endswith(".csv")]
        assert len(csvs) == 23 and len(list((src / "cache").glob("*.columns"))) == len(csvs)
        out = tmp_path / "out"
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
        for command in ("synth", "geowind", "forecast", "evaluate", "report"):
            shutil.rmtree(out / "cache", ignore_errors=True)
            assert main([command, "--config", str(path)]) == 0
        assert _artifacts(out) == _artifacts(src)

    def test_stages_read_their_inputs_from_sidecars(self, pipeline_run, tmp_path, monkeypatch):
        src, cfg = pipeline_run
        out = tmp_path / "out"
        shutil.copytree(src, out)
        monkeypatch.setattr(windcast.csvio, "_field_chunks", lambda *args: pytest.fail("parsed"))
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
        for command in ("geowind", "forecast", "evaluate", "report"):
            assert main([command, "--config", str(path)]) == 0
        assert _artifacts(out) == _artifacts(src)


def test_external_archive_reads_as_the_synth_run(tmp_path):
    """geowind, forecast and evaluate on a data.csv.dir copy of the synth
    data/ parse every station file and write what the synth run writes;
    only their own outputs get sidecars."""
    variants = ["PSS", "TDD", "TDDGW-MD"]
    synth_out, out, archive = tmp_path / "synth", tmp_path / "csv", tmp_path / "archive"
    synth_out.mkdir()
    run_pipeline(_write_config(synth_out, small_config(synth_out, variants=variants)), synth_out,
                 commands=("synth", "geowind", "forecast", "evaluate"))
    shutil.copytree(synth_out / "data", archive)
    out.mkdir()
    cfg = small_config(out, variants=variants, data={"source": "csv", "csv": {"dir": str(archive)}})
    run_pipeline(_write_config(out, cfg), out, commands=("geowind", "forecast", "evaluate"))
    outputs = ["geowind.csv", *(f"forecasts/{v}.csv" for v in variants), "scores.csv", "pit.csv"]
    for name in outputs:
        assert _stripped(out / name) == _stripped(synth_out / name), name
    assert sorted(p.name for p in (out / "cache").iterdir()) == sorted(
        hashlib.sha256((out / name).read_bytes()).hexdigest() + windcast.csvio.SIDECAR_SUFFIX
        for name in outputs)


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
    assert _loaded_after(code) == "[]"
    assert (out / "report.txt").exists()


def test_report_of_a_fitted_run_never_loads_scipy(pipeline_run, tmp_path):
    src, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(src, out)
    (out / "report.txt").unlink()
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
    code = ("import sys; from windcast.cli import main; "
            f"assert main(['report', '--config', {str(path)!r}]) == 0")
    assert _loaded_after(code) == "[]"
    assert (out / "report.txt").read_bytes() == (src / "report.txt").read_bytes()


def test_pooled_io_stages_never_load_scipy_optimize(pipeline_run, tmp_path):
    _, cfg = pipeline_run
    out = tmp_path / "out"
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out)))
    code = ("import sys; from windcast.cli import main; "
            f"assert all(main([s, '--config', {str(path)!r}, '--jobs', '2']) == 0 "
            "for s in ('synth', 'geowind'))")
    assert "scipy.optimize" not in _loaded_after(code)
    assert (out / "geowind.csv").exists()


def test_fitted_forecast_never_loads_scipy_optimize(pipeline_run, tmp_path):
    src, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(src / "data", out / "data")
    shutil.copy(src / "geowind.csv", out / "geowind.csv")
    path = _write_config(tmp_path, dict(cfg, out_dir=str(out), variants=["PSS", "TDD"]))
    code = ("import sys; from windcast.cli import main; "
            f"assert main(['forecast', '--config', {str(path)!r}, '--jobs', '2']) == 0")
    assert "scipy.optimize" not in _loaded_after(code)
    assert (out / "forecasts/TDD.csv").exists()


class TestJobs:
    """One worker and two give the same bytes, and a stage opens at most one
    pool, which also does its station file I/O. On the mixed forecast path PSS
    runs in the calling process and the fitted variant in the pool."""

    OUTPUTS = {"synth": "data", "geowind": "geowind.csv", "forecast": "forecasts"}

    #: the station group of each fitted pool task, by job count, for one
    #: fitted variant and four targets
    GROUPS = {1: [["S01", "S02", "S03", "S04"]], 2: [["S01", "S02"], ["S03", "S04"]],
              3: [["S01", "S02"], ["S03"], ["S04"]]}

    def _rerun(self, pipeline_run, tmp_path, command, jobs, monkeypatch, groups=None):
        pools = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        # cli._stage_pool imports the pool class when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        io_pooled = []  # per station-file call: whether it was given the pool
        for name in ("write_dataset", "load_network_dir"):
            def spy(*args, _fn=getattr(cli, name), **kwargs):
                io_pooled.append(args[-1] is not None)
                return _fn(*args, **kwargs)
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

        def spy_state(cls, data, method, win, *, include_gw):
            states.append((method, win, include_gw))
            return build_state(cls, data, method, win, include_gw=include_gw)

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

        def windows(method, include_gw, *fit_times):
            train = (loaded.train_start, train_end)
            return [(method, window(method, t, train, loaded.window_days), include_gw)
                    for t in fit_times]

        assert len(loaded.stations) == 4
        per_horizon = [("TDD", 1), ("TDD", 2), ("TDDGW-MD", 1), ("TDDGW-MD", 2)]

        assert main(["forecast", "--config", str(path), "--jobs", "1"]) == 0
        # MD refits on each of the 5 test days; the first reuses the selection state.
        # Only TDDGW-MD residualizes the geostrophic speed, which it alone uses.
        assert states == windows("TRIG", False, train_end) + windows(
            "MD", True, train_end, *(test_start + 24 * day for day in range(1, 5)))
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


class TestGeowindProvenance:
    """A forecast with a variant that uses the geostrophic wind reads a
    geowind.csv estimated under this run's geowind settings only; the other
    settings may differ. A forecast without such a variant reads none."""

    def _copy(self, pipeline_run, tmp_path, **changes):
        src, cfg = pipeline_run
        out = tmp_path / "out"
        shutil.copytree(src / "data", out / "data")
        shutil.copy(src / "geowind.csv", out / "geowind.csv")
        return out, _write_config(tmp_path, dict(cfg, out_dir=str(out), **changes))

    @pytest.mark.parametrize("command", ["forecast"])
    def test_other_geowind_settings_refused(self, pipeline_run, tmp_path, capsys, command):
        src, _ = pipeline_run
        out, path = self._copy(pipeline_run, tmp_path, min_stations=11)
        assert main([command, "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "LoadError"
        message = payload["message"]
        assert "geowind.csv" in message and "re-run geowind" in message
        estimated = load_config(src / "config.yaml").geowind_digest()
        assert estimated in message and load_config(path).geowind_digest() in message
        assert not (out / "forecasts").exists()

    def test_missing_refused(self, pipeline_run, tmp_path, capsys):
        out, path = self._copy(pipeline_run, tmp_path)
        (out / "geowind.csv").unlink()
        assert main(["forecast", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "LoadError"
        assert "geowind.csv not found (run the geowind command first)" in payload["message"]
        assert not (out / "forecasts").exists()

    def test_variants_without_the_geostrophic_wind_ignore_a_stale_one(self, pipeline_run,
                                                                     tmp_path):
        """PSS and TDD read no geowind.csv, so one estimated under other
        geowind settings does not stop them."""
        out, path = self._copy(pipeline_run, tmp_path, min_stations=11,
                               variants=["PSS", "TDD"], horizons=[1])
        assert main(["forecast", "--config", str(path)]) == 0
        assert (out / "forecasts" / "TDD.csv").exists()


class TestForecastInputs:
    """forecast reads the station fields, and geowind.csv, that its variants
    use (model.forecast_inputs), and no more."""

    @pytest.mark.parametrize("variant, roles, reads_gw", [
        ("PSS", ("speed",), False),
        ("TDD", ("speed", "direction"), False),
        ("TDDGW-MD", ("speed", "direction"), True),
        ("TDDGWDT-SMD", ("speed", "direction", "temperature"), True),
    ])
    def test_loads_what_the_variant_uses(self, pipeline_run, monkeypatch, variant, roles,
                                         reads_gw):
        _, cfg = pipeline_run
        loads, gw_reads = [], []

        def spy_load(directory, schema, station_ids, fields, pool, _fn=cli.load_network_dir,
                     **kwargs):
            loads.append(fields)
            return _fn(directory, schema, station_ids, fields, pool, **kwargs)

        def spy_from_csv(cls, path, _fn=GeoWindSeries.from_csv.__func__, **kwargs):
            gw_reads.append(os.path.basename(path))
            return _fn(cls, path, **kwargs)

        monkeypatch.setattr(cli, "load_network_dir", spy_load)
        monkeypatch.setattr(GeoWindSeries, "from_csv", classmethod(spy_from_csv))
        data = cli._load_model_data(config_from_dict(dict(cfg, variants=[variant])), None)
        assert loads == [roles]
        assert gw_reads == (["geowind.csv"] if reads_gw else [])
        read = {"direction": data.cos_dir is not None and data.sin_dir is not None,
                "temperature": data.temperature is not None}
        assert read == {role: role in roles for role in read}
        assert all((series is not None) == reads_gw
                   for series in (data.gw_speed, data.gw_cos, data.gw_sin))

    def test_geowind_gap_does_not_stop_a_variant_without_it(self, pipeline_run, tmp_path):
        """Blank geostrophic cells on every 03:00Z row leave each MD window
        without a geostrophic value at one local hour. TDD-MD does not use
        the geostrophic wind, so its forecasts are those of a clean
        geowind.csv."""
        src, cfg = pipeline_run
        outputs = []
        for blank in (False, True):
            out = tmp_path / f"blank-{blank}"
            shutil.copytree(src / "data", out / "data")
            lines = (src / "geowind.csv").read_text().splitlines(keepends=True)
            if blank:
                # iso8601_utc_hour,u_g,v_g,w_g,theta_g_rad,n_stations,rms_residual
                lines = [",".join(l.split(",")[:1] + [""] * 4 + l.split(",")[5:])
                         if "T03:00Z," in l else l for l in lines]
            (out / "geowind.csv").write_text("".join(lines))
            path = _write_config(out, dict(cfg, out_dir=str(out), variants=["PSS", "TDD-MD"]))
            assert main(["forecast", "--config", str(path)]) == 0
            outputs.append({p.name: p.read_bytes() for p in (out / "forecasts").glob("*.csv")})
        assert sorted(outputs[0]) == ["PSS.csv", "TDD-MD.csv"]
        assert outputs[0] == outputs[1]


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
        path = _write_config(tmp_path, dict(cfg, out_dir=str(out), refit_hours=12))
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


def _stripped(path) -> bytes:
    """A file's bytes without its ``#`` provenance lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(l for l in lines if not l.startswith(b"#"))


def _data_sha(path) -> str:
    """sha256 of a data file without its ``#`` provenance lines."""
    return hashlib.sha256(_stripped(path)).hexdigest()


def _spec_sha(variant, station, horizon, names) -> str:
    """sha256 of the design columns selection kept, written as the JSON of a
    format-3 model bundle without its library version and config digest
    (see TestFrozenModelOutputs). Such a bundle held the highest lag q of
    each lag family: ``speed_r[S][q]``, ``cos_r[S][q]`` and ``gw_r[q]``."""
    lags = {"speed_lags": {}, "direction_lags": {}, "gw_lags": -1}
    for name in names:
        if name.startswith("gw_r["):
            lags["gw_lags"] = max(lags["gw_lags"], int(name[5:-1]))
        elif name.startswith(("speed_r[", "cos_r[")):
            st, _, lag = name[name.index("[") + 1:-1].partition("][")
            family = lags["speed_lags" if name.startswith("speed") else "direction_lags"]
            family[st] = max(family.get(st, -1), int(lag))
    spec = {"target_station": station, "horizon": horizon, "variant": variant, **lags}
    raw = {"format_version": 3, "spec": spec}
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
    trust-exact's. PSS and the selected lags come from no fit and did not
    change. The lags were pinned as the model bundles of a since-removed
    train stage held them, re-recorded when a bundle came to hold only the
    selected spec (each spec the one the earlier coefficient bundles
    carried), and again when a spec came to name its variant instead of
    copying four of its flags (bundle format 3). SPECS keeps those digests:
    the column names that selection returns are written back as the lag
    maps of a format-3 bundle and hashed (``_spec_sha``). TDDGWDT-SMD and TDD-YMD were added, and recorded as the code of
    that time wrote them, before the diurnal averaging window became one
    value: they pin the seasonal and whole-record profiles, the forced
    geostrophic direction pair and the temperature difference."""

    FORECASTS = {
        "PSS.csv": "f01aa06b1fe896af780deaf9cbe95cce4974a16bd3d22d3b60712ef5ed8d6fcb",
        "TDD.csv": "0969b3901bd145c3c24838df619c6f96cfffcb40dc47d62015929b13962fe550",
        "TDDGW-MD.csv": "3ee0642e6448bf8cacffc10f4bb54562f48ed4080d9c6dfb370450ce31f4c0ac",
        "TDDGWDT-SMD.csv": "93721174f1559a74bbaf2ab56cf9f68f9a5ab35ca89cdd392fe6ad5e18aaf636",
        "TDD-YMD.csv": "4fd5a882b687e99fa1bb54418c55339abc08615015ace1dae3d38cec4214fc35",
    }
    SPECS = {
        "TDD/S01_k2": "ec1dfe2b6c249bc28e5e80a267a73e8e4522778c7ff48b2afc646939c8beec34",
        "TDD/S02_k2": "d823eda174b9ef0ac47c84bf08a61e2efd5cd5f87c17911169d67e6f099ba97e",
        "TDD/S03_k2": "ef719cc70c1c07982f753a0f7e77f245c28ebef7b8d9fe285cab3bdc3466385c",
        "TDD/S04_k2": "fd318bedb251042466fce83d38ad1370cd1b4ae57d3f570b93a17cfc6f902539",
        "TDDGW-MD/S01_k2": "cf57021e88d0b7989b5e98012a3832252537595059433656986b66579b2d006d",
        "TDDGW-MD/S02_k2": "ebcc6a75bbc8480042914f5f401de66825d4bda23c2e0230d0a14642e5f878fa",
        "TDDGW-MD/S03_k2": "3e31cead68c83c34804fc1b7ce2ae7876f41042e3b287c8a15acf939d07a6f63",
        "TDDGW-MD/S04_k2": "620fd255a391ceef2b9fd84cff96da7ada170e8d48c8001cc31529de53ffb902",
        "TDDGWDT-SMD/S01_k2": "b51605deb436239fbf85a04edc9680e47dbf8fd7ab1d31cd20728f4b5ff2b0c7",
        "TDDGWDT-SMD/S02_k2": "0af748de4ffaeb470f5447997b2f663eebd0a2b8640eec05fb577c3e798e11ff",
        "TDDGWDT-SMD/S03_k2": "afe75fc95d467da20608d4e9a1709b62b9f4ddddeb0b393122674b63d3130903",
        "TDDGWDT-SMD/S04_k2": "6a941ccfb7fb61ada15be31ba40ae410af89c30f34af24ca9803f4a20ba867b2",
        "TDD-YMD/S01_k2": "5f1ceac8a468b38e074e81dea7c8684cbfa3496dfb70947232c04600b6a76a72",
        "TDD-YMD/S02_k2": "a9ee558a42380bdb5326a894326d83ffc2c16c312cd0f68c26e17e120e645f9f",
        "TDD-YMD/S03_k2": "b9e651a25414d5cdbaf46bcc5d18bd4e9d6cff5f519047ac7a6bd7714ba67bf1",
        "TDD-YMD/S04_k2": "6b0114f2eea2dbd1c9430ce988e1bd689e5360b1866d11d99be6c4e1beeda015",
    }

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("frozen")
        cfg = small_config(out, variants=["PSS", "TDD", "TDDGW-MD", "TDDGWDT-SMD", "TDD-YMD"])
        cfg["test"]["end"] = "2008-05-03T00:00"
        path = _write_config(out, cfg)
        run_pipeline(path, out, commands=("synth", "geowind", "forecast"))
        return out, path

    def _forecast_shas(self, out):
        return {name: _data_sha(out / "forecasts" / name) for name in self.FORECASTS}

    def test_forecasts(self, run):
        out, _ = run
        assert self._forecast_shas(out) == self.FORECASTS

    def test_selected_specs(self, run):
        _, path = run
        cfg = load_config(path)
        data = cli._load_model_data(cfg, None)
        found = {}
        for variant in cfg.variants[1:]:  # PSS selects nothing
            _, chosen = forecast._selection(data, parse_variant(variant), cfg.stations,
                                            cfg.horizons, (cfg.train_start, cfg.train_end),
                                            cfg.window_days)
            found.update((f"{variant}/{st}_k{k}", _spec_sha(variant, st, k, names))
                         for (st, k), names in chosen.items())
        assert found == self.SPECS

    @pytest.mark.parametrize("variant", ["PSS", "TDD"])
    def test_runs_without_geowind(self, run, tmp_path, variant):
        """A variant that does not use the geostrophic wind needs no geowind
        stage, and writes the bytes it writes in the full run."""
        src, path = run
        out = tmp_path / "out"
        shutil.copytree(src / "data", out / "data")
        cfg = dict(yaml.safe_load(path.read_text()), out_dir=str(out), variants=[variant])
        assert main(["forecast", "--config", str(_write_config(tmp_path, cfg))]) == 0
        assert sorted(os.listdir(out / "forecasts")) == [f"{variant}.csv"]
        assert _data_sha(out / "forecasts" / f"{variant}.csv") == self.FORECASTS[f"{variant}.csv"]

    def test_leftover_models_tree_changes_nothing(self, run):
        """forecast reads no model bundle that an earlier version's train
        stage left under models/, even a stale one."""
        out, path = run
        bundle = out / "models" / "TDD" / "S01_k2.json"
        bundle.parent.mkdir(parents=True, exist_ok=True)
        bundle.write_text(json.dumps({"format_version": 3, "config_sha": "0123456789ab",
                                      "spec": {"target_station": "S01", "horizon": 2,
                                               "variant": "TDD", "speed_lags": {"S02": 0}}}))
        assert main(["forecast", "--config", str(path)]) == 0
        assert self._forecast_shas(out) == self.FORECASTS
