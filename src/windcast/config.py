"""Run configuration: one YAML file describing data, models, and periods.

Validation is collected, not fail-fast: loading a bad config raises a
single ConfigError enumerating every violated constraint.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError, InvalidInputError
from .geostrophy import MeanRemovalPolicy
from .ingest import CANONICAL_SCHEMA, SchemaConfig
from .model import MAX_HORIZON, PERSISTENCE, parse_variant
from .synth import SynthConfig
from .timeutil import epoch_hour, iso_hour

_TOP_KEYS = {
    "seed", "out_dir", "data", "stations", "gw_stations", "horizons", "variants",
    "train", "test", "window_days", "refit_hours", "restarts", "tz_offset_hours",
    "mean_removal", "min_stations", "jobs",
}
# libyaml's C classes when PyYAML was built with them: they read and write
# config.yaml as the pure-Python classes do, in a fraction of the time
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class RunConfig:
    """A run's settings. The forecast targets are also the space-time feature
    stations, and every model looks back at most ``model.MAX_LAG`` hours."""

    seed: int = 0
    out_dir: str = "runs/out"
    data_source: str = "synth"
    synth: SynthConfig | None = None
    csv_dir: str | None = None
    csv_schema: SchemaConfig = CANONICAL_SCHEMA
    stations: list = field(default_factory=list)  # forecast targets, also the feature stations
    gw_stations: list | None = None  # default: every station in the archive
    horizons: list = field(default_factory=lambda: [1, 2, 3, 4, 5, 6])
    variants: list = field(default_factory=lambda: [PERSISTENCE, "TDD", "TDDGW-MD"])
    train_start: int | None = None  # None until a period parses
    train_end: int | None = None
    test_start: int | None = None
    test_end: int | None = None
    window_days: int = 45
    refit_hours: int = 24
    tz_offset_hours: int = 0
    mean_removal: MeanRemovalPolicy = MeanRemovalPolicy.MONTHLY
    min_stations: int = 3
    jobs: int = 1

    def validate(self) -> list:
        """Every violated constraint, empty when the config is usable."""
        v = []
        if self.data_source not in ("synth", "csv"):
            v.append(f"data.source must be 'synth' or 'csv', got {self.data_source!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            v.append(f"out_dir must be a nonempty string, got {self.out_dir!r}")
        if self.data_source == "csv" and not (isinstance(self.csv_dir, str) and self.csv_dir):
            v.append(f"data.csv.dir must be a nonempty string, got {self.csv_dir!r}")
        if not self.stations:
            v.append("stations (forecast targets) must be nonempty")
        for name in ("stations", "gw_stations", "variants", "horizons"):
            values = getattr(self, name) or []
            repeated = [x for i, x in enumerate(values)
                        if x in values[:i] and x not in values[i + 1:]]
            if repeated:
                v.append(f"{name} lists {repeated} more than once")
        for name in ("stations", "gw_stations"):
            for x in getattr(self, name) or []:
                if not isinstance(x, str):
                    v.append(f"{name} entry {x!r} must be a string")
        if self.gw_stations is not None and len(self.gw_stations) < self.min_stations:
            v.append(f"gw_stations lists {len(self.gw_stations)} stations, fewer than "
                     f"min_stations ({self.min_stations}): no hour gets a geostrophic wind")
        if not self.horizons:
            v.append("horizons must be nonempty")
        for k in self.horizons:
            if isinstance(k, bool) or not isinstance(k, int):
                v.append(f"horizons entry {k!r} must be an integer")
            elif not 1 <= k <= MAX_HORIZON:
                v.append(f"horizon {k!r} outside 1..{MAX_HORIZON}")
        if not self.variants:
            v.append("variants must be nonempty")
        for name in self.variants:
            if name == PERSISTENCE:
                continue
            try:
                parse_variant(name)
            except InvalidInputError as exc:
                v.append(str(exc))
        # the order and window-length checks need periods that parsed
        train = None not in (self.train_start, self.train_end)
        test = None not in (self.test_start, self.test_end)
        if train and not self.train_start < self.train_end:
            v.append("training period start must precede its end")
        if test and not self.test_start < self.test_end:
            v.append("test period start must precede its end")
        if train and test and self.train_end > self.test_start:
            v.append("training period must precede the test period")
        if self.window_days < 1:
            v.append("window_days must be >= 1")
        elif train and 24 * self.window_days > self.train_end - self.train_start:
            v.append(
                f"sliding window of {self.window_days} days exceeds the "
                f"{(self.train_end - self.train_start) // 24}-day training period"
            )
        if self.refit_hours < 1:
            v.append("refit_hours must be >= 1")
        if self.min_stations < 3:
            v.append("min_stations must be >= 3")
        if self.jobs < 1:
            v.append("jobs must be >= 1")
        return v

    def to_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "data": {"source": self.data_source},
            "stations": list(self.stations),
            "gw_stations": self.gw_stations,
            "horizons": list(self.horizons),
            "variants": list(self.variants),
            "train": {"start": iso_hour(self.train_start), "end": iso_hour(self.train_end)},
            "test": {"start": iso_hour(self.test_start), "end": iso_hour(self.test_end)},
            "window_days": self.window_days,
            "refit_hours": self.refit_hours,
            "tz_offset_hours": self.tz_offset_hours,
            "mean_removal": self.mean_removal.value,
            "min_stations": self.min_stations,
            "jobs": self.jobs,
        }
        if self.synth is not None:
            d["data"]["synth"] = dataclasses.asdict(self.synth)
        if self.csv_dir is not None:
            schema = dataclasses.asdict(self.csv_schema)
            schema["sentinels"] = list(schema["sentinels"])
            d["data"]["csv"] = {"dir": self.csv_dir, "schema": schema}
        return d

    def digest(self) -> str:
        """Semantic config hash; the output location and the job count do not
        change results."""
        d = self.to_dict()
        d.pop("out_dir", None)
        d.pop("jobs", None)
        return _sha(d)

    def geowind_digest(self) -> str:
        """Hash of the settings the geowind stage reads: the data source (synth
        settings, or CSV directory and schema), gw_stations, mean_removal and
        min_stations."""
        d = self.to_dict()
        return _sha({key: d[key] for key in ("data", "gw_stations", "mean_removal",
                                             "min_stations")})


def _sha(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:12]


def _utc_text(value):
    """A timestamp as text. YAML reads an unquoted timestamp as a date or a
    datetime, which is UTC when it has no offset or offset 0; any other
    offset is refused, not shifted. Other values are returned as they are."""
    if isinstance(value, datetime.datetime):
        if value.utcoffset():
            raise InvalidInputError(f"timestamp {value.isoformat()} is at {value.tzname()}, "
                                    "not UTC")
        value = value.replace(tzinfo=None)
    return str(value) if isinstance(value, datetime.date) else value


def _epoch_hour(value) -> int:
    """A period bound's epoch hour (``_utc_text``)."""
    return epoch_hour(str(_utc_text(value)))


def _parse_period(raw, name, violations):
    """(start, end) epoch hours; (None, None), and a violation, when the period
    does not parse."""
    if not isinstance(raw, dict) or "start" not in raw or "end" not in raw:
        violations.append(f"{name} must be a mapping with 'start' and 'end'")
        return None, None
    try:
        return _epoch_hour(raw["start"]), _epoch_hour(raw["end"])
    except InvalidInputError as exc:
        violations.append(f"{name}: {exc}")
        return None, None


def _mapping(parent: dict, key: str, name: str, violations) -> dict:
    """``parent[key]``, {} when absent; a violation, and {}, when it is not a
    mapping."""
    value = parent.get(key, {})
    if isinstance(value, dict):
        return value
    violations.append(f"{name} must be a mapping, got {value!r}")
    return {}


def config_from_dict(raw: dict) -> RunConfig:
    """Build and validate a RunConfig; raises ConfigError listing every problem."""
    violations = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        violations.append(f"unknown config keys: {sorted(unknown)}")

    cfg = RunConfig()
    for name in ("seed", "window_days", "refit_hours", "tz_offset_hours", "min_stations",
                 "jobs"):
        value = raw.get(name, getattr(cfg, name))
        if isinstance(value, bool) or not isinstance(value, int):  # int() would truncate
            violations.append(f"{name} must be an integer, got {value!r}")
        else:
            setattr(cfg, name, value)
    cfg.out_dir = raw.get("out_dir", cfg.out_dir)

    data = _mapping(raw, "data", "data", violations)
    cfg.data_source = str(data.get("source", "synth"))
    if cfg.data_source == "synth":
        synth_raw = dict(_mapping(data, "synth", "data.synth", violations))
        synth_raw.setdefault("seed", cfg.seed)
        try:
            if "start" in synth_raw:
                synth_raw["start"] = _utc_text(synth_raw["start"])
            cfg.synth = SynthConfig(**synth_raw)
        except (TypeError, InvalidInputError) as exc:
            violations.append(f"data.synth: {exc}")
    elif cfg.data_source == "csv":
        csv_raw = _mapping(data, "csv", "data.csv", violations)
        cfg.csv_dir = csv_raw.get("dir")
        schema_raw = _mapping(csv_raw, "schema", "data.csv.schema", violations)
        if schema_raw:
            try:
                cfg.csv_schema = SchemaConfig(**schema_raw)
            except (TypeError, InvalidInputError) as exc:
                violations.append(f"data.csv.schema: {exc}")

    for name in ("stations", "gw_stations", "horizons", "variants"):
        value = raw.get(name)  # None keeps the default
        if isinstance(value, list):
            setattr(cfg, name, list(value))
        elif value is not None:
            violations.append(f"{name} must be a list, got {value!r}")
    cfg.variants = [str(x) for x in cfg.variants]
    if "train" in raw:
        cfg.train_start, cfg.train_end = _parse_period(raw["train"], "train", violations)
    else:
        violations.append("train period is required")
    if "test" in raw:
        cfg.test_start, cfg.test_end = _parse_period(raw["test"], "test", violations)
    else:
        violations.append("test period is required")

    if raw.get("restarts", 1) != 1:
        violations.append("restarts: random restarts were removed, since they never beat "
                          "the single least-squares start in the ROADMAP fit study; "
                          "only 1 is accepted")
    if "mean_removal" in raw:
        try:
            cfg.mean_removal = MeanRemovalPolicy(str(raw["mean_removal"]))
        except ValueError:
            allowed = [p.value for p in MeanRemovalPolicy]
            violations.append(f"mean_removal must be one of {allowed}")

    violations.extend(cfg.validate())
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path) -> RunConfig:
    """The validated config in the YAML file ``path``; a file that cannot be
    read or parsed is a ConfigError too."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    return config_from_dict(raw if raw is not None else {})


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.dump(cfg.to_dict(), fh, Dumper=_YAML_DUMPER, sort_keys=True)
