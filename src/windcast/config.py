"""Run configuration: one YAML file describing data, models, and periods.

Validation is collected, not fail-fast: loading a bad config raises a
single ConfigError enumerating every violated constraint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError, InvalidInputError
from .geostrophy import MeanRemovalPolicy, PhysicalConstants
from .ingest import CANONICAL_SCHEMA, SchemaConfig
from .model import MAX_HORIZON, MAX_LAG, PERSISTENCE, parse_variant
from .synth import SynthConfig
from .timeutil import epoch_hour, iso_hour

_TOP_KEYS = {
    "seed", "out_dir", "data", "stations", "feature_stations", "gw_stations",
    "horizons", "variants", "train", "test", "window_days", "refit_hours",
    "restarts", "max_lag", "tz_offset_hours", "mean_removal", "min_stations",
    "pit_bins", "interval_level", "constants", "jobs",
}


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    data_source: str = "synth"
    synth: SynthConfig | None = None
    csv_dir: str | None = None
    csv_schema: SchemaConfig = CANONICAL_SCHEMA
    stations: list = field(default_factory=list)  # forecast targets
    feature_stations: list | None = None  # default: targets
    gw_stations: list | None = None  # default: every station in the archive
    horizons: list = field(default_factory=lambda: [1, 2, 3, 4, 5, 6])
    variants: list = field(default_factory=lambda: [PERSISTENCE, "TDD", "TDDGW-MD"])
    train_start: int = 0
    train_end: int = 0
    test_start: int = 0
    test_end: int = 0
    window_days: int = 45
    refit_hours: int = 24
    max_lag: int = MAX_LAG
    tz_offset_hours: int = 0
    mean_removal: MeanRemovalPolicy = MeanRemovalPolicy.MONTHLY
    min_stations: int = 3
    pit_bins: int = 10
    interval_level: float = 0.90
    constants: PhysicalConstants = PhysicalConstants()
    jobs: int = 1

    @property
    def features(self) -> list:
        return list(self.feature_stations) if self.feature_stations else list(self.stations)

    def validate(self) -> list:
        """Every violated constraint, empty when the config is usable."""
        v = []
        if self.data_source not in ("synth", "csv"):
            v.append(f"data.source must be 'synth' or 'csv', got {self.data_source!r}")
        if self.data_source == "csv" and not self.csv_dir:
            v.append("data.csv.dir is required for source 'csv'")
        if not self.stations:
            v.append("stations (forecast targets) must be nonempty")
        if self.feature_stations is not None:
            missing = set(self.stations) - set(self.feature_stations)
            if missing:
                v.append(f"feature_stations must include every target; missing {sorted(missing)}")
        if not self.horizons:
            v.append("horizons must be nonempty")
        for k in self.horizons:
            if not isinstance(k, int) or not 1 <= k <= MAX_HORIZON:
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
        if not self.train_start < self.train_end:
            v.append("training period start must precede its end")
        if not self.test_start < self.test_end:
            v.append("test period start must precede its end")
        if self.train_end > self.test_start:
            v.append("training period must precede the test period")
        if self.window_days < 1:
            v.append("window_days must be >= 1")
        elif 24 * self.window_days > self.train_end - self.train_start:
            v.append(
                f"sliding window of {self.window_days} days exceeds the "
                f"{(self.train_end - self.train_start) // 24}-day training period"
            )
        if self.refit_hours < 1:
            v.append("refit_hours must be >= 1")
        if not 1 <= self.max_lag <= MAX_LAG:
            v.append(f"max_lag must lie in 1..{MAX_LAG}")
        if self.min_stations < 3:
            v.append("min_stations must be >= 3")
        if self.pit_bins < 2:
            v.append("pit_bins must be >= 2")
        if not 0.0 < self.interval_level < 1.0:
            v.append("interval_level must lie strictly in (0, 1)")
        if self.jobs < 1:
            v.append("jobs must be >= 1")
        return v

    def to_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "data": {"source": self.data_source},
            "stations": list(self.stations),
            "feature_stations": self.feature_stations,
            "gw_stations": self.gw_stations,
            "horizons": list(self.horizons),
            "variants": list(self.variants),
            "train": {"start": iso_hour(self.train_start), "end": iso_hour(self.train_end)},
            "test": {"start": iso_hour(self.test_start), "end": iso_hour(self.test_end)},
            "window_days": self.window_days,
            "refit_hours": self.refit_hours,
            "max_lag": self.max_lag,
            "tz_offset_hours": self.tz_offset_hours,
            "mean_removal": self.mean_removal.value,
            "min_stations": self.min_stations,
            "pit_bins": self.pit_bins,
            "interval_level": self.interval_level,
            "constants": dataclasses.asdict(self.constants),
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
        payload = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def _parse_period(raw, name, violations):
    if not isinstance(raw, dict) or "start" not in raw or "end" not in raw:
        violations.append(f"{name} must be a mapping with 'start' and 'end'")
        return 0, 0
    try:
        return epoch_hour(str(raw["start"])), epoch_hour(str(raw["end"]))
    except InvalidInputError as exc:
        violations.append(f"{name}: {exc}")
        return 0, 0


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
    try:
        cfg.seed = int(raw.get("seed", 0))
    except (TypeError, ValueError):
        violations.append("seed must be an integer")
    cfg.out_dir = str(raw.get("out_dir", cfg.out_dir))

    data = _mapping(raw, "data", "data", violations)
    cfg.data_source = str(data.get("source", "synth"))
    if cfg.data_source == "synth":
        synth_raw = dict(_mapping(data, "synth", "data.synth", violations))
        synth_raw.setdefault("seed", cfg.seed)
        try:
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

    for name in ("stations", "feature_stations", "gw_stations", "horizons", "variants"):
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
    for name in ("window_days", "refit_hours", "max_lag",
                 "tz_offset_hours", "min_stations", "pit_bins", "jobs"):
        if name in raw:
            try:
                setattr(cfg, name, int(raw[name]))
            except (TypeError, ValueError):
                violations.append(f"{name} must be an integer")
    if "interval_level" in raw:
        try:
            cfg.interval_level = float(raw["interval_level"])
        except (TypeError, ValueError):
            violations.append("interval_level must be a number")
    if "mean_removal" in raw:
        try:
            cfg.mean_removal = MeanRemovalPolicy(str(raw["mean_removal"]))
        except ValueError:
            allowed = [p.value for p in MeanRemovalPolicy]
            violations.append(f"mean_removal must be one of {allowed}")
    if "constants" in raw:
        try:
            cfg.constants = PhysicalConstants(**_mapping(raw, "constants", "constants",
                                                         violations))
        except (TypeError, InvalidInputError) as exc:
            violations.append(f"constants: {exc}")

    violations.extend(cfg.validate())
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path) -> RunConfig:
    """The validated config in the YAML file ``path``; a file that cannot be
    read or parsed is a ConfigError too."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    return config_from_dict(raw if raw is not None else {})


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)
