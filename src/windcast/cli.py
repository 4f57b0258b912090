"""Command-line front end.

Subcommands chain through files under the run's output directory:

    synth                        -> <out>/data/{stations.csv, <ID>.csv, truth.csv}
    geowind   data/              -> <out>/geowind.csv
    forecast  data/, geowind.csv -> <out>/forecasts/<variant>.csv
    evaluate  forecasts/         -> <out>/scores.csv, <out>/pit.csv
    report    scores.csv         -> <out>/report.txt

With more than one job, synth, geowind and forecast each open one pool of
worker processes, which writes or reads the station CSVs one task per
station; forecast then runs the lag selection and rolling fits there, one
task per (fitted variant, station group): each variant's targets are
split, in config order, into ceil(jobs / fitted variants) contiguous
groups, whose stations share the variant's residual states and candidate
pools. Lags are selected afresh by every forecast run, deterministically
from the config's training period. evaluate refuses forecasts, and report
scores, that another config wrote, and forecast a geowind.csv estimated
under other geowind settings (``_stage_digest``).

Every command validates the config first and fails with a machine-readable
JSON error on stderr and a nonzero exit code. Outputs are written
atomically and contain no wall-clock timestamps, so identical config +
seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import __version__
from .config import RunConfig, dump_config, load_config
from .errors import ConfigError, InvalidInputError, LoadError, WindcastError
from .forecast import (
    ForecastColumns,
    RollingConfig,
    read_records_csv,
    run_rolling,
    write_records_csv,
)
from .geostrophy import GeoWindSeries, estimate_series
from .ingest import load_network_dir
from .model import ModelData, PERSISTENCE
from .series import Network
from .synth import write_dataset
from .verification import (
    format_score_table,
    read_scores_csv,
    relative_reduction,
    score_groups,
    write_pit_csv,
    write_scores_csv,
)

JOBS_ENV = "WINDCAST_JOBS"
# The station fields (ingest roles) each stage reads: estimate_series uses
# pressure and temperature, ModelData speed, direction and temperature.
GEOWIND_ROLES = ("temperature", "pressure")
FORECAST_ROLES = ("speed", "direction", "temperature")


def _stage_digest(cfg: RunConfig, command: str) -> str:
    """The digest an artifact of ``command`` is stamped with: geowind.csv
    carries that of the settings geowind reads, so configs that differ in
    anything else share it; every other artifact that of the whole config."""
    return cfg.geowind_digest() if command == "geowind" else cfg.digest()


def _provenance(cfg: RunConfig, command: str) -> list:
    return [f"windcast {__version__} {command} seed={cfg.seed} "
            f"config_sha={_stage_digest(cfg, command)}"]


def _check_provenance(cfg: RunConfig, path, command: str) -> None:
    """Refuse the artifact ``path`` that the stage ``command`` writes unless it
    exists and its provenance line carries this run's digest for it."""
    if not os.path.exists(path):
        raise LoadError(f"{path} not found (run the {command} command first)")
    with open(path) as fh:
        _, stamped, sha = fh.readline().partition(" config_sha=")
    found, digest = sha.strip() if stamped else None, _stage_digest(cfg, command)
    if found != digest:
        raise LoadError(f"{path}: written under config {found or '(none recorded)'}, "
                        f"this run is config {digest}; re-run {command}")


def _atomic(path, write_fn):
    tmp = f"{path}.tmp"
    write_fn(tmp)
    os.replace(tmp, path)


def _stage_pool(jobs: int, variants=()):
    """The one worker pool of a stage, or a null context for one job. Only a
    pool imports multiprocessing. A stage that fits model ``variants`` imports
    scipy.special first, which the CRPS fits and the forecast medians use, so
    that the forked workers share it."""
    if jobs <= 1:
        return contextlib.nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    if set(variants) - {PERSISTENCE}:
        import scipy.special  # noqa: F401
    return ProcessPoolExecutor(max_workers=jobs)


def _map(pool, fn, tasks: list) -> list:
    """``fn(*task)`` for each of ``tasks``, results in task order."""
    return list(pool.map(fn, *zip(*tasks))) if pool and tasks else [fn(*t) for t in tasks]


def _data_dir(cfg: RunConfig) -> str:
    if cfg.data_source == "csv":
        return cfg.csv_dir
    return os.path.join(cfg.out_dir, "data")


def _load_network(cfg: RunConfig, station_ids, roles, pool) -> Network:
    directory = _data_dir(cfg)
    if not os.path.isdir(directory):
        raise LoadError(
            f"data directory {directory!r} not found"
            + (" (run the synth command first)" if cfg.data_source == "synth" else "")
        )
    series = load_network_dir(directory, cfg.csv_schema, station_ids, roles, pool)
    return Network.from_series(series)


def _load_model_data(cfg: RunConfig, pool) -> ModelData:
    """The stations and geowind.csv, read side by side when there is a pool.
    A geowind.csv estimated under other geowind settings is refused."""
    gw_path = os.path.join(cfg.out_dir, "geowind.csv")
    _check_provenance(cfg, gw_path, "geowind")
    pending = pool.submit(GeoWindSeries.from_csv, gw_path) if pool else None
    network = _load_network(cfg, cfg.features, FORECAST_ROLES, pool)
    geowind = pending.result() if pending else GeoWindSeries.from_csv(gw_path)
    return ModelData.from_network(network, geowind, cfg.features, cfg.tz_offset_hours)


def _rolling_config(cfg: RunConfig) -> RollingConfig:
    return RollingConfig(window_days=cfg.window_days, refit_hours=cfg.refit_hours,
                         max_lag=cfg.max_lag)


def cmd_synth(cfg: RunConfig, jobs: int) -> None:
    if cfg.data_source != "synth":
        raise ConfigError(["synth command requires data.source == 'synth'"])
    out = os.path.join(cfg.out_dir, "data")
    with _stage_pool(jobs) as pool:
        write_dataset(cfg.synth, out, cfg.constants, pool)
    print(f"wrote synthetic dataset ({cfg.synth.n_stations} stations, "
          f"{cfg.synth.days} days) to {out}")


def cmd_geowind(cfg: RunConfig, jobs: int) -> None:
    with _stage_pool(jobs) as pool:
        network = _load_network(cfg, cfg.gw_stations, GEOWIND_ROLES, pool)
    series = estimate_series(network, cfg.constants, cfg.mean_removal,
                             min_stations=cfg.min_stations)
    path = os.path.join(cfg.out_dir, "geowind.csv")
    _atomic(path, lambda p: series.to_csv(p, _provenance(cfg, "geowind")))
    n_ok = int((series.n_stations >= cfg.min_stations).sum())
    print(f"estimated geostrophic wind for {n_ok}/{series.n} hours -> {path}")


def _station_groups(cfg: RunConfig, jobs: int) -> list:
    """The target stations, in config order, split into ceil(jobs / fitted
    variants) contiguous groups (at most one per station) whose sizes differ
    by at most one: one pool task per (fitted variant, group)."""
    fitted = sum(v != PERSISTENCE for v in cfg.variants)
    n = max(1, min(len(cfg.stations), -(-jobs // fitted)))
    size, extra = divmod(len(cfg.stations), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [cfg.stations[a:b] for a, b in zip(bounds, bounds[1:])]


def cmd_forecast(cfg: RunConfig, jobs: int) -> None:
    """PSS is computed here; only the variants that fit models go to the pool,
    one task per (variant, station group)."""
    train = (cfg.train_start, cfg.train_end)
    test = (cfg.test_start, cfg.test_end)
    rolling = _rolling_config(cfg)

    results: dict[tuple, ForecastColumns] = {}
    fit_keys, fit_tasks = [], []
    with _stage_pool(jobs, cfg.variants) as pool:
        data = _load_model_data(cfg, pool)
        for variant in cfg.variants:
            if variant == PERSISTENCE:
                columns = run_rolling(data, variant, cfg.stations, cfg.horizons, train, test,
                                      rolling)
                results.update(((variant, st), c) for st, c in zip(cfg.stations, columns))
                continue
            for group in _station_groups(cfg, jobs):
                fit_keys.append((variant, group))
                fit_tasks.append((data, variant, group, list(cfg.horizons), train, test, rolling))
        for (variant, group), columns in zip(fit_keys, _map(pool, run_rolling, fit_tasks)):
            results.update(((variant, st), c) for st, c in zip(group, columns))

    os.makedirs(os.path.join(cfg.out_dir, "forecasts"), exist_ok=True)
    for variant in cfg.variants:
        columns = ForecastColumns.concat([results[(variant, s)] for s in cfg.stations])
        path = os.path.join(cfg.out_dir, "forecasts", f"{variant}.csv")
        _atomic(path, lambda p, c=columns: write_records_csv(c, p, _provenance(cfg, "forecast")))
        print(f"{variant}: {len(columns)} forecasts ({int(columns.fallback.sum())} fallbacks) "
              f"-> {path}")


def _all_reports(cfg: RunConfig) -> list:
    reports = []
    for variant in cfg.variants:
        path = os.path.join(cfg.out_dir, "forecasts", f"{variant}.csv")
        _check_provenance(cfg, path, "forecast")
        groups = score_groups(read_records_csv(path), variant, pit_bins=cfg.pit_bins,
                              interval_level=cfg.interval_level)
        reports.extend(groups.values())
    return reports


def cmd_evaluate(cfg: RunConfig) -> None:
    reports = _all_reports(cfg)
    scores_path = os.path.join(cfg.out_dir, "scores.csv")
    pit_path = os.path.join(cfg.out_dir, "pit.csv")
    _atomic(scores_path, lambda p: write_scores_csv(reports, p, _provenance(cfg, "evaluate")))
    _atomic(pit_path, lambda p: write_pit_csv(reports, p, _provenance(cfg, "evaluate")))
    print(f"scored {len(reports)} (station, variant, horizon) cells -> {scores_path}")


def cmd_report(cfg: RunConfig) -> None:
    scores_path = os.path.join(cfg.out_dir, "scores.csv")
    _check_provenance(cfg, scores_path, "evaluate")
    reports = read_scores_csv(scores_path)
    by_key = {(r.variant, r.station, r.horizon): r for r in reports}
    lines = [f"windcast {__version__} verification report (config {cfg.digest()})", ""]
    for metric in ("mae", "rmse", "crps", "width90"):
        lines.append(format_score_table(reports, metric))
    baseline_variant = PERSISTENCE if PERSISTENCE in cfg.variants else cfg.variants[0]
    lines.append(f"Relative reduction vs {baseline_variant} (percent, overall MAE):")
    for r in reports:
        if r.variant == baseline_variant:
            continue
        base = by_key.get((baseline_variant, r.station, r.horizon))
        if base is None:
            continue
        red = relative_reduction(r, base)["overall"]["mae"]
        text = f"{red:.1f}%" if math.isfinite(red) else "n/a"
        lines.append(f"  {r.station} k={r.horizon} {r.variant}: {text}")
    path = os.path.join(cfg.out_dir, "report.txt")

    def write_report(p):
        with open(p, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    _atomic(path, write_report)
    print(f"wrote {path}")


COMMANDS = {
    "synth": cmd_synth,
    "geowind": cmd_geowind,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}
POOLED = ("synth", "geowind", "forecast")  # the commands that take a job count


def _job_count(flag: int | None, cfg: RunConfig) -> int:
    """--jobs, else $WINDCAST_JOBS, else the config's jobs; like the config's,
    an integer >= 1."""
    if flag is not None:
        name, raw = "--jobs", flag
    elif os.environ.get(JOBS_ENV):
        name, raw = f"${JOBS_ENV}", os.environ[JOBS_ENV]
    else:
        return cfg.jobs
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError([f"{name} must be an integer, got {raw!r}"]) from None
    if jobs < 1:
        raise ConfigError([f"{name} must be >= 1, got {jobs}"])
    return jobs


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so a bad flag
    fails with the same JSON error as a bad config value. argparse builds the
    subcommand parsers from the same class."""

    def error(self, message):
        raise ConfigError([f"{self.prog}: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="windcast",
        description="probabilistic short-term wind speed forecasting pipeline",
    )
    parser.add_argument("--version", action="version", version=f"windcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="run configuration YAML")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--jobs", type=int, default=None,
                       help=f"worker processes (also via ${JOBS_ENV})")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            if cfg.synth is not None and cfg.data_source == "synth":
                import dataclasses

                try:
                    cfg.synth = dataclasses.replace(cfg.synth, seed=args.seed)
                except InvalidInputError as exc:
                    raise ConfigError([f"--seed: {exc}"]) from None
        if args.out is not None:
            cfg.out_dir = args.out
        jobs = _job_count(args.jobs, cfg)

        os.makedirs(cfg.out_dir, exist_ok=True)
        _atomic(os.path.join(cfg.out_dir, "config.yaml"),
                lambda p: dump_config(cfg, p))
        if args.command in POOLED:
            COMMANDS[args.command](cfg, jobs)
        else:
            COMMANDS[args.command](cfg)
        return 0
    except ConfigError as exc:
        json.dump({"error": "ConfigError", "message": str(exc),
                   "violations": exc.violations}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except WindcastError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
