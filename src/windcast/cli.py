"""Command-line front end.

Subcommands chain through files under the run's output directory:

    synth                          -> <out>/data/{stations.csv, <ID>.csv, truth.csv}
    geowind   data/                -> <out>/geowind.csv
    forecast  data/, [geowind.csv] -> <out>/forecasts/<variant>.csv
    evaluate  forecasts/           -> <out>/scores.csv, <out>/pit.csv
    report    scores.csv           -> <out>/report.txt

Each CSV a stage writes under ``<out>`` gets a sidecar of its column arrays
in ``<out>/cache/``, which a later stage reads instead of the text while the
bytes match (``csvio``); the cache is safe to delete at any time.

forecast reads only the station fields its variants use, and geowind.csv
only when one of them uses the geostrophic wind (``model.forecast_inputs``):
a run without a TDDGW variant needs no geowind stage.

Every stage reads its inputs in the calling process. With more than one
job, synth opens a pool of worker processes that writes the station CSVs,
one task per station, and a forecast that fits a model opens one, once its
inputs are read, that runs the lag selection and rolling fits, one task
per (fitted variant, station group): each variant's targets are split, in
config order, into ceil(jobs / fitted variants) contiguous groups, whose
stations share the variant's residual states and candidate pools. The
model data reach each fit worker once, through the pool's initializer, and
no task carries them. Nothing else runs in a pool. Lags are selected
afresh by every forecast run, deterministically from the config's training
period. evaluate refuses forecasts, and report scores, that another config
wrote, and a forecast that reads geowind.csv one estimated under other
geowind settings (``_stage_digest``).

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
from .csvio import SIDECAR_SUFFIX, file_sha256
from .errors import (ConfigError, InsufficientDataError, InvalidInputError, LoadError,
                     WindcastError)
from .forecast import ForecastColumns, read_records_csv, run_rolling, write_records_csv
from .geostrophy import GeoWindSeries, estimate_series
from .ingest import load_network_dir
from .model import ModelData, PERSISTENCE, forecast_inputs
from .series import Network
from .synth import write_dataset
from .verification import (
    SCORE_METRICS,
    format_score_table,
    read_scores_csv,
    relative_reduction,
    score_groups,
    write_pit_csv,
    write_scores_csv,
)

JOBS_ENV = "WINDCAST_JOBS"
# The station fields (ingest roles) geowind reads, which estimate_series
# uses; forecast's depend on its variants (model.forecast_inputs).
GEOWIND_ROLES = ("temperature", "pressure")


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


def _cache(cfg: RunConfig) -> str:
    """The directory of the sidecars of the CSVs written under ``out_dir``."""
    return os.path.join(cfg.out_dir, "cache")


def _atomic(path, write_fn, cache=None):
    """``write_fn(tmp)``, then ``tmp`` moved to ``path``. A CSV written with
    its sidecar in ``cache`` that replaces other bytes takes the old bytes'
    sidecar with it, so a rerun under another config leaves none behind."""
    old = file_sha256(path) if cache is not None and os.path.exists(path) else None
    tmp = f"{path}.tmp"
    write_fn(tmp)
    os.replace(tmp, path)
    if old is not None and file_sha256(path) != old:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cache, old + SIDECAR_SUFFIX))


def _stage_pool(jobs: int, initializer=None, initargs: tuple = ()):
    """The one worker pool of a stage, or a null context for one job. Each
    worker runs ``initializer(*initargs)`` before its first task, so what
    every task reads reaches a worker once: inherited under fork, pickled
    once per worker under spawn or forkserver. Only a pool imports
    multiprocessing."""
    if jobs <= 1:
        return contextlib.nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs, initializer=initializer, initargs=initargs)


def _map(pool, fn, tasks: list) -> list:
    """``fn(*task)`` for each of ``tasks``, results in task order."""
    return list(pool.map(fn, *zip(*tasks))) if pool else [fn(*t) for t in tasks]


def _data_dir(cfg: RunConfig) -> str:
    if cfg.data_source == "csv":
        return cfg.csv_dir
    return os.path.join(cfg.out_dir, "data")


def _load_network(cfg: RunConfig, station_ids, roles) -> Network:
    directory = _data_dir(cfg)
    if not os.path.isdir(directory):
        raise LoadError(
            f"data directory {directory!r} not found"
            + (" (run the synth command first)" if cfg.data_source == "synth" else "")
        )
    # nothing writes sidecars for the files under data.csv.dir, so they are not hashed
    cache = _cache(cfg) if cfg.data_source == "synth" else None
    series = load_network_dir(directory, cfg.csv_schema, station_ids, roles, cache=cache)
    return Network.from_series(series)


def _load_model_data(cfg: RunConfig) -> ModelData:
    """The station fields and geowind.csv that the run's variants use
    (``forecast_inputs``). A geowind.csv estimated under other geowind
    settings is refused, and one that no variant uses is not opened."""
    roles, reads_gw = forecast_inputs(cfg.variants)
    geowind = None
    if reads_gw:
        gw_path = os.path.join(cfg.out_dir, "geowind.csv")
        _check_provenance(cfg, gw_path, "geowind")
        geowind = GeoWindSeries.from_csv(gw_path, cache=_cache(cfg))
    network = _load_network(cfg, cfg.stations, roles)
    # reordered to config order, which the candidate pools' columns follow
    return ModelData.from_network(network, geowind, cfg.stations, cfg.tz_offset_hours)


def cmd_synth(cfg: RunConfig) -> None:
    if cfg.data_source != "synth":
        raise ConfigError(["synth command requires data.source == 'synth'"])
    out = os.path.join(cfg.out_dir, "data")
    with _stage_pool(cfg.jobs) as pool:
        write_dataset(cfg.synth, out, pool, cache=_cache(cfg))
    print(f"wrote synthetic dataset ({cfg.synth.n_stations} stations, "
          f"{cfg.synth.days} days) to {out}")


def cmd_geowind(cfg: RunConfig) -> None:
    series = estimate_series(_load_network(cfg, cfg.gw_stations, GEOWIND_ROLES),
                             cfg.mean_removal, cfg.min_stations)
    n_ok = int((series.n_stations >= cfg.min_stations).sum())
    if not n_ok:
        schema = cfg.csv_schema
        raise InsufficientDataError(
            f"estimated the geostrophic wind for 0/{series.n} hours; an hour needs "
            f"min_stations={cfg.min_stations} stations with an hourly temperature and pressure, "
            f"and an hourly value needs ceil(min_fraction={schema.min_fraction} x "
            f"expected_per_hour={schema.expected_per_hour}) = {schema.min_records} records")
    path, cache = os.path.join(cfg.out_dir, "geowind.csv"), _cache(cfg)
    _atomic(path, lambda p: series.to_csv(p, _provenance(cfg, "geowind"), cache=cache), cache)
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


#: The model data that the fit tasks of the running forecast read (``_hold``).
_fit_data: ModelData | None = None


def _hold(data: ModelData | None) -> None:
    """Set the model data that ``_fit`` reads: the fit pool's initializer, and
    a call in the calling process for one job."""
    global _fit_data
    _fit_data = data


def _fit(variant: str, stations: list, horizons: list, train: tuple, test: tuple,
         window_days: int, refit_hours: int) -> list:
    """One fit task: ``run_rolling`` of a fitted variant at a station group
    on the held model data."""
    return run_rolling(_fit_data, variant, stations, horizons, train, test, window_days,
                       refit_hours)


def cmd_forecast(cfg: RunConfig) -> None:
    """PSS is computed here; only the variants that fit models go to the pool,
    one task per (variant, station group). The pool opens once the inputs
    are read, and only for such a task. The tasks carry no data: the pool's
    initializer hands each worker the model data once, and one job holds it
    here while the same tasks run in turn. A variant's station columns leave
    ``results`` as they are joined, so the parts and the join are never held
    together."""
    train = (cfg.train_start, cfg.train_end)
    test = (cfg.test_start, cfg.test_end)
    data = _load_model_data(cfg)

    results: dict[tuple, ForecastColumns] = {}
    fit_keys, fit_tasks = [], []
    for variant in cfg.variants:
        if variant == PERSISTENCE:
            columns = run_rolling(data, variant, cfg.stations, cfg.horizons, train, test,
                                  cfg.window_days, cfg.refit_hours)
            results.update(((variant, st), c) for st, c in zip(cfg.stations, columns))
            continue
        for group in _station_groups(cfg, cfg.jobs):
            fit_keys.append((variant, group))
            fit_tasks.append((variant, group, list(cfg.horizons), train, test,
                              cfg.window_days, cfg.refit_hours))
    if fit_tasks:
        # the CRPS fits and the forecast medians use it; imported before
        # forked workers start, they share it
        import scipy.special  # noqa: F401

        _hold(data)
        try:
            with _stage_pool(cfg.jobs, _hold, (data,)) as pool:
                for (variant, group), columns in zip(fit_keys, _map(pool, _fit, fit_tasks)):
                    results.update(((variant, st), c) for st, c in zip(group, columns))
        finally:
            _hold(None)

    os.makedirs(os.path.join(cfg.out_dir, "forecasts"), exist_ok=True)
    cache = _cache(cfg)
    for variant in cfg.variants:
        columns = ForecastColumns.concat([results.pop((variant, s)) for s in cfg.stations])
        path = os.path.join(cfg.out_dir, "forecasts", f"{variant}.csv")
        _atomic(path, lambda p, c=columns: write_records_csv(c, p, _provenance(cfg, "forecast"),
                                                             cache=cache), cache)
        print(f"{variant}: {len(columns)} forecasts ({int(columns.fallback.sum())} fallbacks) "
              f"-> {path}")


def _all_reports(cfg: RunConfig) -> list:
    reports = []
    for variant in cfg.variants:
        path = os.path.join(cfg.out_dir, "forecasts", f"{variant}.csv")
        _check_provenance(cfg, path, "forecast")
        reports.extend(score_groups(read_records_csv(path, cache=_cache(cfg)), variant).values())
    return reports


def cmd_evaluate(cfg: RunConfig) -> None:
    reports = _all_reports(cfg)
    scores_path = os.path.join(cfg.out_dir, "scores.csv")
    pit_path = os.path.join(cfg.out_dir, "pit.csv")
    lines, cache = _provenance(cfg, "evaluate"), _cache(cfg)
    _atomic(scores_path, lambda p: write_scores_csv(reports, p, lines, cache=cache), cache)
    _atomic(pit_path, lambda p: write_pit_csv(reports, p, lines, cache=cache), cache)
    print(f"scored {len(reports)} (station, variant, horizon) cells -> {scores_path}")


def cmd_report(cfg: RunConfig) -> None:
    scores_path = os.path.join(cfg.out_dir, "scores.csv")
    _check_provenance(cfg, scores_path, "evaluate")
    reports = read_scores_csv(scores_path, cache=_cache(cfg))
    by_key = {(r.variant, r.station, r.horizon): r for r in reports}
    lines = [f"windcast {__version__} verification report (config {cfg.digest()})", ""]
    for metric in SCORE_METRICS:
        lines.append(format_score_table(reports, metric))
    baseline_variant = PERSISTENCE if PERSISTENCE in cfg.variants else cfg.variants[0]
    lines.append(f"Relative reduction vs {baseline_variant} (percent, overall MAE):")
    for r in reports:
        if r.variant == baseline_variant:
            continue
        base = by_key.get((baseline_variant, r.station, r.horizon))
        if base is None:
            continue
        red = relative_reduction(r.overall["mae"], base.overall["mae"])
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
            if not args.out:
                raise ConfigError(["--out must be a nonempty path"])
            cfg.out_dir = args.out
        cfg.jobs = _job_count(args.jobs, cfg)

        os.makedirs(cfg.out_dir, exist_ok=True)
        _atomic(os.path.join(cfg.out_dir, "config.yaml"),
                lambda p: dump_config(cfg, p))
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
