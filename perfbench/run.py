"""windcast pipeline benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rolling-fit|archive-io \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is a run config for the acceptance-benchmark generator
(12-station barometer ring, 4 inner targets S01-S04, train 2008-2009); a
run's archive seed sets both ``seed`` and ``data.synth.seed``. See
``metric_map.json`` for why each workload exists and which end-to-end
metric each layer metric should move.

``--trace 0`` (end to end): one pass runs ``windcast synth`` (the set-up)
and then the workload's stages on each of the workload's archives, whose
seeds derive from ``--seed``. Every stage is its own
``python -m windcast.cli <stage>`` process, just as an operator runs them.
Passes repeat until ``--seconds`` have passed. Timings are medians over all
pipelines, and the quality metrics pool the scores of the archives: with
one archive, the work of the fits and the forecast errors vary too much
from seed to seed for a steady figure. CPU time and peak RSS come from
``wait4`` on each stage process, which includes its pool workers.

``--trace 1`` (per layer): on the archive of ``--seed`` itself, ``tracer.py``
runs synth and the stages in one process with one job and records spans
around the calls into each module. The same one-process run without the
layer spans, on the same data, gives the tracing overhead, and an untraced
forecast stage process with the workload's jobs gives pool use.

Both modes check the outputs (see ``check_*``) and print, last, one JSON
line ``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts
forecast records issued, ``failed`` those that fell back to persistence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime
from importlib import metadata
from pathlib import Path

from layers import describe, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 424242
DATASET_STRIDE = 1_000_000  # seed offset between a run's synthetic archives
PROCESS_LIMIT_S = 150  # a stage still running this long is killed

TARGETS = ["S01", "S02", "S03", "S04"]
GW_STATIONS = [f"S{i:02d}" for i in range(5, 17)]
TRAIN = {"start": "2008-01-01T00:00", "end": "2010-01-01T00:00"}
# synth.benchmark_config, except for the archive length
SYNTH = {"n_stations": 12, "n_inner": 4, "height_noise_m": 0.5}
PIPELINE = ("geowind", "forecast", "evaluate", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    days: int  # synthetic archive length from 2008-01-01
    variants: tuple
    horizons: tuple
    test: tuple  # ISO hours, end exclusive
    stages: tuple  # after synth
    archives: int  # synthetic archives per end-to-end run
    jobs: int = 2

    @property
    def issue_hours(self) -> int:
        start, end = (datetime.fromisoformat(t) for t in self.test)
        return int((end - start).total_seconds() // 3600)

    def expected_records(self) -> int:
        return self.issue_hours * len(self.horizons) * len(TARGETS) * len(self.variants)


# Archives start 2008-01-01 and end a few days after the test period: 740 days
# reach 2010-01-10, 913 days 2010-07-02.
WORKLOADS = {w.name: w for w in (
    Workload("rolling-fit", 740, ("PSS", "TDD", "TDDGW-MD"), (2,),
             ("2010-01-01T00:00", "2010-01-06T00:00"), PIPELINE, archives=3),
    Workload("archive-io", 913, ("PSS",), (1, 2, 3, 4, 5, 6),
             ("2010-01-01T00:00", "2010-07-01T00:00"), PIPELINE, archives=2),
)}

ALL_VARIANTS = sorted({v for wl in WORKLOADS.values() for v in wl.variants})

# Machine-independent counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = ("optim.evals_total", "predictive.crps_core_rows", "model.bic_score_calls",
                "model.fits", "ingest.rows_read", "forecast.records")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


# ---------------------------------------------------------------------------
# running stages


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WINDCAST_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd, log_path, label) -> StageRun:
    """Run cmd to completion; wall time, CPU and peak RSS include its children."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_env(),
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(PROCESS_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(label, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode)


def run_stage(stage, config_path, log_path) -> StageRun:
    cmd = [sys.executable, "-m", "windcast.cli", stage, "--config", str(config_path)]
    return run_process(cmd, log_path, stage)


def run_stages(stages, config_path, log_path) -> list:
    runs = []
    for stage in stages:
        runs.append(run_stage(stage, config_path, log_path))
        if runs[-1].code != 0:
            break
    return runs


def write_config(wl: Workload, seed: int, out_dir: Path) -> Path:
    """The run config, written as JSON (which YAML loaders accept)."""
    cfg = {
        "seed": seed,
        "out_dir": str(out_dir),
        "data": {"source": "synth", "synth": dict(SYNTH, seed=seed, days=wl.days)},
        "stations": TARGETS,
        "gw_stations": GW_STATIONS,
        "horizons": list(wl.horizons),
        "variants": list(wl.variants),
        "train": TRAIN,
        "test": {"start": wl.test[0], "end": wl.test[1]},
        "window_days": 45,
        "refit_hours": 24,
        "restarts": 1,
        "tz_offset_hours": -6,
        "mean_removal": "none",
        "jobs": wl.jobs,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run.yaml"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# outputs and correctness gates


def stripped(path: Path) -> bytes:
    """File bytes without '#' provenance lines (they carry the config digest)."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + stripped(p) + b"\0")
    return h.hexdigest()


@dataclass
class Outputs:
    digests: dict  # data / forecasts / scores -> sha256 of header-stripped bytes
    records: int
    fallbacks: int
    scores: list  # rows of scores.csv


def read_outputs(out_dir: Path, wl: Workload) -> Outputs:
    forecasts = [out_dir / "forecasts" / f"{v}.csv" for v in wl.variants]
    records = fallbacks = 0
    for path in forecasts:
        lines = stripped(path).decode().splitlines()[1:]
        records += len(lines)
        fallbacks += sum(line.split(",")[6] == "1" or line.split(",")[5] == ""
                         for line in lines)
    score_lines = stripped(out_dir / "scores.csv").decode().splitlines()
    header = score_lines[0].split(",")
    scores = [dict(zip(header, line.split(","))) for line in score_lines[1:]]
    return Outputs(
        digests={"data": digest(sorted((out_dir / "data").iterdir())),
                 "forecasts": digest(forecasts),
                 "scores": digest([out_dir / "scores.csv"])},
        records=records, fallbacks=fallbacks, scores=scores)


def overall(scores, metric, variant=None, horizon=None, probabilistic=False):
    """Sample-weighted mean of metric over the 'overall' score rows."""
    total = weight = 0.0
    for row in scores:
        if row["month"] != "overall" or (variant and row["variant"] != variant):
            continue
        if horizon is not None and int(row["horizon"]) != horizon:
            continue
        if probabilistic and row["crps"] == "":
            continue
        n = int(row["n"])
        total += n * float(row[metric])
        weight += n
    return total / weight if weight else math.nan


def mean_crps(scores) -> float:
    """Mean CRPS over probabilistic cells; with none (archive-io), the CRPS of
    the point forecasts, which for a point forecast is its absolute error."""
    value = overall(scores, "crps", probabilistic=True)
    return value if math.isfinite(value) else overall(scores, "mae")


def check_stages(runs, label) -> list:
    return [f"{label}: stage {r.stage} exited {r.code}" for r in runs if r.code != 0]


def check_records(out: Outputs, wl: Workload, label) -> list:
    want = wl.expected_records()
    if out.records != want:
        return [f"{label}: {out.records} forecast records, expected {want} "
                f"({wl.issue_hours} issue hours x {len(wl.horizons)} horizons x "
                f"{len(TARGETS)} stations x {len(wl.variants)} variants)"]
    return []


def check_same(outputs: dict, keys) -> list:
    """Header-stripped outputs must be byte-identical across the given runs."""
    failures = []
    labels = list(outputs)
    for key in keys:
        values = {label: outputs[label].digests[key] for label in labels}
        if len(set(values.values())) > 1:
            failures.append(f"{key} differ between runs: {values}")
    return failures


def check_skill(scores, wl: Workload) -> list:
    """Acceptance criterion 5 on rolling-fit: 2-h MAE TDDGW-MD < TDD < PSS,
    at least 5% below TDD and 12% below PSS."""
    if wl.name != "rolling-fit":
        return []
    pss, tdd, gw = (overall(scores, "mae", v, 2) for v in ("PSS", "TDD", "TDDGW-MD"))
    vs_tdd, vs_pss = 100 * (tdd - gw) / tdd, 100 * (pss - gw) / pss
    print(f"skill: 2-h MAE PSS {pss:.4f} TDD {tdd:.4f} TDDGW-MD {gw:.4f}; "
          f"TDDGW-MD {vs_tdd:.1f}% below TDD, {vs_pss:.1f}% below PSS")
    if gw < tdd < pss and vs_tdd >= 5.0 and vs_pss >= 12.0:
        return []
    return [f"skill ordering failed: PSS {pss:.4f} TDD {tdd:.4f} TDDGW-MD {gw:.4f} "
            f"({vs_tdd:.1f}% vs TDD, {vs_pss:.1f}% vs PSS)"]


def check_recorded_digests(out: Outputs, wl: Workload, seed: int) -> list:
    """archive-io outputs must match the digests recorded at the seed commit."""
    if wl.name != "archive-io":
        return []
    recorded = json.loads((BENCH / "digests.json").read_text())["archive-io"].get(str(seed))
    if recorded is None:
        print(f"digests: none recorded for seed {seed}; not checked")
        return []
    bad = [k for k, v in recorded.items() if out.digests.get(k) != v]
    print(f"digests: data, forecasts, scores {'differ: ' + str(bad) if bad else 'match'} "
          f"the recorded ones for seed {seed}")
    return [f"{k} digest {out.digests.get(k)} != recorded {recorded[k]}" for k in bad]


def code_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_ledger(wl: Workload, seed: int, kind: str, values: dict) -> list:
    """Compare with the previous run of the same code, seed and workload."""
    path = WORK / "ledger" / f"{wl.name}-{seed}-{code_digest()}-{kind}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = {k: (before[k], values.get(k)) for k in before if before[k] != values.get(k)}
        print(f"ledger: {kind} {'differ from' if diff else 'repeat'} the previous run "
              f"of this code and seed")
        return [f"{kind} changed between runs of the same code and seed: {diff}"] if diff else []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True))
    return []


# ---------------------------------------------------------------------------
# statistics and reporting


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {"seed": seed, "git_sha": sha, "code_sha": code_digest(),
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy")}


# ---------------------------------------------------------------------------
# end to end (--trace 0)


def dataset_seeds(wl: Workload, seed: int) -> list:
    """The synthetic archives one end-to-end run covers; the first is --seed."""
    return [seed + DATASET_STRIDE * i for i in range(wl.archives)]


def run_end_to_end(wl: Workload, seed: int, seconds: float):
    base = fresh_dir(WORK / wl.name / "e2e")
    log = base / "stages.log"
    setups, pipelines, outputs, failures = [], [], {}, []
    start = time.perf_counter()
    while not pipelines or time.perf_counter() - start < seconds:
        for data_seed in dataset_seeds(wl, seed):
            label = f"seed {data_seed} pass {len(pipelines) // wl.archives}"
            out_dir = base / "rep"
            config = write_config(wl, data_seed, fresh_dir(out_dir))
            setup = run_stage("synth", config, log)
            runs = run_stages(wl.stages, config, log) if setup.code == 0 else []
            failures += check_stages([setup] + runs, label)
            if failures or len(runs) != len(wl.stages):
                return failures + [f"{label} did not finish; see {log}"], None, {}
            setups.append(setup)
            pipelines.append(runs)
            out = read_outputs(out_dir, wl)
            failures += check_records(out, wl, label)
            if data_seed in outputs:
                failures += check_same({"first pass": outputs[data_seed], label: out},
                                       ("data", "forecasts", "scores"))
            else:
                outputs[data_seed] = out
                failures += check_recorded_digests(out, wl, data_seed)
                failures += check_ledger(wl, data_seed, "outputs", out.digests)
            shutil.rmtree(out_dir)

    scores = [row for out in outputs.values() for row in out.scores]
    failures += check_skill(scores, wl)
    setup_s = [s.wall_s for s in setups]
    print(describe("setup_s (synth)", setup_s))
    if max(setup_s) > 1.1 * min(setup_s):
        print(f"setup_s unsettled: synth took {min(setup_s):.3f} to {max(setup_s):.3f} s")
    for j, stage in enumerate(wl.stages):
        print(describe(f"stage {stage}", [runs[j].wall_s for runs in pipelines]))
    records = wl.expected_records()
    forecast_j = wl.stages.index("forecast")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median(sum(r.wall_s for r in runs) for runs in pipelines),
        "pipeline_cpu_s": statistics.median(sum(r.cpu_s for r in runs) for runs in pipelines),
        "forecasts_per_s": statistics.median(records / runs[forecast_j].wall_s
                                             for runs in pipelines),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs) for runs in pipelines),
        "mean_mae": overall(scores, "mae"),
        "mean_crps": mean_crps(scores),
    }
    fallbacks = sum(out.fallbacks for out in outputs.values())
    print(f"pipelines: {len(pipelines)} over seeds {sorted(outputs)}; {records} records "
          f"each; fallbacks {fallbacks}")
    return failures, metrics, {"attempted": records * len(outputs), "failed": fallbacks}


# ---------------------------------------------------------------------------
# per layer (--trace 1)


def import_time(log) -> float:
    runs = [run_process([sys.executable, "-c", "import windcast.cli"], log, "import")
            for _ in range(3)]
    if any(r.code for r in runs):
        raise BenchError(f"importing windcast.cli failed; see {log}")
    print(describe("cli.import_s", [r.wall_s for r in runs]))
    return statistics.median(r.wall_s for r in runs)


def run_in_process(config, stages, spans_path, log, *flags):
    """Run the stages in one tracer.py process; its spans, or None on failure."""
    run = run_process([sys.executable, str(BENCH / "tracer.py"), "--config", str(config),
                       "--stages", ",".join(stages), "--spans", str(spans_path), *flags],
                      log, "tracer")
    if run.code != 0 or not spans_path.exists():
        return None
    return json.loads(spans_path.read_text())


def pipeline_seconds(spans) -> float:
    """Time in the stage spans after synth."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0 and s[0] != "cli.synth")


def copy_inputs(src: Path, dst: Path, names):
    for name in names:
        if (src / name).is_dir():
            shutil.copytree(src / name, dst / name)
        elif (src / name).exists():
            shutil.copy2(src / name, dst / name)


def run_layers(wl: Workload, seed: int):
    base = fresh_dir(WORK / wl.name / "trace")
    log = base / "stages.log"
    failures = []
    import_s = import_time(log)

    traced_dir = base / "traced"
    config = write_config(wl, seed, traced_dir)
    spans_path = base / "spans.json"
    trace = run_in_process(config, ("synth",) + wl.stages, spans_path, log)
    if trace is None:
        return [f"traced run failed; see {log}"], None, {}
    for name in trace["missing"]:
        print(f"trace: target {name} not found; its calls are not timed")

    plain_dir = base / "untraced"
    config1 = write_config(wl, seed, plain_dir)
    copy_inputs(traced_dir, plain_dir, ["data"])
    plain = run_in_process(config1, wl.stages, plain_dir / "spans.json", log,
                           "--stages-only")

    pool_dir = base / f"untraced-{wl.jobs}jobs"
    config2 = write_config(wl, seed, pool_dir)
    copy_inputs(traced_dir, pool_dir, ["data", "geowind.csv", "models"])
    pool = run_stages(["forecast"], config2, log)

    failures += check_stages(pool, f"untraced {wl.jobs} jobs")
    if plain is None:
        failures.append(f"untraced one-process run failed; see {log}")
    if failures:
        return failures, None, {}
    outputs = {"traced": read_outputs(traced_dir, wl), "untraced": read_outputs(plain_dir, wl)}
    failures += check_records(outputs["traced"], wl, "traced")
    failures += check_same(outputs, ("data", "forecasts", "scores"))
    pool_digest = digest([pool_dir / "forecasts" / f"{v}.csv" for v in wl.variants])
    if pool_digest != outputs["traced"].digests["forecasts"]:
        failures.append(f"forecasts with {wl.jobs} jobs differ from the 1-job run")
    failures += check_skill(outputs["traced"].scores, wl)
    failures += check_recorded_digests(outputs["traced"], wl, seed)

    metrics, notes = layer_metrics(trace["spans"], ALL_VARIANTS)
    metrics["cli.import_s"] = import_s
    forecast = pool[0]
    metrics["cli.forecast_cpu_util"] = forecast.cpu_s / (wl.jobs * forecast.wall_s)
    metrics["cli.forecast_idle_s"] = wl.jobs * forecast.wall_s - forecast.cpu_s
    plain_s = pipeline_seconds(plain["spans"])
    metrics["trace.overhead_frac"] = pipeline_seconds(trace["spans"]) / plain_s - 1.0
    for line in notes:
        print(line)
    print(f"untraced one-process pipeline {plain_s:.3f} s; forecast with {wl.jobs} jobs "
          f"{forecast.wall_s:.3f} s wall, {forecast.cpu_s:.3f} s CPU")

    failures += check_ledger(wl, seed, "counts", {k: metrics[k] for k in EXACT_COUNTS})
    for d in (traced_dir, plain_dir, pool_dir):
        shutil.rmtree(d, ignore_errors=True)
    first = outputs["traced"]
    return failures, metrics, {"attempted": first.records, "failed": first.fallbacks}


# ---------------------------------------------------------------------------


def load_contract() -> dict:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    interaction = json.loads((BENCH / "metric_map.json").read_text())
    unmapped = [m["name"] for m in contract["per_layer"]
                if m["name"] not in interaction["per_layer"]]
    if unmapped:
        raise BenchError(f"per-layer metrics missing from metric_map.json: {unmapped}")
    return contract


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="windcast pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "windcast" / "cli.py").is_file():
            raise BenchError(f"no windcast sources under {SRC}")
        contract = load_contract()
        wl = WORKLOADS[args.workload]
        print(json.dumps({"environment": environment(args.seed), "workload": wl.name,
                          "trace": args.trace}))
        if args.trace:
            failures, metrics, counts = run_layers(wl, args.seed)
            wanted = contract["per_layer"]
        else:
            failures, metrics, counts = run_end_to_end(wl, args.seed, args.seconds)
            wanted = contract["end_to_end"]
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if metrics is None:
        sys.stderr.write("perfbench: the pipeline did not complete\n")
        return 1
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in ((m["name"], m["unit"]) for m in wanted)}
    for name, entry in result.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failures, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
