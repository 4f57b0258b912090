"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Criterion 5/8 share one full benchmark pipeline run (session fixture); its
wall time is checked against the stated budget. Criterion 6 needs the real
West Texas mesonet archive and is skipped unless WINDCAST_WEST_TEXAS_DIR
points at it (see README for the expected layout).
"""

import csv
import os
import time

import numpy as np
import pytest
import yaml
from scipy.stats import chi2

from windcast import synth
from windcast.diurnal import fit_empirical, fit_trig, in_window, window
from windcast.geostrophy import MeanRemovalPolicy, estimate_series
from windcast.ingest import read_stations_csv
from windcast.predictive import cdf_values, crps_values, quantile_values
from windcast.series import Network
from windcast.timeutil import epoch_hour, hours_of_day

from conftest import roundtrip_config, run_pipeline
from oracles import crps_numeric


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def _read_scores(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:
            rows.append(row)
    return rows


def _overall(rows, variant, metric):
    """Sample-weighted overall metric across stations for one variant, k=2."""
    total, weight = 0.0, 0
    for row in rows:
        if row["variant"] == variant and row["month"] == "overall" \
                and row["horizon"] == "2":
            n = int(row["n"])
            total += n * float(row[metric])
            weight += n
    assert weight > 0, f"no overall rows for {variant}"
    return total / weight


def test_criterion_1_crps_oracle_agreement():
    start = time.perf_counter()
    ys = np.arange(0.0, 20.5, 2.0)
    worst = 0.0
    count = 0
    for mu in np.arange(-5.0, 15.5, 1.0).tolist():
        for sigma in (0.1, 0.5, 1.0, 2.5, 5.0):
            # one (mu, sigma) per call: the closed form picks its regime by mu/sigma
            oracle = [crps_numeric(mu, sigma, y) for y in ys.tolist()]
            worst = max(worst, float(np.max(np.abs(crps_values(mu, sigma, ys) - oracle))))
            count += ys.size
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-6 and count >= 1000 and elapsed < 10.0,
            f"closed-form vs quadrature CRPS: max |diff| {worst:.2e} over "
            f"{count} triples in {elapsed:.1f}s (need <1e-6, >=1000, <10s)")


def test_criterion_2_quantile_inversion():
    rng = np.random.default_rng(2024)
    ps = np.linspace(0.01, 0.99, 99)
    worst = 0.0
    for _ in range(50):
        mu = float(rng.uniform(-5.0, 15.0))
        sigma = float(rng.uniform(0.1, 5.0))
        qs = quantile_values(mu, sigma, ps)
        worst = max(worst, float(np.max(np.abs(cdf_values(mu, sigma, qs) - ps))))
    _report(2, worst < 1e-10,
            f"|cdf(quantile(p)) - p| max {worst:.2e} over 99 x 50 grid (need <1e-10)")


def test_criterion_3_geostrophic_round_trip():
    series, truth = synth.generate(roundtrip_config(height_noise_m=0.0))
    est = estimate_series(Network.from_series(series), policy=MeanRemovalPolicy.NONE)
    worst = max(float(np.nanmax(np.abs(est.u_g - truth.u_g))),
                float(np.nanmax(np.abs(est.v_g - truth.v_g))))

    noisy_series, noisy_truth = synth.generate(
        roundtrip_config(height_noise_m=1.0))
    noisy = estimate_series(Network.from_series(noisy_series),
                            policy=MeanRemovalPolicy.NONE)
    rmse = float(np.sqrt(np.nanmean((noisy.w_g - noisy_truth.w_g) ** 2)))
    _report(3, worst < 1e-6 and rmse < 0.5,
            f"noiseless max component error {worst:.2e} (need <1e-6); "
            f"1 m height noise w_g RMSE {rmse:.3f} (need <0.5)")


def test_criterion_4_diurnal_exactness_and_leakage():
    t0 = epoch_hour("2008-01-01T00:00")
    times = np.arange(t0, t0 + 24 * 400, dtype=np.int64)
    hod = hours_of_day(times)
    exact = (2.5 + 1.25 * np.sin(2 * np.pi * hod / 24)
             - 0.5 * np.cos(2 * np.pi * hod / 24)
             + 0.75 * np.sin(4 * np.pi * hod / 24)
             + 0.1 * np.cos(4 * np.pi * hod / 24))
    coeffs = fit_trig(hod, exact)
    trig_err = float(np.max(np.abs(coeffs - np.array([2.5, 1.25, -0.5, 0.75, 0.1]))))

    rng = np.random.default_rng(14)
    values = 5.0 + rng.normal(0, 1, times.size)
    issue = t0 + 24 * 300
    leak_free = True
    for method in ("MD", "SMD", "YMD"):
        rows = in_window(window(method, issue, (t0, issue - 24 * 10), 45), times)
        before = fit_empirical(hod[rows], values[rows])
        corrupted = values.copy()
        corrupted[times >= issue] = 999.0
        after = fit_empirical(hod[rows], corrupted[rows])
        leak_free &= before.tobytes() == after.tobytes()
    _report(4, trig_err < 1e-9 and leak_free,
            f"trig coefficient recovery error {trig_err:.2e} (need <1e-9); "
            f"MD/SMD/YMD leakage-free: {leak_free}")


def test_criterion_5_benchmark_skill_ordering(benchmark_run):
    rows = _read_scores(benchmark_run["out"] / "scores.csv")
    pss = _overall(rows, "PSS", "mae")
    tdd = _overall(rows, "TDD", "mae")
    gwmd = _overall(rows, "TDDGW-MD", "mae")
    vs_tdd = 100.0 * (tdd - gwmd) / tdd
    vs_pss = 100.0 * (pss - gwmd) / pss
    elapsed = benchmark_run["elapsed_s"]
    ok = (gwmd < tdd < pss) and vs_tdd >= 5.0 and vs_pss >= 12.0 and elapsed < 900.0
    _report(5, ok,
            f"overall 2-h MAE: TDDGW-MD {gwmd:.3f} < TDD {tdd:.3f} < PSS {pss:.3f}; "
            f"reduction vs TDD {vs_tdd:.1f}% (need >=5), vs PSS {vs_pss:.1f}% "
            f"(need >=12); pipeline wall time {elapsed:.0f}s (budget 900s)")


WEST_TEXAS_ENV = "WINDCAST_WEST_TEXAS_DIR"


@pytest.mark.skipif(WEST_TEXAS_ENV not in os.environ,
                    reason="West Texas mesonet archive not supplied "
                           f"(set {WEST_TEXAS_ENV} to its directory)")
def test_criterion_6_west_texas_reproduction(tmp_path):
    data_dir = os.environ[WEST_TEXAS_ENV]
    targets = ["PICT", "JAYT", "SPUR", "ROAR"]
    all_ids = [m.id for m in read_stations_csv(os.path.join(data_dir, "stations.csv"))]
    gw_ids = [s for s in all_ids if s not in targets] or all_ids
    out = tmp_path / "west-texas"
    config = {
        "seed": 20082010,
        "out_dir": str(out),
        "data": {"source": "csv", "csv": {"dir": data_dir}},
        "stations": targets,
        "gw_stations": gw_ids,
        "horizons": [2],
        "variants": ["PSS", "TDD", "TDDGW-MD"],
        "train": {"start": "2008-01-01T00:00", "end": "2010-01-01T00:00"},
        "test": {"start": "2010-01-01T00:00", "end": "2011-01-01T00:00"},
        "window_days": 45,
        "refit_hours": 24,
        "restarts": 1,
        "tz_offset_hours": -6,
        "mean_removal": "monthly",
        "jobs": 2,
    }
    path = tmp_path / "wt-config.yaml"
    path.write_text(yaml.safe_dump(config))
    run_pipeline(path, out, commands=("geowind", "forecast", "evaluate", "report"))
    rows = _read_scores(out / "scores.csv")
    reductions = []
    for station in targets:
        pss = [float(r["mae"]) for r in rows
               if r["variant"] == "PSS" and r["station"] == station
               and r["month"] == "overall"][0]
        gwmd = [float(r["mae"]) for r in rows
                if r["variant"] == "TDDGW-MD" and r["station"] == station
                and r["month"] == "overall"][0]
        reductions.append(100.0 * (pss - gwmd) / pss)
    lo, hi = 13.9 - 3.0, 22.4 + 3.0
    ok = all(lo <= r <= hi for r in reductions)
    _report(6, ok,
            f"per-station 2-h MAE reduction vs PSS {['%.1f' % r for r in reductions]}%"
            f" must lie in [{lo:.1f}, {hi:.1f}]%")


def test_criterion_7_pit_calibration():
    rng = np.random.default_rng(20107)
    n = 10000
    mu = rng.uniform(0.5, 12.0, n)
    sigma = rng.uniform(0.3, 3.0, n)
    u = rng.uniform(1e-12, 1.0 - 1e-12, n)
    draws = quantile_values(mu, sigma, u)  # observations from their own laws
    pit = cdf_values(mu, sigma, draws)
    counts, _ = np.histogram(pit, bins=10, range=(0.0, 1.0))
    expected = n / 10.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    threshold = float(chi2.ppf(0.95, df=9))
    _report(7, stat < threshold,
            f"10-bin PIT chi-square {stat:.2f} < {threshold:.2f} "
            f"(n={n}, fixed seed)")


def test_criterion_8_verification_identities(benchmark_run):
    rows = _read_scores(benchmark_run["out"] / "scores.csv")
    rmse_ge_mae = all(
        float(r["rmse"]) >= float(r["mae"]) - 1e-12
        for r in rows if r["rmse"] and r["mae"])
    widths_positive = all(float(r["width90"]) > 0.0 for r in rows if r["width90"])
    tdd_width = _overall(rows, "TDD", "width90")
    gwmd_width = _overall(rows, "TDDGW-MD", "width90")
    sharper = gwmd_width < tdd_width
    ok = rmse_ge_mae and widths_positive and sharper
    _report(8, ok,
            f"RMSE>=MAE on every cell: {rmse_ge_mae}; widths positive: "
            f"{widths_positive}; 90% width TDDGW-MD {gwmd_width:.3f} < TDD "
            f"{tdd_width:.3f} (sharpness reduction "
            f"{100 * (tdd_width - gwmd_width) / tdd_width:.1f}%)")


def test_criterion_9_determinism(tmp_path):
    from test_cli import small_config  # same compact pipeline configuration

    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = small_config(out, variants=["PSS", "TDDGW-MD"])
        cfg["test"]["end"] = "2008-05-04T00:00"
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        run_pipeline(path, out, commands=("synth", "geowind", "forecast", "evaluate"))
        blobs.append({
            "forecast_pss": (out / "forecasts/PSS.csv").read_bytes(),
            "forecast_gw": (out / "forecasts/TDDGW-MD.csv").read_bytes(),
            "scores": (out / "scores.csv").read_bytes(),
        })
    same = all(blobs[0][key] == blobs[1][key] for key in blobs[0])
    _report(9, same, "two identically configured pipeline runs produced "
                     f"byte-identical forecast and score CSVs: {same}")
