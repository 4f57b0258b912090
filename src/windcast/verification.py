"""Forecast verification: MAE/RMSE/CRPS, PIT histograms and sharpness.

Scores are reported per calendar month of the valid time and overall;
overall values are the sample-weighted aggregates of the monthly cells
(pooled squared errors for RMSE), so the two views are consistent by
construction. Probabilistic scores (CRPS, PIT, interval width) cover the
records that carry a distribution; point scores cover every record with a
usable point forecast and observation. Fallback records are scored too,
which matches the headline treatment of full test samples; to leave them
out, score ``cols.take(~cols.fallback)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .csvio import read_columns, write_columns
from .errors import EmptyReportError, InvalidInputError
from .forecast import ForecastColumns
from .predictive import cdf_values, crps_values, quantile_values
from .timeutil import format_month, month_index


@dataclass
class CellScores:
    """The monthly and overall scores of one (station, variant, horizon) cell:
    what scores.csv holds."""

    station: str
    variant: str
    horizon: int
    months: tuple  # month indices (months since 1970-01), sorted
    n_by_month: np.ndarray
    mae_by_month: np.ndarray
    rmse_by_month: np.ndarray
    crps_by_month: np.ndarray
    width_by_month: np.ndarray
    n_scored: int
    mae: float
    rmse: float
    crps: float
    mean_width: float


@dataclass
class ScoreReport(CellScores):
    """Verification scores for one (station, variant, horizon) cell."""

    n_prob: int
    interval_level: float
    pit_counts: np.ndarray
    n_fallback: int


def score(
    records: ForecastColumns,
    variant: str,
    pit_bins: int = 10,
    interval_level: float = 0.90,
) -> ScoreReport:
    """Score a homogeneous set of records (one station and horizon)."""
    if not len(records):
        raise EmptyReportError("no forecast records to score")
    if np.unique(records.station).size > 1 or np.unique(records.horizon).size > 1:
        raise InvalidInputError("score() expects records for one station and horizon")

    usable = records.take(np.isfinite(records.observed) & np.isfinite(records.point))
    if not len(usable):
        raise EmptyReportError("no records with both a point forecast and an observation")

    obs = usable.observed
    pts = usable.point
    valid_month = month_index(usable.issue_time + usable.horizon)
    abs_err = np.abs(obs - pts)
    sq_err = (obs - pts) ** 2

    months = tuple(int(m) for m in np.unique(valid_month))
    n_by_month = np.zeros(len(months), dtype=np.int64)
    mae_m = np.full(len(months), np.nan)
    rmse_m = np.full(len(months), np.nan)
    crps_m = np.full(len(months), np.nan)
    width_m = np.full(len(months), np.nan)

    prob = np.isfinite(usable.mu) & np.isfinite(usable.sigma)
    crps_all = np.full(len(usable), np.nan)
    pit_all = np.full(len(usable), np.nan)
    width_all = np.full(len(usable), np.nan)
    if np.any(prob):
        mu = usable.mu[prob]
        sg = usable.sigma[prob]
        yy = obs[prob]
        crps_all[prob] = crps_values(mu, sg, yy)
        pit_all[prob] = cdf_values(mu, sg, yy)
        half = (1.0 - interval_level) / 2.0
        width_all[prob] = (quantile_values(mu, sg, 1.0 - half)
                           - quantile_values(mu, sg, half))

    for i, m in enumerate(months):
        sel = valid_month == m
        n_by_month[i] = sel.sum()
        mae_m[i] = abs_err[sel].mean()
        rmse_m[i] = math.sqrt(sq_err[sel].mean())
        psel = sel & prob
        if np.any(psel):
            crps_m[i] = crps_all[psel].mean()
            width_m[i] = width_all[psel].mean()

    n_prob = int(prob.sum())
    pit_counts, _ = np.histogram(pit_all[prob], bins=pit_bins, range=(0.0, 1.0))
    return ScoreReport(
        station=str(usable.station[0]),
        variant=variant,
        horizon=int(usable.horizon[0]),
        months=months,
        n_by_month=n_by_month,
        mae_by_month=mae_m,
        rmse_by_month=rmse_m,
        crps_by_month=crps_m,
        width_by_month=width_m,
        n_scored=len(usable),
        mae=float(abs_err.mean()),
        rmse=float(math.sqrt(sq_err.mean())),
        n_prob=n_prob,
        crps=float(crps_all[prob].mean()) if n_prob else math.nan,
        mean_width=float(width_all[prob].mean()) if n_prob else math.nan,
        interval_level=interval_level,
        pit_counts=pit_counts,
        n_fallback=int(records.fallback.sum()),
    )


def score_groups(records: ForecastColumns, variant: str, **kwargs) -> dict:
    """Score per (station, horizon); keys are those tuples."""
    keys = sorted(set(zip(records.station.tolist(), records.horizon.tolist())))
    return {(station, horizon): score(records.take((records.station == station)
                                                   & (records.horizon == horizon)),
                                      variant, **kwargs)
            for station, horizon in keys}


def relative_reduction(report: CellScores, baseline: CellScores) -> dict:
    """Percent score reduction vs. a baseline: 100*(baseline - model)/baseline.

    NaN marks cells where the baseline is zero (undefined) or missing.
    """
    if (report.station, report.horizon) != (baseline.station, baseline.horizon):
        raise InvalidInputError("relative reduction needs matching station and horizon")

    def pct(b, m):
        if not (math.isfinite(b) and math.isfinite(m)) or b == 0.0:
            return math.nan
        return 100.0 * (b - m) / b

    out = {"overall": {"mae": pct(baseline.mae, report.mae),
                       "rmse": pct(baseline.rmse, report.rmse),
                       "crps": pct(baseline.crps, report.crps)}}
    base_months = {m: i for i, m in enumerate(baseline.months)}
    monthly = {}
    for i, m in enumerate(report.months):
        j = base_months.get(m)
        if j is None:
            continue
        monthly[format_month(m)] = {
            "mae": pct(baseline.mae_by_month[j], report.mae_by_month[i]),
            "rmse": pct(baseline.rmse_by_month[j], report.rmse_by_month[i]),
            "crps": pct(baseline.crps_by_month[j], report.crps_by_month[i]),
        }
    out["monthly"] = monthly
    return out


SCORES_CSV_COLUMNS = (
    "station", "variant", "horizon", "month", "n", "mae", "rmse", "crps", "width90",
)


def _write_blocks(path, header, blocks, header_lines) -> None:
    """Write per-report blocks of columns, one block after another."""
    columns = [list(chain.from_iterable(col)) for col in zip(*blocks)]
    write_columns(path, header, columns or [[]] * len(header), header_lines)


def write_scores_csv(reports: Sequence[CellScores], path,
                     header_lines: Sequence[str] = ()) -> None:
    """Monthly rows then an 'overall' row per report."""
    blocks = []
    for r in reports:
        k = len(r.months) + 1
        blocks.append(([r.station] * k, [r.variant] * k, [r.horizon] * k,
                       [format_month(m) for m in r.months] + ["overall"],
                       r.n_by_month.tolist() + [r.n_scored],
                       r.mae_by_month.tolist() + [r.mae],
                       r.rmse_by_month.tolist() + [r.rmse],
                       r.crps_by_month.tolist() + [r.crps],
                       r.width_by_month.tolist() + [r.mean_width]))
    _write_blocks(path, SCORES_CSV_COLUMNS, blocks, header_lines)


def read_scores_csv(path) -> list[CellScores]:
    """The cells of a scores.csv in file order; floats read back bit-exactly."""
    kinds = dict(zip(SCORES_CSV_COLUMNS, ("str", "str", "int", "str", "int") + ("float",) * 4))
    table = read_columns(path, kinds)
    cells, lo = [], 0
    for end in np.flatnonzero(table["month"] == "overall").tolist():
        rows = slice(lo, end)
        cells.append(CellScores(
            station=str(table["station"][end]), variant=str(table["variant"][end]),
            horizon=int(table["horizon"][end]),
            months=tuple(table["month"][rows].astype("datetime64[M]").astype(np.int64).tolist()),
            n_by_month=table["n"][rows], mae_by_month=table["mae"][rows],
            rmse_by_month=table["rmse"][rows], crps_by_month=table["crps"][rows],
            width_by_month=table["width90"][rows], n_scored=int(table["n"][end]),
            mae=float(table["mae"][end]), rmse=float(table["rmse"][end]),
            crps=float(table["crps"][end]), mean_width=float(table["width90"][end])))
        lo = end + 1
    return cells


def write_pit_csv(reports: Sequence[ScoreReport], path,
                  header_lines: Sequence[str] = ()) -> None:
    blocks = []
    for r in reports:
        nb = r.pit_counts.size
        edges = np.arange(nb + 1) / nb
        blocks.append(([r.station] * nb, [r.variant] * nb, [r.horizon] * nb,
                       edges[:-1].tolist(), edges[1:].tolist(), r.pit_counts.tolist(),
                       [r.n_prob / nb] * nb))
    _write_blocks(path, ("station", "variant", "horizon", "bin_lo", "bin_hi", "count",
                         "expected"), blocks, header_lines)


def format_score_table(reports: Sequence[CellScores], metric: str) -> str:
    """Plain-text table: one row per (station, variant), months as columns,
    'Overall' last."""
    getters = {
        "mae": (lambda r: r.mae_by_month, lambda r: r.mae),
        "rmse": (lambda r: r.rmse_by_month, lambda r: r.rmse),
        "crps": (lambda r: r.crps_by_month, lambda r: r.crps),
        "width90": (lambda r: r.width_by_month, lambda r: r.mean_width),
    }
    if metric not in getters:
        raise InvalidInputError(f"unknown metric {metric!r}")
    monthly_of, overall_of = getters[metric]
    all_months = sorted({m for r in reports for m in r.months})
    headers = ["Site", "Model", "k"] + [format_month(m) for m in all_months] + ["Overall"]
    lines = [f"{metric.upper()} (m/s)", "  ".join(headers)]
    for r in reports:
        cells = []
        by_month = dict(zip(r.months, monthly_of(r)))
        for m in all_months:
            v = by_month.get(m, math.nan)
            cells.append(f"{v:.3f}" if math.isfinite(v) else "--")
        overall = overall_of(r)
        cells.append(f"{overall:.3f}" if math.isfinite(overall) else "--")
        lines.append("  ".join([r.station, r.variant, str(r.horizon)] + cells))
    return "\n".join(lines) + "\n"
