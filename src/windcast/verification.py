"""Forecast verification: MAE/RMSE/CRPS, PIT histograms and sharpness.

``SCORE_METRICS`` names the four scores, in the order of scores.csv's
columns and report's tables: MAE, RMSE, CRPS and the mean width of the
central 90% interval (``INTERVAL_LEVEL``). A cell's ``monthly``
and ``overall`` mappings are keyed by them: ``monthly[metric]`` is an array
by calendar month of the valid time, ``overall[metric]`` a float. Overall
values are the sample-weighted aggregates of the monthly cells (pooled
squared errors for RMSE), so the two views are consistent by construction.
Probabilistic scores (CRPS, PIT, interval width) cover the records that
carry a distribution; point scores cover every record with a usable point
forecast and observation. Fallback records are scored too, which matches
the headline treatment of full test samples; to leave them out, score
``cols.take(~cols.fallback)``.
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

SCORE_METRICS = ("mae", "rmse", "crps", "width90")
INTERVAL_LEVEL = 0.90  # the central interval whose width is "width90"
PIT_BINS = 10  # equal-width PIT histogram bins on [0, 1]


@dataclass
class CellScores:
    """The monthly and overall scores of one (station, variant, horizon) cell:
    what scores.csv holds. ``monthly`` and ``overall`` are keyed by
    SCORE_METRICS."""

    station: str
    variant: str
    horizon: int
    months: tuple  # month indices (months since 1970-01), sorted
    n_by_month: np.ndarray
    n_scored: int
    monthly: dict  # metric -> array by month
    overall: dict  # metric -> float


@dataclass
class ScoreReport(CellScores):
    """Verification scores for one (station, variant, horizon) cell."""

    n_prob: int
    pit_counts: np.ndarray


def score(records: ForecastColumns, variant: str) -> ScoreReport:
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
    monthly = {metric: np.full(len(months), np.nan) for metric in SCORE_METRICS}

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
        half = (1.0 - INTERVAL_LEVEL) / 2.0
        width_all[prob] = (quantile_values(mu, sg, 1.0 - half)
                           - quantile_values(mu, sg, half))

    for i, m in enumerate(months):
        sel = valid_month == m
        n_by_month[i] = sel.sum()
        monthly["mae"][i] = abs_err[sel].mean()
        monthly["rmse"][i] = math.sqrt(sq_err[sel].mean())
        psel = sel & prob
        if np.any(psel):
            monthly["crps"][i] = crps_all[psel].mean()
            monthly["width90"][i] = width_all[psel].mean()

    n_prob = int(prob.sum())
    pit_counts, _ = np.histogram(pit_all[prob], bins=PIT_BINS, range=(0.0, 1.0))
    return ScoreReport(
        station=str(usable.station[0]), variant=variant, horizon=int(usable.horizon[0]),
        months=months, n_by_month=n_by_month, n_scored=len(usable), monthly=monthly,
        overall={"mae": float(abs_err.mean()),
                 "rmse": float(math.sqrt(sq_err.mean())),
                 "crps": float(crps_all[prob].mean()) if n_prob else math.nan,
                 "width90": float(width_all[prob].mean()) if n_prob else math.nan},
        n_prob=n_prob, pit_counts=pit_counts)


def score_groups(records: ForecastColumns, variant: str) -> dict:
    """Score per (station, horizon); keys are those tuples, in sorted order.
    One stable sort groups the rows, so each cell keeps its rows in file order."""
    order = np.lexsort((records.horizon, records.station))
    station, horizon = records.station[order], records.horizon[order]
    new = (station[1:] != station[:-1]) | (horizon[1:] != horizon[:-1])
    bounds = np.flatnonzero(np.concatenate(([True], new, [True]))) if order.size else []
    return {(str(station[a]), int(horizon[a])): score(records.take(order[a:b]), variant)
            for a, b in zip(bounds[:-1], bounds[1:])}


def relative_reduction(model: float, baseline: float) -> float:
    """Percent score reduction vs. a baseline: 100*(baseline - model)/baseline.

    NaN where the baseline is zero (undefined) or either score is not finite.
    """
    if not (math.isfinite(baseline) and math.isfinite(model)) or baseline == 0.0:
        return math.nan
    return 100.0 * (baseline - model) / baseline


SCORES_CSV_COLUMNS = ("station", "variant", "horizon", "month", "n") + SCORE_METRICS


def _write_blocks(path, header, blocks, header_lines, cache) -> None:
    """Write per-report blocks of columns, one block after another."""
    columns = [list(chain.from_iterable(col)) for col in zip(*blocks)]
    write_columns(path, header, columns or [[]] * len(header), header_lines, cache=cache)


def write_scores_csv(reports: Sequence[CellScores], path,
                     header_lines: Sequence[str] = (), cache=None) -> None:
    """Monthly rows then an 'overall' row per report."""
    blocks = []
    for r in reports:
        k = len(r.months) + 1
        blocks.append(([r.station] * k, [r.variant] * k, [r.horizon] * k,
                       [format_month(m) for m in r.months] + ["overall"],
                       r.n_by_month.tolist() + [r.n_scored],
                       *(r.monthly[metric].tolist() + [r.overall[metric]]
                         for metric in SCORE_METRICS)))
    _write_blocks(path, SCORES_CSV_COLUMNS, blocks, header_lines, cache)


def read_scores_csv(path, cache=None) -> list[CellScores]:
    """The cells of a scores.csv in file order; floats read back bit-exactly."""
    kinds = dict(zip(SCORES_CSV_COLUMNS,
                     ("str", "str", "int", "str", "int") + ("float",) * len(SCORE_METRICS)))
    table = read_columns(path, kinds, cache=cache)
    cells, lo = [], 0
    for end in np.flatnonzero(table["month"] == "overall").tolist():
        rows = slice(lo, end)
        cells.append(CellScores(
            station=str(table["station"][end]), variant=str(table["variant"][end]),
            horizon=int(table["horizon"][end]),
            months=tuple(table["month"][rows].astype("datetime64[M]").astype(np.int64).tolist()),
            n_by_month=table["n"][rows], n_scored=int(table["n"][end]),
            monthly={metric: table[metric][rows] for metric in SCORE_METRICS},
            overall={metric: float(table[metric][end]) for metric in SCORE_METRICS}))
        lo = end + 1
    return cells


def write_pit_csv(reports: Sequence[ScoreReport], path,
                  header_lines: Sequence[str] = (), cache=None) -> None:
    blocks = []
    for r in reports:
        nb = r.pit_counts.size
        edges = np.arange(nb + 1) / nb
        blocks.append(([r.station] * nb, [r.variant] * nb, [r.horizon] * nb,
                       edges[:-1].tolist(), edges[1:].tolist(), r.pit_counts.tolist(),
                       [r.n_prob / nb] * nb))
    _write_blocks(path, ("station", "variant", "horizon", "bin_lo", "bin_hi", "count",
                         "expected"), blocks, header_lines, cache)


def format_score_table(reports: Sequence[CellScores], metric: str) -> str:
    """Plain-text table: one row per (station, variant), months as columns,
    'Overall' last."""
    if metric not in SCORE_METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}")
    all_months = sorted({m for r in reports for m in r.months})
    headers = ["Site", "Model", "k"] + [format_month(m) for m in all_months] + ["Overall"]
    lines = [f"{metric.upper()} (m/s)", "  ".join(headers)]
    for r in reports:
        cells = []
        by_month = dict(zip(r.months, r.monthly[metric]))
        for m in all_months:
            v = by_month.get(m, math.nan)
            cells.append(f"{v:.3f}" if math.isfinite(v) else "--")
        overall = r.overall[metric]
        cells.append(f"{overall:.3f}" if math.isfinite(overall) else "--")
        lines.append("  ".join([r.station, r.variant, str(r.horizon)] + cells))
    return "\n".join(lines) + "\n"
