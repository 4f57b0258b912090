"""Per-layer metrics from the spans ``tracer.py`` records.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span, or -1 for a stage (``cli.<stage>``). Spans are stored in
the order they open, so a parent always precedes its children. A span's
self time is its duration minus the durations of its direct children, which
in one thread never overlap.

Layer metrics cover the pipeline stages (everything after synth), except
those of the synth layer and of ``ingest.write_station_csv``, which only
synth calls. A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import math
import statistics

def percentile(values, p):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        self.self_time = list(self.duration)
        self.stage = [""] * n
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent < 0:
                self.stage[i] = name
            else:
                self.self_time[parent] -= self.duration[i]
                self.stage[i] = self.stage[parent]

    def select(self, name, synth=False):
        """Indices of spans called name, inside synth or inside the pipeline."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (self.stage[i] == "cli.synth") == synth]

    def total(self, name, synth=False):
        return sum(self.duration[i] for i in self.select(name, synth))

    def durations(self, name):
        return [self.duration[i] for i in self.select(name)]

    def attr_sum(self, name, key):
        return sum((self.spans[i][4] or {}).get(key, 0) for i in self.select(name))

    def enclosing(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent


def layer_metrics(spans, variants):
    """(metrics, report lines) for one traced run."""
    ix = SpanIndex(spans)
    m = {f"{s[0]}_s": ix.duration[i] for i, s in enumerate(spans) if s[3] < 0}

    m["ingest.load_network_dir_s"] = ix.total("ingest.load_network_dir")
    m["ingest.load_network_dir_calls"] = len(ix.select("ingest.load_network_dir"))
    m["ingest.rows_read"] = ix.attr_sum("ingest.load_network_dir", "rows")
    m["ingest.rows_per_s"] = (m["ingest.rows_read"] / m["ingest.load_network_dir_s"]
                              if m["ingest.load_network_dir_s"] else 0.0)
    m["ingest.write_station_csv_s"] = ix.total("ingest.write_station_csv", synth=True)
    m["synth.generate_s"] = ix.total("synth.generate", synth=True)

    m["geostrophy.estimate_series_s"] = ix.total("geostrophy.estimate_series")
    m["geostrophy.hours"] = ix.attr_sum("geostrophy.estimate_series", "hours")
    m["geostrophy.hours_missing"] = ix.attr_sum("geostrophy.estimate_series", "hours_missing")
    m["geostrophy.to_csv_s"] = ix.total("geostrophy.to_csv")
    m["geostrophy.from_csv_s"] = ix.total("geostrophy.from_csv")

    m["diurnal.fit_calls"] = (len(ix.select("diurnal.fit_trig"))
                              + len(ix.select("diurnal.fit_empirical")))
    for layer, span in (("residual_state", "model.residual_state_build"),
                        ("design_bundle", "model.design_bundle_build")):
        m[f"model.{layer}_build_s"] = ix.total(span)
        m[f"model.{layer}_builds"] = len(ix.select(span))

    m["model.select_lags_bic_s"] = ix.total("model.select_lags_bic")
    m["model.selections"] = len(ix.select("model.select_lags_bic"))
    m["model.bic_score_calls"] = len(ix.select("model.bic_score"))
    m["model.bic_score_s"] = ix.total("model.bic_score")

    fits = ix.select("model.fit_crps")
    fit_ms = [1e3 * ix.duration[i] for i in fits]
    m["model.fit_crps_s"] = ix.total("model.fit_crps")
    m["model.fits"] = len(fits)
    m["model.fit_crps_ms_p50"] = percentile(fit_ms, 50)
    m["model.fit_crps_ms_p90"] = percentile(fit_ms, 90)
    m["model.fit_rows_mean"] = (ix.attr_sum("model.fit_crps", "rows") / len(fits)
                                if fits else 0.0)

    simplex = ix.select("optim.nelder_mead")
    evals_per_fit = {}
    for i in simplex:
        fit = ix.enclosing(i, "model.fit_crps")
        evals_per_fit[fit] = evals_per_fit.get(fit, 0) + (ix.spans[i][4] or {}).get("evals", 0)
    per_fit = list(evals_per_fit.values())
    m["optim.nelder_mead_s"] = ix.total("optim.nelder_mead")
    m["optim.evals_total"] = sum(per_fit)
    m["optim.evals_per_fit_p50"] = percentile(per_fit, 50)
    m["optim.evals_per_fit_p90"] = percentile(per_fit, 90)
    m["optim.converged_frac"] = (ix.attr_sum("optim.nelder_mead", "converged") / len(simplex)
                                 if simplex else 0.0)
    m["optim.self_s"] = sum(ix.self_time[i] for i in simplex)

    core_us = [1e6 * d for d in ix.durations("predictive.crps_core")]
    m["predictive.crps_core_calls"] = len(core_us)
    m["predictive.crps_core_rows"] = ix.attr_sum("predictive.crps_core", "rows")
    m["predictive.crps_core_s"] = ix.total("predictive.crps_core")
    m["predictive.crps_core_ns_per_row"] = (1e9 * m["predictive.crps_core_s"]
                                            / m["predictive.crps_core_rows"]
                                            if m["predictive.crps_core_rows"] else 0.0)
    m["predictive.crps_core_us_p50"] = percentile(core_us, 50)
    m["predictive.crps_core_us_p99"] = percentile(core_us, 99)
    m["predictive.quantile_values_s"] = ix.total("predictive.quantile_values")

    rolling = ix.select("forecast.run_rolling_station")
    for variant in variants:
        m[f"forecast.rolling_s.{variant}"] = sum(
            ix.duration[i] for i in rolling
            if (ix.spans[i][4] or {}).get("variant") == variant)
    m["forecast.rolling_s_max"] = max((ix.duration[i] for i in rolling), default=0.0)
    m["forecast.records"] = ix.attr_sum("forecast.write_records_csv", "records")
    m["forecast.fallbacks"] = ix.attr_sum("forecast.write_records_csv", "fallbacks")
    m["forecast.write_records_csv_s"] = ix.total("forecast.write_records_csv")
    m["forecast.read_records_csv_s"] = ix.total("forecast.read_records_csv")

    m["verification.score_groups_s"] = ix.total("verification.score_groups")
    m["verification.cells"] = ix.attr_sum("verification.write_scores_csv", "cells")
    m["verification.write_scores_csv_s"] = ix.total("verification.write_scores_csv")

    notes = []
    for name in ("model.fit_crps", "predictive.crps_core", "model.bic_score",
                 "optim.nelder_mead", "model.select_lags_bic", "forecast.run_rolling_station",
                 "model.residual_state_build", "model.design_bundle_build"):
        notes.append(describe(name, [1e3 * d for d in ix.durations(name)], "ms"))
    if per_fit:
        notes.append(f"optim.evals_per_fit: median {statistics.median(per_fit):g}, "
                     f"max {max(per_fit)} (n={len(per_fit)} fits)")
    return m, notes


def describe(name, values, unit="s"):
    """Median plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    if not values:
        return f"{name}: no samples"
    text = f"{name}: median {statistics.median(values):.6g} {unit}"
    tail = [p for p in (90.0, 99.0, 99.9) if len(values) * (1 - p / 100) >= 10]
    if tail:
        text += f", p{tail[-1]:g} {percentile(values, tail[-1]):.6g} {unit}"
    return text + f" (n={len(values)})"
