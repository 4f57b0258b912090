"""Traced pipeline run: times the calls into each windcast layer.

Usage (from the repository root; ``run.py --trace 1`` starts it):

    python3 perfbench/tracer.py --config RUN.yaml --stages synth,geowind,... \
        --spans SPANS.json [--stages-only]

The run happens in this one process: each stage is a call to
``windcast.cli.main`` with ``--jobs 1``, so every layer call is visible
here. ``--jobs`` leaves the config, and so its digest, unchanged, which
keeps the traced outputs comparable with untraced runs of the same config.

Before the first stage, every public function the stages call is wrapped
where its caller looks the name up; windcast modules import names
with ``from .x import y``, so wrapping only the defining module would miss
the calls. A wrapper appends one span (name, start, end, parent, attributes)
to a list in memory; the list is written to ``--spans`` when the run ends.

A target that no longer exists (a layer renamed or removed) is listed under
``missing`` in the spans file instead of failing the run.

With ``--stages-only`` no layer is wrapped and only the stage spans are
recorded: the same one-process run, untraced, which is the baseline for the
tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _rows(result):
    return {"rows": sum(int(s.times.size) for s in result)}


def _hours(result):
    import numpy as np

    return {"hours": int(result.n),
            "hours_missing": int(np.count_nonzero(~np.isfinite(result.w_g)))}


def _fit(result):
    return {"rows": int(result.n_rows)}


def _simplex(result):
    return {"evals": int(result.n_evals), "converged": bool(result.converged)}


def _records_in(args):
    records = args[0]
    return {"records": len(records), "fallbacks": sum(bool(r.fallback) for r in records)}


def _records_out(result):
    return {"records": len(result)}


def _cells_out(result):
    return {"cells": len(result)}


def _cells_in(args):
    return {"cells": len(args[0])}


def _crps_rows(args):
    return {"rows": int(args[2].size)}


def _rolling(args):
    return {"variant": str(args[1]), "station": str(args[2])}


# (module or "module:Class", attribute, span name, attrs from result, attrs from args)
TARGETS = [
    ("windcast.synth", "generate", "synth.generate", None, None),
    ("windcast.synth", "write_station_csv", "ingest.write_station_csv", None, None),
    ("windcast.cli", "load_network_dir", "ingest.load_network_dir", _rows, None),
    ("windcast.cli", "estimate_series", "geostrophy.estimate_series", _hours, None),
    ("windcast.geostrophy:GeoWindSeries", "to_csv", "geostrophy.to_csv", None, None),
    ("windcast.geostrophy:GeoWindSeries", "from_csv", "geostrophy.from_csv", None, None),
    ("windcast.model", "fit_trig", "diurnal.fit_trig", None, None),
    ("windcast.model", "fit_empirical", "diurnal.fit_empirical", None, None),
    ("windcast.model:ResidualState", "build", "model.residual_state_build", None, None),
    ("windcast.model:DesignBundle", "build", "model.design_bundle_build", None, None),
    ("windcast.cli", "select_lags_bic", "model.select_lags_bic", None, None),
    ("windcast.forecast", "select_lags_bic", "model.select_lags_bic", None, None),
    ("windcast.model", "bic_score", "model.bic_score", None, None),
    ("windcast.cli", "fit_crps", "model.fit_crps", _fit, None),
    ("windcast.forecast", "fit_crps", "model.fit_crps", _fit, None),
    ("windcast.model", "nelder_mead", "optim.nelder_mead", _simplex, None),
    ("windcast.model", "_crps_core", "predictive.crps_core", None, _crps_rows),
    ("windcast.forecast", "quantile_values", "predictive.quantile_values", None, None),
    ("windcast.verification", "quantile_values", "predictive.quantile_values", None, None),
    ("windcast.cli", "run_rolling_station", "forecast.run_rolling_station", None, _rolling),
    ("windcast.cli", "write_records_csv", "forecast.write_records_csv", None, _records_in),
    ("windcast.cli", "read_records_csv", "forecast.read_records_csv", _records_out, None),
    ("windcast.cli", "score_groups", "verification.score_groups", _cells_out, None),
    ("windcast.cli", "write_scores_csv", "verification.write_scores_csv", None, _cells_in),
]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index, attrs=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    def wrap(self, fn, name, from_result, from_args):
        def traced(*args, **kwargs):
            index = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                try:
                    if from_args is not None:
                        attrs = from_args(args)
                    elif from_result is not None:
                        attrs = from_result(result)
                except (AttributeError, IndexError, TypeError):
                    attrs = None
                return result
            finally:
                self.close(index, attrs)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap every target; return the ones that could not be found."""
        missing = []
        for where, attr, name, from_result, from_args in targets:
            module_name, _, class_name = where.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{where}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, from_result, from_args))
            else:
                wrapped = self.wrap(raw, name, from_result, from_args)
            setattr(owner, attr, wrapped)
        return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--stages", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--stages-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import windcast.cli

    if not os.path.abspath(windcast.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"windcast imported from {windcast.cli.__file__}, not {SRC}\n")
        return 2

    tracer = Tracer()
    missing = [] if args.stages_only else tracer.install(TARGETS)
    exit_codes = {}
    for stage in args.stages.split(","):
        index = tracer.open(f"cli.{stage}")
        try:
            exit_codes[stage] = windcast.cli.main([stage, "--config", args.config,
                                                   "--jobs", "1"])
        finally:
            tracer.close(index)
        if exit_codes[stage] != 0:
            break
    with open(args.spans, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": missing, "exit_codes": exit_codes}, fh)
    return 0 if all(code == 0 for code in exit_codes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
