"""Span recording around the calls into each boxcarpets module.

The wrappers live here, in the benchmark, not in the package: ``installed``
replaces the module attributes that ``products``, ``evolution``, ``energy``
and ``flow`` look up at call time, and puts every original back when the
block ends.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np


class Recorder:
    """Spans of one traced run: name, start, end, parent index and work counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **work):
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None, "work": dict(work)}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["work"].update(count(args, kwargs, result))
            return result

        return timed


def dump(recorders: list[Recorder], path: Path) -> None:
    """Write the spans of each traced pass, one list per pass, as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([r.spans for r in recorders]) + "\n")


# -- work counts computed from a call's inputs and outputs -------------------


def _density_map_count(args, kwargs, result):
    state, x, times = args[:3]
    support = int(np.count_nonzero(state.coeffs))
    return {"pair_terms": int(np.size(times)) * int(np.size(x)) * support**2}


def _velocity_map_count(args, kwargs, result):
    return {"points": int(result.size)}


def _carpet_count(args, kwargs, result):
    return {"grid_points": int(result.values.size)}


def _integrate_count(args, kwargs, result):
    params = kwargs.get("params", args[3] if len(args) > 3 else None)
    return {"damped": bool(params is not None and params.gamma > 0.0), "trajectories": len(result)}


def _purity_curve_count(args, kwargs, result):
    return {"samples": int(result.times.size)}


def _heatmap_count(args, kwargs, result):
    return {"pixels": int(np.asarray(args[0]).size)}


def _csv_count(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(a) for a in args if isinstance(a, Path))}


# (namespace module, attribute, span name, work count).  Each attribute is
# the name under which a caller looks the function up when it runs.
WRAPS = (
    ("products", "decompose", "spectral.decompose", None),
    ("energy", "decompose", "spectral.decompose", None),
    ("products", "carpet", "evolution.carpet", _carpet_count),
    ("evolution", "density_map", "decoherence.density_map", _density_map_count),
    ("products", "density_matrix_grid", "decoherence.density_matrix_grid", None),
    ("flow", "velocity_map", "flow.velocity_map", _velocity_map_count),
    ("products", "integrate_ensemble", "flow.integrate_ensemble", _integrate_count),
    ("products", "purity_curve", "energy.purity_curve", _purity_curve_count),
    ("energy", "purity_curve", "energy.purity_curve", _purity_curve_count),
    ("products", "fit_purity", "energy.fit_purity", None),
    ("energy", "fit_purity", "energy.fit_purity", None),
    ("products", "sweep_x0", "energy.sweep_x0", None),
    ("products", "render_heatmap", "heatmap.render_heatmap", _heatmap_count),
    ("csvio", "standard_meta", "csvio.standard_meta", None),
    ("csvio", "write_carpet", "csvio.write_carpet", _csv_count),
    ("csvio", "write_plane", "csvio.write_plane", _csv_count),
    ("csvio", "write_mode_matrix", "csvio.write_mode_matrix", _csv_count),
    ("csvio", "write_ensemble", "csvio.write_ensemble", _csv_count),
    ("csvio", "write_purity_curve", "csvio.write_purity_curve", _csv_count),
    ("csvio", "write_fit", "csvio.write_fit", _csv_count),
    ("csvio", "write_sweep", "csvio.write_sweep", _csv_count),
)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Route the calls listed in ``WRAPS`` through ``recorder``; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, count in WRAPS:
            module = importlib.import_module(f"boxcarpets.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original, count))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def attribute_snapshot() -> dict:
    """Identity of every attribute of every boxcarpets module, for restore checks."""
    import boxcarpets

    snap = {}
    for name in ("products", "evolution", "energy", "flow", "csvio", "decoherence", "spectral", "heatmap"):
        module = importlib.import_module(f"boxcarpets.{name}")
        snap.update({(name, k): id(v) for k, v in vars(module).items()})
    snap.update({("boxcarpets", k): id(v) for k, v in vars(boxcarpets).items()})
    return snap


# -- per-layer metrics ---------------------------------------------------------

# Metric name -> (unit, better).  The self times named "... _s" that come from
# spans partition the traced wall time: each span's own time is counted once.
PER_LAYER = {
    "spectral.decompose_s": ("s", "lower"),
    "spectral.decompose_calls": ("count", "lower"),
    "evolution.carpet_s": ("s", "lower"),
    "evolution.grid_points": ("count", "lower"),
    "decoherence.density_map_s": ("s", "lower"),
    "decoherence.pair_terms": ("count", "lower"),
    "decoherence.pair_terms_per_s": ("1/s", "higher"),
    "decoherence.density_matrix_grid_s": ("s", "lower"),
    "flow.velocity_map_s": ("s", "lower"),
    "flow.velocity_points_per_s": ("1/s", "higher"),
    "flow.integrate_damped_s": ("s", "lower"),
    "flow.integrate_coherent_s": ("s", "lower"),
    "flow.trajectories": ("count", "lower"),
    "flow.trajectories_completed_ratio": ("1", "higher"),
    "flow.coherent_return_max": ("length", "lower"),
    "energy.purity_curve_s": ("s", "lower"),
    "energy.purity_samples_per_s": ("1/s", "higher"),
    "energy.fit_purity_s": ("s", "lower"),
    "energy.fits": ("count", "lower"),
    "energy.fit_ms_p50": ("ms", "lower"),
    "energy.fit_ms_p75": ("ms", "lower"),
    "energy.sweep_x0_s": ("s", "lower"),
    "energy.sweep_rows_ok_ratio": ("1", "higher"),
    "energy.fit_rms_max": ("1", "lower"),
    "csvio.write_s": ("s", "lower"),
    "csvio.mb_written": ("MB", "lower"),
    "csvio.mb_per_s": ("MB/s", "higher"),
    "heatmap.render_s": ("s", "lower"),
    "heatmap.mpixels": ("Mpx", "lower"),
    "heatmap.mpixels_per_s": ("Mpx/s", "higher"),
    "products.self_s": ("s", "lower"),
    "products.sha256_mb": ("MB", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}

# Self-time metrics that, with products.self_s, add up to trace.wall_s.
PARTITION = (
    "spectral.decompose_s",
    "evolution.carpet_s",
    "decoherence.density_map_s",
    "decoherence.density_matrix_grid_s",
    "flow.velocity_map_s",
    "flow.integrate_damped_s",
    "flow.integrate_coherent_s",
    "energy.purity_curve_s",
    "energy.fit_purity_s",
    "energy.sweep_x0_s",
    "csvio.write_s",
    "heatmap.render_s",
    "products.self_s",
)


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(spans: list[dict], observed: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and the base of every ratio.

    ``spans`` are the spans of the pass, whose roots are the ``products.run``
    calls; ``observed`` holds what the output checks counted in the files.
    """
    own = _self_times(spans)
    by_metric = {
        "spectral.decompose": "spectral.decompose_s",
        "evolution.carpet": "evolution.carpet_s",
        "decoherence.density_map": "decoherence.density_map_s",
        "decoherence.density_matrix_grid": "decoherence.density_matrix_grid_s",
        "flow.velocity_map": "flow.velocity_map_s",
        "energy.purity_curve": "energy.purity_curve_s",
        "energy.fit_purity": "energy.fit_purity_s",
        "energy.sweep_x0": "energy.sweep_x0_s",
        "heatmap.render_heatmap": "heatmap.render_s",
        "products.run": "products.self_s",
    }
    m = {name: 0.0 for name in PARTITION}
    work = dict.fromkeys(("pair_terms", "grid_points", "points", "trajectories", "samples", "pixels", "bytes"), 0)
    fit_ms = []
    wall = 0.0
    for s, t_own in zip(spans, own):
        name = s["name"]
        if name.startswith("csvio."):
            key = "csvio.write_s"
        elif name == "flow.integrate_ensemble":
            key = "flow.integrate_damped_s" if s["work"]["damped"] else "flow.integrate_coherent_s"
        else:
            key = by_metric[name]
        m[key] += t_own
        for k in work:
            work[k] += s["work"].get(k, 0)
        if name == "energy.fit_purity":
            fit_ms.append(1e3 * (s["end"] - s["start"]))
        if s["parent"] is None:
            wall += s["end"] - s["start"]

    p50 = statistics.median(fit_ms) if fit_ms else 0.0
    mb_written = work["bytes"] / 1e6
    mpixels = work["pixels"] / 1e6
    m.update({
        "spectral.decompose_calls": sum(s["name"] == "spectral.decompose" for s in spans),
        "evolution.grid_points": work["grid_points"],
        "decoherence.pair_terms": work["pair_terms"],
        "decoherence.pair_terms_per_s": _ratio(work["pair_terms"], m["decoherence.density_map_s"]),
        "flow.velocity_points_per_s": _ratio(work["points"], m["flow.velocity_map_s"]),
        "flow.trajectories": work["trajectories"],
        "flow.trajectories_completed_ratio": _ratio(observed["completed"], observed["seeded"]),
        "flow.coherent_return_max": observed["coherent_return_max"],
        "energy.purity_samples_per_s": _ratio(work["samples"], m["energy.purity_curve_s"]),
        "energy.fits": len(fit_ms),
        "energy.fit_ms_p50": p50,
        "energy.fit_ms_p75": statistics.quantiles(fit_ms, n=4)[2] if len(fit_ms) > 1 else p50,
        "energy.sweep_rows_ok_ratio": _ratio(observed["sweep_rows_ok"], observed["sweep_rows"]),
        "energy.fit_rms_max": observed["fit_rms_max"],
        "csvio.mb_written": mb_written,
        "csvio.mb_per_s": _ratio(mb_written, m["csvio.write_s"]),
        "heatmap.mpixels": mpixels,
        "heatmap.mpixels_per_s": _ratio(mpixels, m["heatmap.render_s"]),
        "products.sha256_mb": observed["hashed_bytes"] / 1e6,
        "trace.wall_s": wall,
    })
    bases = {
        "decoherence.pair_terms_per_s": f"{work['pair_terms']} pair terms / decoherence.density_map_s",
        "flow.velocity_points_per_s": f"{work['points']} field points / flow.velocity_map_s",
        "flow.trajectories_completed_ratio": f"{observed['completed']} completed / {observed['seeded']} seeded",
        "energy.purity_samples_per_s": f"{work['samples']} samples / energy.purity_curve_s",
        "energy.fit_ms_p50": f"{len(fit_ms)} fits",
        "energy.fit_ms_p75": f"{len(fit_ms)} fits",
        "energy.sweep_rows_ok_ratio": f"{observed['sweep_rows_ok']} ok / {observed['sweep_rows']} rows",
        "csvio.mb_per_s": "csvio.mb_written / csvio.write_s",
        "heatmap.mpixels_per_s": "heatmap.mpixels / heatmap.render_s",
    }
    return m, bases
