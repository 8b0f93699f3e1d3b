"""Product orchestration: build requested artifacts and a checksum manifest.

Every product is a pure computation followed by deterministic file writes,
so outputs are bit-identical across runs and across ``parallelism`` levels.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import csvio
from .config import RunConfig, serialize_config
from .decoherence import density_matrix_grid
from .energy import correlation_matrix, decay_time_map, fit_purity, purity_curve, sweep_x0
from .errors import CarpetError
from .evolution import SpaceTimeGrid, carpet, revival_times
from .flow import integrate_ensemble
from .heatmap import DIVERGING, SEQUENTIAL, ColorMap, render_heatmap
from .spectral import SpectralState, decompose


def build_state(config: RunConfig) -> SpectralState:
    state = decompose(config.signal, config.cavity, config.n_modes)
    return state.renormalized() if config.renormalize else state


def _meta(config: RunConfig) -> dict:
    return csvio.standard_meta(config.cavity, config.signal, config.n_modes, config.deco)


def _product_carpet(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    tau = revival_times(config.cavity).tau
    grid = SpaceTimeGrid.regular(
        config.cavity, config.grid.x_points, config.grid.t_points, config.grid.t_max_tau * tau
    )
    state = build_state(config)
    quantity = config.output.quantity
    cp = carpet(state, grid, quantity=quantity, params=config.deco, jobs=jobs)
    csv_path = out / f"carpet_{quantity}.csv"
    csvio.write_carpet(cp, csv_path, meta=_meta(config))
    if quantity == "density":
        cmap = ColorMap(kind="sequential", stops=SEQUENTIAL.stops, vmin=0.0, vmax=float(cp.values.max()))
    else:
        span = float(np.percentile(np.abs(cp.values), 99.5))
        cmap = ColorMap(kind="diverging", stops=DIVERGING.stops, vmin=-span, vmax=span)
    ppm_path = out / f"carpet_{quantity}.ppm"
    ppm_path.write_bytes(render_heatmap(cp.values, cmap))
    return [csv_path, ppm_path]


def _product_trajectories(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    tau = revival_times(config.cavity).tau
    t_end = config.grid.t_max_tau * tau
    sample_times = np.linspace(0.0, t_end, config.grid.t_points)
    state = build_state(config)
    trajectories = integrate_ensemble(
        state, config.ensemble, t_end, params=config.deco, sample_times=sample_times
    )
    csv_path = out / "trajectories.csv"
    meta_path = out / "trajectories.meta"
    csvio.write_ensemble(trajectories, sample_times, csv_path, meta_path, meta=_meta(config))
    return [csv_path, meta_path]


def _product_densmat(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    tau = revival_times(config.cavity).tau
    state = build_state(config)
    x = np.linspace(-config.cavity.half_width, config.cavity.half_width, 401)
    # energy-representation density matrix at t = 0 (the mode correlations)
    corr = correlation_matrix(state)
    corr_path = out / "corrmatrix.csv"
    csvio.write_mode_matrix(corr, corr_path, meta=_meta(config) | {"plane": "energy_t0"})
    corr_ppm = out / "corrmatrix.ppm"
    span = float(np.abs(corr).max())
    cmap = ColorMap(kind="diverging", stops=DIVERGING.stops, vmin=-min(span, 0.3), vmax=min(span, 0.3))
    corr_ppm.write_bytes(render_heatmap(corr, cmap))
    paths = [corr_path, corr_ppm]
    for snap in config.grid.snapshots_tau:
        grid = density_matrix_grid(state, x, x, snap * tau, config.deco)
        tag = format(snap, "g")
        meta = _meta(config) | {"t_tau": tag}
        re_csv = out / f"densmat_re_t{tag}.csv"
        im_csv = out / f"densmat_im_t{tag}.csv"
        csvio.write_plane(x, x, grid.values.real, re_csv, meta=meta | {"plane": "real"})
        csvio.write_plane(x, x, grid.values.imag, im_csv, meta=meta | {"plane": "imag"})
        ppm = out / f"densmat_re_t{tag}.ppm"
        ppm.write_bytes(render_heatmap(grid.values.real, DIVERGING))
        paths += [re_csv, im_csv, ppm]
    return paths


def _product_purity(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    tau = revival_times(config.cavity).tau
    state = build_state(config)
    curve = purity_curve(state, config.fit.span_tau * tau, config.deco, samples=config.fit.samples)
    path = out / "purity.csv"
    csvio.write_purity_curve(curve, path, meta=_meta(config))
    return [path]


def _product_fit(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    tau = revival_times(config.cavity).tau
    state = build_state(config)
    curve = purity_curve(state, config.fit.span_tau * tau, config.deco, samples=config.fit.samples)
    fit = fit_purity(curve, restarts=config.fit.restarts, seed=config.fit.seed)
    fit_path = out / "purity_fit.csv"
    csvio.write_fit(fit, fit_path, meta=_meta(config))
    curve_path = out / "purity_fit_curve.csv"
    csvio.write_fit_curve(curve, fit, curve_path, meta=_meta(config))
    return [fit_path, curve_path]


def _product_sweep(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    rows = sweep_x0(
        config.signal.kind,
        config.sweep.values(config.signal, config.cavity),
        config.cavity,
        N=config.n_modes,
        gamma=config.deco.gamma,
        w=config.signal.w,
        span_tau=config.fit.span_tau,
        samples=config.fit.samples,
        restarts=config.fit.restarts,
        seed=config.fit.seed,
        renormalize=config.renormalize,
    )
    path = out / "sweep.csv"
    csvio.write_sweep(rows, path, meta=_meta(config))
    return [path]


def _product_decaymap(config: RunConfig, out: Path, jobs: int) -> list[Path]:
    times = decay_time_map(config.cavity, config.deco.gamma, config.n_modes)
    csv_path = out / "decay_times.csv"
    csvio.write_mode_matrix(times, csv_path, meta=_meta(config))
    # image on a log scale; the never-decaying diagonal takes the top color
    logt = np.log10(times)
    finite = np.isfinite(logt)
    top = float(logt[finite].max())
    ppm_path = out / "decay_times.ppm"
    ppm_path.write_bytes(render_heatmap(np.where(finite, logt, top), SEQUENTIAL))
    return [csv_path, ppm_path]


_PRODUCTS = {
    "carpet": _product_carpet,
    "trajectories": _product_trajectories,
    "densmat": _product_densmat,
    "purity": _product_purity,
    "sweep": _product_sweep,
    "fit": _product_fit,
    "decaymap": _product_decaymap,
}


def _sha256(path) -> str:
    """Hex digest of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def run(config: RunConfig, parallelism: int = 1) -> dict:
    """Execute the configured products and write ``manifest.json``.

    Products run one after another; ``parallelism`` is the worker count for
    the row chunks of a carpet.  Returns the manifest: per-product file
    lists, sha256 checksums, and any per-product failure messages (callers
    map failures to a nonzero exit).
    """
    if not config.output.products:
        raise CarpetError("no products requested")
    out = Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    jobs = max(int(parallelism), 1)

    products: dict[str, list[str]] = {}
    failures: dict[str, str] = {}
    checksums: dict[str, str] = {}
    for name in config.output.products:
        try:
            files = [str(p) for p in _PRODUCTS[name](config, out, jobs)]
        except Exception as exc:  # collected per product
            files = []
            failures[name] = f"{type(exc).__name__}: {exc}"
        products[name] = files
        for f in files:
            checksums[Path(f).name] = _sha256(f)

    manifest = {
        "config": serialize_config(config),
        "products": products,
        "failures": failures,
        "checksums": checksums,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
