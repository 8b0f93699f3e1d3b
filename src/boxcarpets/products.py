"""Product orchestration: build requested artifacts and a checksum manifest.

Every product is a pure computation followed by deterministic file writes,
so outputs are bit-identical from run to run.  The products of one ``run``
call share one ``_Run``: one released state, one carpet grid and one purity
curve, each built on first use.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from pathlib import Path

import numpy as np

from . import csvio
from .config import RunConfig, serialize_config
from .decoherence import density_matrix_grid
from .energy import PurityCurve, correlation_matrix, decay_time_map, fit_purity, purity_curve, sweep_x0
from .errors import CarpetError
from .evolution import SpaceTimeGrid, carpet
from .flow import integrate_ensemble
from .heatmap import DIVERGING, SEQUENTIAL, render_heatmap
from .spectral import SpectralState, _check_spec, decompose, revival_times


def build_state(config: RunConfig) -> SpectralState:
    _check_spec(config, RunConfig, "run configuration")
    state = decompose(config.signal, config.cavity, config.n_modes)
    return state.renormalized() if config.renormalize else state


class _Run:
    """What the products of one ``run`` call share: one state in one cavity.

    ``state``, ``grid`` and ``purity`` are built on first use, so products
    that need none of them never decompose a state, and an error building
    one fails only the products that ask for it.
    """

    def __init__(self, config: RunConfig, out: Path):
        self.config = config
        self.out = out
        self.tau = revival_times(config.cavity).tau
        self.meta = csvio.standard_meta(config.cavity, config.signal, config.n_modes, config.deco)

    @cached_property
    def state(self) -> SpectralState:
        return build_state(self.config)

    @cached_property
    def grid(self) -> SpaceTimeGrid:
        g = self.config.grid
        return SpaceTimeGrid.regular(self.config.cavity, g.x_points, g.t_points, g.t_max_tau * self.tau)

    @cached_property
    def purity(self) -> PurityCurve:
        fit = self.config.fit
        return purity_curve(self.state, fit.span_tau * self.tau, self.config.deco, samples=fit.samples)


def _product_carpet(r: _Run) -> list[Path]:
    quantity = r.config.output.quantity
    cp = carpet(r.state, r.grid, quantity=quantity, params=r.config.deco)
    csv_path = r.out / f"carpet_{quantity}.csv"
    csvio.write_carpet(cp, csv_path, meta=r.meta)
    if quantity == "density":
        stops, lo, hi = SEQUENTIAL, 0.0, float(cp.values.max())
    else:
        # np.abs makes a temporary, so the percentile may partition it in place
        span = float(np.percentile(np.abs(cp.values), 99.5, overwrite_input=True))
        stops, lo, hi = DIVERGING, -span, span
    ppm_path = r.out / f"carpet_{quantity}.ppm"
    ppm_path.write_bytes(render_heatmap(cp.values, stops, lo, hi))
    return [csv_path, ppm_path]


def _product_trajectories(r: _Run) -> list[Path]:
    t_end = r.config.grid.t_max_tau * r.tau
    trajectories = integrate_ensemble(
        r.state, r.config.ensemble, t_end, params=r.config.deco, sample_times=r.grid.t
    )
    csv_path = r.out / "trajectories.csv"
    meta_path = r.out / "trajectories.meta"
    csvio.write_ensemble(trajectories, r.grid.t, csv_path, meta_path, meta=r.meta)
    return [csv_path, meta_path]


def _product_densmat(r: _Run) -> list[Path]:
    x = np.linspace(-r.config.cavity.half_width, r.config.cavity.half_width, 401)
    # energy-representation density matrix at t = 0 (the mode correlations)
    corr = correlation_matrix(r.state)
    corr_path = r.out / "corrmatrix.csv"
    csvio.write_mode_matrix(corr, corr_path, meta=r.meta | {"plane": "energy_t0"})
    corr_ppm = r.out / "corrmatrix.ppm"
    span = min(float(np.abs(corr).max()), 0.3)
    corr_ppm.write_bytes(render_heatmap(corr, DIVERGING, -span, span))
    paths = [corr_path, corr_ppm]
    for snap in r.config.grid.snapshots_tau:
        grid = density_matrix_grid(r.state, x, x, snap * r.tau, r.config.deco)
        # shortest round-trip digits: distinct snapshots name distinct files
        tag = np.format_float_positional(snap, trim="-")
        meta = r.meta | {"t_tau": tag}
        re_csv = r.out / f"densmat_re_t{tag}.csv"
        im_csv = r.out / f"densmat_im_t{tag}.csv"
        real = grid.values.real
        csvio.write_plane(x, x, real, re_csv, meta=meta | {"plane": "real"})
        csvio.write_plane(x, x, grid.values.imag, im_csv, meta=meta | {"plane": "imag"})
        ppm = r.out / f"densmat_re_t{tag}.ppm"
        span = max(-float(real.min()), float(real.max()))  # two reductions, no |real| copy
        ppm.write_bytes(render_heatmap(real, DIVERGING, -span, span))
        paths += [re_csv, im_csv, ppm]
    return paths


def _product_purity(r: _Run) -> list[Path]:
    path = r.out / "purity.csv"
    csvio.write_purity_curve(r.purity, path, meta=r.meta)
    return [path]


def _product_fit(r: _Run) -> list[Path]:
    fit = fit_purity(r.purity, r.config.fit)
    fit_path = r.out / "purity_fit.csv"
    csvio.write_fit(fit, fit_path, meta=r.meta)
    curve_path = r.out / "purity_fit_curve.csv"
    csvio.write_fit_curve(r.purity, fit, curve_path, meta=r.meta)
    return [fit_path, curve_path]


def _product_sweep(r: _Run) -> list[Path]:
    c = r.config
    rows = sweep_x0(c.signal, c.sweep.values(c.signal, c.cavity), c.cavity, c.deco, c.fit, N=c.n_modes,
                    renormalize=c.renormalize)
    path = r.out / "sweep.csv"
    csvio.write_sweep(rows, path, meta=r.meta)
    return [path]


def _product_decaymap(r: _Run) -> list[Path]:
    times = decay_time_map(r.config.cavity, r.config.deco, r.config.n_modes)
    csv_path = r.out / "decay_times.csv"
    csvio.write_mode_matrix(times, csv_path, meta=r.meta)
    # image on a log scale; the never-decaying diagonal takes the top color,
    # and a one-mode map, which is all diagonal, the middle one
    logt = np.log10(times)
    finite = np.isfinite(logt)
    top = float(logt[finite].max()) if finite.any() else 0.0
    ppm_path = r.out / "decay_times.ppm"
    image = np.where(finite, logt, top)
    ppm_path.write_bytes(render_heatmap(image, SEQUENTIAL, float(image.min()), top))
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

    Products run one after another and share one ``_Run``.  ``parallelism``
    is accepted for compatibility and ignored.  Returns the manifest:
    per-product lists of absolute file paths, sha256 checksums, and any
    per-product failure messages (callers map failures to a nonzero exit).
    """
    _check_spec(config, RunConfig, "run configuration")
    if not config.output.products:
        raise CarpetError("no products requested")
    out = Path(config.output.directory).resolve()
    out.mkdir(parents=True, exist_ok=True)
    shared = _Run(config, out)

    products: dict[str, list[str]] = {}
    failures: dict[str, str] = {}
    checksums: dict[str, str] = {}
    for name in config.output.products:
        try:
            files = [str(p) for p in _PRODUCTS[name](shared)]
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
