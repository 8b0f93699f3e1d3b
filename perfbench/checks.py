"""Output checks: every product run's files are read back from disk and tested.

Reference values come from the benchmark's own formulas: mode coefficients
by Gauss-Legendre projection of the signal, and densities and velocities by
a direct mode sum.  None of the package's kernels is called.  A check that
fails raises ``CheckFailed``; the caller counts any exception as a failed
product run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Tolerances, verified on the unmodified package at the workloads' inputs:
# sampled carpet rows agree with the direct sum to about 5e-15, and the
# trapezoid trace of a row with 1 - norm deficit to about 3e-16; velocity
# rows, away from nodes, to about 3e-13 relative.
ROW_ATOL = 1e-12
TRACE_ATOL = 1e-12
SYMMETRY_ATOL = 1e-12
# Velocities are compared where the density exceeds this share of its row
# maximum; closer to a node the field is ill-conditioned.
VELOCITY_DENSITY_FLOOR = 1e-6
VELOCITY_RTOL = 1e-9
NONCROSSING_SLACK = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- reading ------------------------------------------------------------------


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().rstrip(b"\n").split(b"\n")


def _floats(line: bytes) -> np.ndarray:
    return np.array(line.split(b","), dtype=np.bytes_).astype(float)


def _table(lines: list[bytes]) -> np.ndarray:
    return np.array(b",".join(lines).split(b","), dtype=np.bytes_).astype(float).reshape(len(lines), -1)


# -- reference physics ----------------------------------------------------------


def own_coefficients(config) -> np.ndarray:
    """c_alpha of a single half-cosine lobe by 256-point Gauss-Legendre quadrature."""
    sig, L, N = config.signal, config.cavity.L, config.n_modes
    _require(sig.kind == "single", "reference coefficients cover single lobes only")
    nodes, weights = np.polynomial.legendre.leggauss(256)
    x = sig.x0 + 0.5 * sig.w * nodes
    f = np.sqrt(2.0 / sig.w) * np.cos(np.pi * (x - sig.x0) / sig.w) * (0.5 * sig.w * weights)
    alphas = np.arange(1, N + 1)
    k = alphas * np.pi / L
    phi = np.sqrt(2.0 / L) * np.where(alphas % 2 == 1, np.cos(np.outer(x, k)), np.sin(np.outer(x, k)))
    return f @ phi


def _modes(config, x):
    alphas = np.arange(1, config.n_modes + 1)
    k = alphas * np.pi / config.cavity.L
    amp = np.sqrt(2.0 / config.cavity.L)
    odd = alphas % 2 == 1
    arg = np.outer(x, k)
    phi = amp * np.where(odd, np.cos(arg), np.sin(arg))
    dphi = amp * k * np.where(odd, -np.sin(arg), np.cos(arg))
    E = (config.cavity.hbar * k) ** 2 / (2.0 * config.cavity.m)
    return phi, dphi, E


def _pair_matrix(c, E, t, gamma, hbar):
    u = c * np.exp(-1j * E * t / hbar)
    U = np.outer(u, u.conj())
    if gamma > 0.0:
        U = U * np.exp(-gamma * t / hbar * np.abs(E[:, None] - E[None, :]))
    return U


def own_density(config, c, x, t) -> np.ndarray:
    phi, _, E = _modes(config, x)
    U = _pair_matrix(c, E, t, config.deco.gamma, config.cavity.hbar)
    return np.sum((phi @ U) * phi, axis=1).real


def own_velocity(config, c, x, t) -> tuple[np.ndarray, np.ndarray]:
    phi, dphi, E = _modes(config, x)
    U = _pair_matrix(c, E, t, config.deco.gamma, config.cavity.hbar)
    den = np.sum((phi @ U) * phi, axis=1).real
    num = np.sum((dphi @ U) * phi, axis=1).imag
    return config.cavity.hbar / config.cavity.m * num / den, den


# -- per product ----------------------------------------------------------------


def _check_ppm(name: str, data: bytes) -> None:
    magic, dims, depth, _ = data.split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    _require(magic == b"P6" and depth == b"255", f"{name}: not an 8-bit P6 pixmap")
    _require(len(data) == len(magic + dims + depth) + 3 + 3 * width * height, f"{name}: wrong size")


def _check_carpet(config, out: Path, options: dict, rng, seen: dict) -> None:
    quantity = config.output.quantity
    lines = _lines(out / f"carpet_{quantity}.csv")
    x = _floats(lines[1].split(b",", 1)[1])
    rows = lines[2:]
    grid = config.grid
    _require(x.size == grid.x_points and len(rows) == grid.t_points, "carpet has the wrong shape")
    if quantity == "density":
        # a negative value is the only field that starts with '-' after a comma
        _require(b",-" not in b"\n".join(rows), "density carpet has a negative value")
    c = own_coefficients(config)
    picks = {0, len(rows) - 1, *rng.choice(len(rows), size=options["rows"] - 2, replace=False).tolist()}
    for j in sorted(picks):
        row = _floats(rows[j])
        t, values = row[0], row[1:]
        if quantity == "density":
            ref = own_density(config, c, x, t)
            err = float(np.abs(values - ref).max())
            _require(err <= ROW_ATOL, f"density row {j} differs from the mode sum by {err:.3e}")
            trace = float(np.trapezoid(values, x))
            deficit = 1.0 - float(np.sum(c**2))
            _require(abs(trace - (1.0 - deficit)) <= TRACE_ATOL,
                     f"density row {j} integrates to {trace!r}, expected 1 - norm deficit = {1.0 - deficit!r}")
        else:
            ref, den = own_velocity(config, c, x, t)
            keep = den > VELOCITY_DENSITY_FLOOR * den.max()
            err = np.abs(values[keep] - ref[keep]) / np.maximum(1.0, np.abs(ref[keep]))
            _require(err.size == 0 or err.max() <= VELOCITY_RTOL,
                     f"velocity row {j} differs from the mode sum by {err.max():.3e}")


def _check_densmat(config, out: Path, options: dict, rng, seen: dict) -> None:
    for snap in config.grid.snapshots_tau:
        tag = format(snap, "g")
        re = _table(_lines(out / f"densmat_re_t{tag}.csv")[2:])[:, 1:]
        im = _table(_lines(out / f"densmat_im_t{tag}.csv")[2:])[:, 1:]
        _require(re.shape == im.shape == (401, 401), f"density matrix at t = {tag} tau has the wrong shape")
        asym = float(np.abs(re - re.T).max())
        _require(asym <= SYMMETRY_ATOL, f"real plane at t = {tag} tau is not symmetric ({asym:.3e})")
        sym = float(np.abs(im + im.T).max())
        _require(sym <= SYMMETRY_ATOL, f"imaginary plane at t = {tag} tau is not antisymmetric ({sym:.3e})")


def _check_trajectories(config, out: Path, options: dict, rng, seen: dict) -> None:
    meta = [ln.split(b",") for ln in _lines(out / "trajectories.meta")[1:]]
    statuses = [m[2].decode() for m in meta]
    seeds = np.array([float(m[1]) for m in meta])
    seen["seeded"] += len(statuses)
    seen["completed"] += statuses.count("completed")
    _require(all(s == "completed" for s in statuses), f"trajectory statuses {sorted(set(statuses))}")
    table = _table(_lines(out / "trajectories.csv")[2:])
    pos = table[:, 1:]
    _require(pos.shape == (config.grid.t_points, len(seeds)) and np.isfinite(pos).all(),
             "trajectory table has the wrong shape or missing samples")
    _require(np.abs(pos).max() <= config.cavity.L / 2.0, "a trajectory left the box")
    _require(np.array_equal(pos[0], seeds), "trajectories do not start at their seeds")
    _require(np.all(np.diff(pos, axis=1) >= -NONCROSSING_SLACK), "trajectories cross")
    if "return_tol" in options:
        drift = float(np.abs(pos[-1] - seeds).max())
        seen["coherent_return_max"] = max(seen["coherent_return_max"], drift)
        _require(drift <= options["return_tol"], f"coherent trajectories end {drift:.3e} from their seeds")


def _check_sweep(config, out: Path, options: dict, rng, seen: dict) -> None:
    rows = [ln.split(b",") for ln in _lines(out / "sweep.csv")[2:]]
    ok = [r for r in rows if r[6] == b""]
    seen["sweep_rows"] += len(rows)
    seen["sweep_rows_ok"] += len(ok)
    _require(len(rows) == config.sweep.values(config.signal.kind).size, "sweep has the wrong row count")
    _require(len(ok) == len(rows), f"{len(rows) - len(ok)} sweep rows carry an error")
    rms = [float(r[5]) for r in ok]
    seen["fit_rms_max"] = max([seen["fit_rms_max"], *rms])
    _require(max(rms) < options["rms_limit"], f"sweep fit rms {max(rms):.3e} reaches {options['rms_limit']}")


def _check_fit(config, out: Path, options: dict, rng, seen: dict) -> None:
    params = dict(ln.split(b",") for ln in _lines(out / "purity_fit.csv")[2:])
    ts = [float(params[f"t{i}".encode()]) for i in (1, 2, 3)]
    _require(0.0 < ts[0] < ts[1] < ts[2], f"fit timescales {ts} are not increasing")
    rms = float(params[b"rms_residual"])
    seen["fit_rms_max"] = max(seen["fit_rms_max"], rms)
    if "rms_limit" in options:
        _require(rms < options["rms_limit"], f"fit rms {rms:.3e} reaches {options['rms_limit']}")
    curve = _table(_lines(out / "purity_fit_curve.csv")[2:])
    _require(curve.shape == (config.fit.samples, 3), "fit curve has the wrong shape")


def _check_purity(config, out: Path, options: dict, rng, seen: dict) -> None:
    curve = _table(_lines(out / "purity.csv")[2:])
    chi = curve[:, 1]
    chi_inf = float(np.sum(own_coefficients(config) ** 4))
    _require(np.all(np.diff(chi) <= 1e-12), "purity increases")
    _require(chi.min() >= chi_inf - 1e-12 and chi.max() <= 1.0 + 1e-12,
             f"purity leaves [chi_inf, 1] = [{chi_inf:.6g}, 1]")


def _check_decaymap(config, out: Path, options: dict, rng, seen: dict) -> None:
    times = _table(_lines(out / "decay_times.csv")[2:])[:, 1:]
    n = config.n_modes
    _require(times.shape == (n, n), "decay map has the wrong shape")
    _require(np.all(np.isinf(np.diag(times))), "decay map diagonal is not inf")
    off = times[~np.eye(n, dtype=bool)]
    _require(np.all(np.isfinite(off) & (off > 0.0)), "decay map has a nonpositive or infinite pair time")
    _require(np.array_equal(times, times.T), "decay map is not symmetric")


_BY_PRODUCT = {
    "carpet": _check_carpet,
    "densmat": _check_densmat,
    "trajectories": _check_trajectories,
    "sweep": _check_sweep,
    "fit": _check_fit,
    "purity": _check_purity,
    "decaymap": _check_decaymap,
}


def new_observations() -> dict:
    """Counts the checks collect from the files of one pass."""
    return {"hashed_bytes": 0, "completed": 0, "seeded": 0, "coherent_return_max": 0.0,
            "sweep_rows": 0, "sweep_rows_ok": 0, "fit_rms_max": 0.0}


def check_run(config, out: Path, manifest: dict, options: dict, rng, seen: dict) -> None:
    """Check one product run: its manifest, checksums, pixmaps and product files."""
    on_disk = json.loads((out / "manifest.json").read_text())
    _require(on_disk == manifest, "manifest.json differs from the returned manifest")
    _require(not manifest["failures"], f"product failed: {manifest['failures']}")
    files = [Path(f) for f in sum(manifest["products"].values(), [])]
    _require(files, "no files written")
    for f in files:
        data = f.read_bytes()
        seen["hashed_bytes"] += len(data)
        _require(hashlib.sha256(data).hexdigest() == manifest["checksums"][f.name], f"{f.name}: checksum mismatch")
        if f.suffix == ".ppm":
            _check_ppm(f.name, data)
    (product,) = config.output.products
    _BY_PRODUCT[product](config, out, options, rng, seen)
