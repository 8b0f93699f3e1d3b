"""CSV serialization with self-describing comment headers.

All files use '.' decimals, 17-significant-digit floats (exact round trip),
'#'-prefixed comment lines, and '\n' line endings, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import itertools

import numpy as np

from .decoherence import DecoherenceParams
from .errors import DomainError
from .evolution import CarpetGrid
from .spectral import CavityConfig, InputSignalSpec, SpectralState


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def _data_lines(first, rows):
    """Lines 'first_i,row_i...' with every value written as ``fmt`` writes it.

    One '%' template serves the whole file: '%.17g' and ``fmt`` give the same
    text for every float, nan, the infinities, -0 and subnormals included.
    The lines are made one at a time, as ``_write`` writes them, so a large
    grid is never held as text in memory.
    """
    rows = np.asarray(rows, dtype=float)
    first = np.asarray(first, dtype=float).tolist()
    tmpl = "%.17g," + ",".join(["%.17g"] * rows.shape[1])
    return (tmpl % (lead, *row.tolist()) for lead, row in zip(first, rows))


def _write(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _meta_line(pairs: dict) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in pairs.items())


def _parse_meta(line: str) -> dict:
    out = {}
    for token in line.lstrip("#").split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


# -- spectral states ----------------------------------------------------


def write_spectral_state(state: SpectralState, path) -> None:
    sig = state.signal
    lines = [
        _meta_line({"m": fmt(state.cfg.m), "hbar": fmt(state.cfg.hbar), "L": fmt(state.cfg.L)}),
        _meta_line(
            {
                "N": state.N,
                "w": fmt(sig.w) if sig else "nan",
                "x0": fmt(sig.x0) if sig else "nan",
                "kind": sig.kind if sig else "custom",
            }
        ),
        "# alpha,parity,c_alpha",
    ]
    for alpha, c in zip(state.alphas, state.coeffs):
        parity = "even" if alpha % 2 == 1 else "odd"
        lines.append(f"{alpha},{parity},{fmt(c)}")
    _write(path, lines)


def read_spectral_state(path) -> SpectralState:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 4 or not all(lines[i].startswith("#") for i in range(3)):
        raise DomainError(f"{path}: expected a 3-line header followed by coefficient rows")
    head = _parse_meta(lines[0]) | _parse_meta(lines[1])
    cfg = CavityConfig(m=float(head["m"]), hbar=float(head["hbar"]), L=float(head["L"]))
    signal = None
    if head.get("kind") in ("single", "double"):
        signal = InputSignalSpec(kind=head["kind"], x0=float(head["x0"]), w=float(head["w"]))
    coeffs = np.zeros(int(head["N"]))
    for row in lines[3:]:
        alpha_s, _, c_s = row.split(",")
        coeffs[int(alpha_s) - 1] = float(c_s)
    return SpectralState(cfg=cfg, coeffs=coeffs, signal=signal)


# -- grids ---------------------------------------------------------------


def write_carpet(cp: CarpetGrid, path, meta: dict | None = None) -> None:
    """First data row lists the x grid, each following row is t then values."""
    lines = [_meta_line({"quantity": cp.quantity, **(meta or {})})]
    lines.append("t," + ",".join(fmt(x) for x in cp.grid.x))
    _write(path, itertools.chain(lines, _data_lines(cp.grid.t, cp.values)))


def write_plane(x, x_prime, values, path, meta: dict | None = None) -> None:
    """Real-valued matrix over two position axes (density-matrix planes)."""
    lines = [_meta_line(meta or {})]
    lines.append("x," + ",".join(fmt(v) for v in np.atleast_1d(x_prime)))
    _write(path, itertools.chain(lines, _data_lines(np.atleast_1d(x), values)))


def write_mode_matrix(matrix: np.ndarray, path, meta: dict | None = None) -> None:
    """Square mode-indexed matrix; infinities are written as the 'inf' sentinel."""
    n = matrix.shape[0]
    lines = [_meta_line(meta or {})]
    lines.append("alpha," + ",".join(str(a) for a in range(1, n + 1)))
    for a, row in enumerate(matrix, start=1):
        lines.append(str(a) + "," + ",".join("inf" if np.isinf(v) else fmt(v) for v in row))
    _write(path, lines)


# -- trajectories ---------------------------------------------------------


def write_ensemble(trajectories, sample_times, path, meta_path, meta: dict | None = None) -> None:
    """Columns t, x_1..x_n; a sidecar records seed and status per trajectory.

    Samples a truncated trajectory never reached are written as 'nan'.
    """
    n = len(trajectories)
    sample_times = np.asarray(sample_times, dtype=float)
    cols = np.full((sample_times.size, n), np.nan)
    for j, tr in enumerate(trajectories):
        cols[: tr.times.size, j] = tr.positions
        if tr.times.size and not np.array_equal(tr.times, sample_times[: tr.times.size]):
            raise DomainError("trajectory samples do not align with the common grid")
    lines = [_meta_line(meta or {})]
    lines.append("t," + ",".join(f"x_{j}" for j in range(1, n + 1)))
    _write(path, itertools.chain(lines, _data_lines(sample_times, cols)))

    side = ["# index,x0,status,last_time"]
    for j, tr in enumerate(trajectories, start=1):
        last = tr.times[-1] if tr.times.size else np.nan
        side.append(f"{j},{fmt(tr.x0)},{tr.status},{fmt(last)}")
    _write(meta_path, side)


# -- tables ----------------------------------------------------------------


def write_purity_curve(curve, path, meta: dict | None = None) -> None:
    lines = [_meta_line(meta or {}), "t,chi"]
    for t, v in zip(curve.times, curve.values):
        lines.append(f"{fmt(t)},{fmt(v)}")
    _write(path, lines)


def write_fit(fit, path, meta: dict | None = None) -> None:
    lines = [_meta_line(meta or {}), "parameter,value"]
    lines.append(f"chi0,{fmt(fit.chi0)}")
    for i, (amp, ts) in enumerate(zip(fit.amplitudes, fit.timescales), start=1):
        lines.append(f"chi{i},{fmt(amp)}")
        lines.append(f"t{i},{fmt(ts)}")
    lines.append(f"t0,{fmt(fit.t0)}")
    lines.append(f"rms_residual,{fmt(fit.residual)}")
    _write(path, lines)


def write_fit_curve(curve, fit, path, meta: dict | None = None) -> None:
    """Purity samples next to the fitted model evaluated at the same times."""
    lines = [_meta_line(meta or {}), "t,chi,model"]
    for t, v, mv in zip(curve.times, curve.values, fit.evaluate(curve.times)):
        lines.append(f"{fmt(t)},{fmt(v)},{fmt(mv)}")
    _write(path, lines)


def write_sweep(rows, path, meta: dict | None = None) -> None:
    lines = [_meta_line(meta or {}), "x0,chi_inf,t1,t2,t3,rms_residual,error"]
    for r in rows:
        err = r.error or ""
        lines.append(
            f"{fmt(r.x0)},{fmt(r.chi_inf)},{fmt(r.t1)},{fmt(r.t2)},{fmt(r.t3)},{fmt(r.residual)},{err}"
        )
    _write(path, lines)


def standard_meta(cfg: CavityConfig, signal: InputSignalSpec | None, N: int, params: DecoherenceParams) -> dict:
    """Run parameters echoed into every exported file."""
    meta = {
        "m": fmt(cfg.m),
        "hbar": fmt(cfg.hbar),
        "L": fmt(cfg.L),
        "N": N,
        "gamma": fmt(params.gamma),
        "lambda": fmt(params.effective_lambda(cfg)),
    }
    if signal is not None:
        meta.update({"kind": signal.kind, "x0": fmt(signal.x0), "w": fmt(signal.w)})
    return meta
