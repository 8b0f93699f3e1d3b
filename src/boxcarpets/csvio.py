"""CSV serialization with self-describing comment headers.

All files use '.' decimals, 17-significant-digit floats (exact round trip),
'#'-prefixed comment lines, and '\n' line endings, so identical inputs
produce byte-identical files.  Every float is written as ``fmt`` writes it,
the text of ``'%.17g'``: nan, inf, -inf, -0 and subnormals included (the
mode matrices too, so -inf is '-inf' there).

Metadata and the tables with text columns (the fit parameters, the sweep
and the trajectories' ``.meta`` sidecar) call ``fmt`` value by value.
Every all-numeric table (carpets, density-matrix planes, trajectory
ensembles, mode matrices, purity and fit curves, and the axis lines) goes
through the bulk formatter ``_format_rows``, a block of rows at a time
(``_write_grid``), with the same bytes.
"""

from __future__ import annotations

import numpy as np

from .decoherence import DecoherenceParams, _check_params
from .errors import DomainError
from .evolution import CarpetGrid
from .spectral import CavityConfig, InputSignalSpec, _check_spec


def fmt(value: float) -> str:
    return format(float(value), ".17g")


# -- bulk float formatting ------------------------------------------------------

# Powers of ten 10^p = (_HI[i] + _LO[i]) * 2^_EXP[i], i = p - _P_MIN, with
# _HI in [1, 2) and a relative error below 2^-104.  The range covers
# p = 16 - floor(log10|x|) for every finite nonzero float64 x.
_P_MIN, _P_MAX = -292, 340
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# |fraction - 1/2| at or below this goes to fmt: the scaled value's error is
# under 1e-14, and exact ties (2**-25, for one) need round-half-even
_TIE_TOL = 1e-12
# scaled values this close to 1e16 or 1e17 go to fmt, so the decimal
# exponent never moves in rounding
_EDGE = 64.0
# A formatted block has at least _BLOCK_ROWS rows and, in a narrow table, about
# _BLOCK_VALUES values, the first column included: a formatter call costs about
# 100 us besides its values, and its temporaries about 420 bytes per value
# (3.3 MiB for 8 rows of a 1001-column carpet)
_BLOCK_ROWS = 8
_BLOCK_VALUES = 1024


def _power_table():
    hi, lo, exp = [], [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            num = 10**p
            e = num.bit_length() - 1  # 2^e <= 10^p < 2^(e+1)
            q = num << (120 - e) if e <= 120 else num >> (e - 120)
        else:
            den = 10**-p
            e = -den.bit_length()  # 2^e < 10^p < 2^(e+1): den is no power of two
            q = (1 << (120 - e)) // den
        # q = floor(10^p * 2^(120 - e)), in [2^120, 2^121): its top 53 bits
        # are the head, the other 68 (rounded to 53) the tail
        head = q >> 68
        hi.append(head * 2.0**-52)
        lo.append((q - (head << 68)) * 2.0**-120)
        exp.append(e)
    hi = np.array(hi)
    split = hi * _SPLIT
    hi_hi = split - (split - hi)
    return hi, hi_hi, hi - hi_hi, np.array(lo), np.array(exp, dtype=np.int32)


_HI, _HI_HI, _HI_LO, _LO, _EXP = _power_table()


def _quads():
    """'0000'..'9999' as little-endian 4-byte words."""
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        chars[..., place] = digits.reshape([10 if i == place else 1 for i in range(4)])
    return chars.view("<u4").ravel()


_QUADS = _quads()

# Byte columns of a value's 32-byte source row: 17 digits d0..d16 at
# 3..19, then '.', '0', '-', 'e', the exponent sign, three exponent digits,
# the separator, and NUL padding.
_DIGIT0, _DOT, _ZERO, _MINUS, _E, _ESIGN, _EXP_DIGITS, _SEP, _NUL = 3, 20, 21, 22, 23, 24, 25, 28, 29
_SRC_WIDTH, _OUT_WIDTH = 32, 25
_FIXED_KEYS = 21  # layout keys 0..20: fixed notation, decimal exponent X = key - 4
_CONST_WORD = np.frombuffer(b".0-e", dtype="<u4")[0]


def _layouts():
    """Source columns of the output bytes, one row per (key, digit count, sign).

    Keys 0..20 are the fixed notation with decimal exponent X = key - 4;
    key 21 is the exponent notation with two exponent digits and key 22
    with three.  ``%g`` drops trailing zeros and a bare point, so a row
    takes the first ``nd`` significant digits; unused output bytes read
    the NUL column.
    """
    digits = bytes(range(_DIGIT0, _DIGIT0 + 17))
    dot, zero, nul = bytes([_DOT]), bytes([_ZERO]), bytes([_NUL])
    rows = []
    for key in range(_FIXED_KEYS + 2):
        for nd in range(18):
            if key >= _FIXED_KEYS:  # d.ddde+XX
                cols = digits[:1] + (dot + digits[1:nd] if nd > 1 else b"") + bytes([_E, _ESIGN])
                cols += bytes(range(_EXP_DIGITS + (key == _FIXED_KEYS), _EXP_DIGITS + 3))
            elif key >= 4:  # X + 1 digits before the point
                whole = key - 3
                cols = digits[:whole] + (dot + digits[whole:nd] if nd > whole else b"")
            else:  # 0.000ddd
                cols = zero + dot + zero * (3 - key) + digits[:nd]
            cols += bytes([_SEP])
            rows += [cols.ljust(_OUT_WIDTH, nul), (bytes([_MINUS]) + cols).ljust(_OUT_WIDTH, nul)]
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, _OUT_WIDTH)


_LAYOUTS = _layouts()


def _scale(a, k):
    """Head and tail of a * 10^(16 - k), whose sum is the exact product to
    within 2e-14; where the product lies in [1e16, 1e17), ``head`` is an
    even integer and ``|tail|`` is below 32."""
    i = 16 - k - _P_MIN
    scaled = np.ldexp(a, _EXP[i])  # exact: the result is near 1e16
    split = scaled * _SPLIT
    s_hi = split - (split - scaled)
    s_lo = scaled - s_hi
    head = scaled * _HI[i]
    err = ((s_hi * _HI_HI[i] - head) + s_hi * _HI_LO[i] + s_lo * _HI_HI[i]) + s_lo * _HI_LO[i]
    return head, err + scaled * _LO[i]


def _format_rows(first, rows) -> bytes:
    """Lines 'first_i,row_i...\n', every value written as ``fmt`` writes it.

    Each value is scaled by a power of ten held as a double-double
    (``_scale``), with Veltkamp's split and Dekker's exact two-product
    (Dekker, Numer. Math. 18 (1971) 224), which gives its 17 correctly
    rounded digits; a table of byte layouts (``_LAYOUTS``) spells them out
    by the ``%g`` rules.  Zeros stay on this route.  A value whose rounding
    is in doubt (its fraction within ``_TIE_TOL`` of one half, or its scaled
    value next to a power of ten), nan and inf go to ``fmt`` inside the same
    call, so the bytes never depend on the route.
    """
    rows = np.asarray(rows, dtype=float)
    block = np.empty((rows.shape[0], rows.shape[1] + 1))
    block[:, 0] = first
    block[:, 1:] = rows
    values = block.ravel()
    seps = np.full(block.shape, ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    n = values.size
    neg = np.signbit(values)
    a = np.abs(values)
    finite = np.isfinite(a)
    zero = a == 0.0
    fast = finite & ~zero
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    head, tail = _scale(a, k)
    # log10 may be one off next to a power of ten: rescale those values once
    off = (head >= 1e17).astype(np.int64) - (head < 1e16)
    redo = np.flatnonzero(off)
    k[redo] = np.clip(k[redo] + off[redo], 16 - _P_MAX, 16 - _P_MIN)
    head[redo], tail[redo] = _scale(a[redo], k[redo])
    floor = np.floor(tail)
    frac = tail - floor
    slow = fast & ((head < 1e16 + _EDGE) | (head > 1e17 - _EDGE) | (np.abs(frac - 0.5) <= _TIE_TOL))
    slow |= ~finite
    # round to nearest; ties and near-ties are on the fmt route
    digits = head.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    digits[slow | zero] = 0
    k[zero] = 0

    src = np.empty((n, _SRC_WIDTH), dtype=np.uint8)
    words = src.view("<u4")
    upper, lower = np.divmod(digits, 100_000_000)
    lead, upper = np.divmod(upper, 100_000_000)
    words[:, 0] = np.take(_QUADS, lead)
    words[:, 1] = np.take(_QUADS, upper // 10000)
    words[:, 2] = np.take(_QUADS, upper % 10000)
    words[:, 3] = np.take(_QUADS, lower // 10000)
    words[:, 4] = np.take(_QUADS, lower % 10000)
    words[:, 5] = _CONST_WORD
    words[:, 6] = np.take(_QUADS, np.abs(k))  # its leading '0' becomes the exponent's sign
    words[:, 7] = seps  # the separator, then NUL
    src[:, _ESIGN] = np.where(k < 0, ord("-"), ord("+"))

    ndig = np.full(n, 17, dtype=np.int64)
    trailing = np.flatnonzero(digits % 10 == 0)
    nonzero = src[trailing, _DIGIT0 + 16 : _DIGIT0 - 1 : -1] != ord("0")
    ndig[trailing] = np.where(zero[trailing], 1, 17 - nonzero.argmax(axis=1))
    key = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, _FIXED_KEYS, _FIXED_KEYS + 1))
    layout = np.take(_LAYOUTS, (key * 18 + ndig) * 2 + neg, axis=0) + (np.arange(n) * _SRC_WIDTH)[:, None]
    out = np.take(src.ravel(), layout)

    for i in np.flatnonzero(slow):
        text = fmt(values[i]).encode() + bytes([seps[i]])
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out[out != 0].tobytes()


def _grid_line(label: str, values) -> bytes:
    """Header line 'label,v_1,...,v_n' of an axis grid."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return label.encode() + b"," + _format_rows(values[:1], values[None, 1:])


def _write_grid(path, head: bytes, first, rows) -> None:
    """``head`` then the data rows, formatted a block at a time so that a
    large grid is never held as text in memory."""
    step = max(_BLOCK_ROWS, _BLOCK_VALUES // (np.shape(rows)[1] + 1))
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, len(first), step):
            stop = start + step
            fh.write(_format_rows(first[start:stop], rows[start:stop]))


def _write(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _meta_line(pairs: dict) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in pairs.items())


# -- grids ---------------------------------------------------------------


def write_carpet(cp: CarpetGrid, path, meta: dict | None = None) -> None:
    """First data row lists the x grid, each following row is t then values."""
    _check_spec(cp, CarpetGrid, "written carpet")
    head = _meta_line({"quantity": cp.quantity, **(meta or {})}) + "\n"
    _write_grid(path, head.encode() + _grid_line("t", cp.grid.x), cp.grid.t, cp.values)


def write_plane(x, x_prime, values, path, meta: dict | None = None) -> None:
    """Real-valued matrix over two position axes (density-matrix planes)."""
    head = _meta_line(meta or {}) + "\n"
    _write_grid(path, head.encode() + _grid_line("x", x_prime), np.atleast_1d(x), values)


def write_mode_matrix(matrix: np.ndarray, path, meta: dict | None = None) -> None:
    """Square mode-indexed matrix; infinities are written 'inf' and '-inf'."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    head = _meta_line(meta or {}) + "\nalpha," + ",".join(str(a) for a in range(1, n + 1)) + "\n"
    _write_grid(path, head.encode(), np.arange(1, n + 1), matrix)


# -- trajectories ---------------------------------------------------------


def write_ensemble(trajectories, sample_times, path, meta_path, meta: dict | None = None) -> None:
    """Columns t, x_1..x_n; a sidecar records seed and status per trajectory.

    Samples a truncated trajectory never reached are written as 'nan'.
    """
    n = len(trajectories)
    sample_times = np.asarray(sample_times, dtype=float)
    cols = np.full((sample_times.size, n), np.nan)
    for j, tr in enumerate(trajectories):
        if tr.times.size and not np.array_equal(tr.times, sample_times[: tr.times.size]):
            raise DomainError("trajectory samples do not align with the common grid")
        cols[: tr.times.size, j] = tr.positions
    head = _meta_line(meta or {}) + "\nt," + ",".join(f"x_{j}" for j in range(1, n + 1)) + "\n"
    _write_grid(path, head.encode(), sample_times, cols)

    side = ["# index,x0,status,last_time"]
    for j, tr in enumerate(trajectories, start=1):
        last = tr.times[-1] if tr.times.size else np.nan
        side.append(f"{j},{fmt(tr.x0)},{tr.status},{fmt(last)}")
    _write(meta_path, side)


# -- tables ----------------------------------------------------------------


def write_purity_curve(curve, path, meta: dict | None = None) -> None:
    head = _meta_line(meta or {}) + "\nt,chi\n"
    _write_grid(path, head.encode(), curve.times, curve.values[:, None])


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
    head = _meta_line(meta or {}) + "\nt,chi,model\n"
    _write_grid(path, head.encode(), curve.times, np.column_stack([curve.values, fit.evaluate(curve.times)]))


def write_sweep(rows, path, meta: dict | None = None) -> None:
    lines = [_meta_line(meta or {}), "x0,chi_inf,t1,t2,t3,rms_residual,error"]
    for r in rows:
        err = r.error or ""
        lines.append(
            f"{fmt(r.x0)},{fmt(r.chi_inf)},{fmt(r.t1)},{fmt(r.t2)},{fmt(r.t3)},{fmt(r.residual)},{err}"
        )
    _write(path, lines)


def standard_meta(cfg: CavityConfig, signal: InputSignalSpec, N: int, params: DecoherenceParams) -> dict:
    """Run parameters echoed into every exported file."""
    _check_spec(cfg, CavityConfig, "metadata cavity")
    _check_spec(signal, InputSignalSpec, "metadata signal")
    return {
        "m": fmt(cfg.m),
        "hbar": fmt(cfg.hbar),
        "L": fmt(cfg.L),
        "N": N,
        "gamma": fmt(_check_params(params).gamma),
        "lambda": fmt(params.effective_lambda(cfg)),
        "kind": signal.kind,
        "x0": fmt(signal.x0),
        "w": fmt(signal.w),
    }
