"""Effective Markovian coherence damping for states evolving in the box.

Each mode pair (alpha, alpha') loses mutual coherence at a rate
beta = gamma * |E' - E| / hbar, so pairs with larger energy separation decay
faster; gamma is a dimensionless control knob.  An optional spatial term
exp(-Lambda (x - x')^2 t) additionally suppresses two-point correlations in
the position representation, with Lambda either given explicitly or set to
the standard localization rate 2 pi hbar / (m L^3).

The energy term leaves the energy populations untouched (no dissipation),
so the probability density relaxes toward the bare population mixture
``asymptotic_density`` instead of localizing.  The spatial term does not
keep the populations: it leaves the density on x = x' untouched and keeps
rho a density matrix (a Schur product with a positive definite kernel equal
to 1 on the diagonal), so its position purity is at most the energy purity;
but it adds hbar^2 Lambda t / m of energy per unit trace, because it
localizes without dissipating.

No quantity has a zero-rate path of its own: at gamma = 0, Lambda = 0 or
t = 0 every damping factor of ``_PairKernel``, ``_BeatSeries`` and
``density_matrix_grid`` is exactly 1, so the damped products give the
coherent bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import (CavityConfig, SpectralState, _beat_unit, _check_array, _check_count, _check_positions,
                       _check_real, _check_spec, _check_times, _ModeBasis)

#: Damping control reproducing beta * tau = (alpha'^2 - alpha^2) / 10.
DEFAULT_GAMMA = 2.0 / (5.0 * np.pi)


def localization_rate(cfg: CavityConfig) -> float:
    """Standard spatial localization rate for this cavity, 2 pi hbar / (m L^3)."""
    _check_spec(cfg, CavityConfig, "localization-rate cavity")
    return 2.0 * np.pi * cfg.hbar / (cfg.m * cfg.L**3)


@dataclass(frozen=True)
class DecoherenceParams:
    """Damping controls: energy-pair rate ``gamma`` and spatial rate ``lam``.

    ``lam`` is a nonnegative real (0 disables the spatial term) or the
    string 'formula', which takes the cavity's ``localization_rate``.
    """

    gamma: float = 0.0
    lam: float | str = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _check_real(self.gamma, "gamma", 0))
        if not (isinstance(self.lam, str) and self.lam == "formula"):
            object.__setattr__(self, "lam", _check_real(self.lam, "lambda", 0))

    def effective_lambda(self, cfg: CavityConfig) -> float:
        return localization_rate(cfg) if self.lam == "formula" else self.lam


def _check_params(params) -> DecoherenceParams:
    """The damping model of a public call; anything else, None included, is a ``DomainError``."""
    if not isinstance(params, DecoherenceParams):
        raise DomainError(f"damping model must be a DecoherenceParams, got {params!r}")
    return params


def beta(alpha: int, alpha_prime: int, params: DecoherenceParams, cfg: CavityConfig) -> float:
    """Coherence decay rate of the (alpha, alpha') pair, gamma * |E' - E| / hbar."""
    a = _check_count(alpha, "mode index", 1)
    b = _check_count(alpha_prime, "mode index", 1)
    _check_spec(cfg, CavityConfig, "beta cavity")
    return _check_params(params).gamma * _beat_unit(cfg) * abs(b**2 - a**2)


# ----------------------------------------------------------------------
# Pair-sum evaluation machinery shared by densities and velocity fields
# ----------------------------------------------------------------------


def _support(state: SpectralState):
    """Coefficients and mode basis restricted to modes with nonzero coefficients."""
    idx = np.nonzero(state.coeffs)[0]
    return state.coeffs[idx], _ModeBasis(idx + 1, state.cfg.L)


class _PairKernel:
    """Damped pair matrix of one state over its support modes.

    ``kernel(t)`` returns M_ab(t) = c_a c_b exp(-i (E_a - E_b) t / hbar)
    exp(-gamma t |E_a - E_b| / hbar).  The density is the x = x' reduction
    of phi M phi^T through Re M, the flux reduces Im M against the mode
    slopes, and the density matrix keeps the whole of M.  Everything that
    does not depend on t is formed once per state.
    """

    def __init__(self, state: SpectralState, gamma: float):
        cfg = state.cfg
        self.c, self.basis = _support(state)
        populated = state.coeffs != 0.0
        self.Eh = state.energies[populated] / cfg.hbar
        self.gamma = gamma
        # complex once here, so that no call casts it again
        self.W = np.outer(self.c, self.c).astype(complex)
        square = state.alphas[populated] ** 2
        self.absdEh = _beat_unit(cfg) * np.abs(square[:, None] - square[None, :])

    def __call__(self, t: float) -> np.ndarray:
        z = np.exp(-1j * self.Eh * t)
        M = z[:, None] * z.conj()
        M *= np.exp((-self.gamma * t) * self.absdEh)
        M *= self.W
        return M


# exp(-x) is exactly 0.0 in double precision for every x above this
_EXP_UNDERFLOW = 750.0


class _BeatSeries:
    """The pair matrix of one state folded onto its beat wavenumbers.

    With theta = pi (x + L/2) / L every mode is
    phi_a = s_a sqrt(2/L) sin(alpha_a theta), s_a = (-1)^floor(alpha_a / 2),
    so products of two modes are cosines of the beat wavenumbers
    n = alpha_b -+ alpha_a, and

        rho = sum_n C_n(t) cos(n theta),   sum_ab phi'_a Im M_ab phi_b = sum_n S_n(t) sin(n theta)

    for n = 0 .. 2 alpha_max.  Each support pair a < b, with
    w = (2/L) s_a s_b c_a c_b and the damped phase q = exp(-gamma omega t)
    (cos omega t, sin omega t), omega = (E_b - E_a) / hbar, adds w q_cos to
    C at alpha_b - alpha_a, subtracts it at alpha_a + alpha_b, and adds
    w q_sin (k_a + k_b) / 2 to S at alpha_b - alpha_a and w q_sin (k_a - k_b) / 2
    at alpha_a + alpha_b; the populations add c_a^2 / L to C_0 and
    subtract it at 2 alpha_a.  A row costs one fold over the pairs plus one
    product with a table built once per grid (``tables``).

    The pairs are sorted by omega, so the ones whose damping underflows to
    exactly zero form a tail that is skipped without changing a bit.
    """

    def __init__(self, state: SpectralState, gamma: float):
        cfg = state.cfg
        alpha = state.alphas[state.coeffs != 0.0]
        c = state.coeffs[alpha - 1]
        sc = np.where(alpha // 2 % 2 == 0, c, -c)
        a, b = np.triu_indices(alpha.size, 1)
        beat = alpha[b] ** 2 - alpha[a] ** 2
        order = np.argsort(beat, kind="stable")
        a, b = a[order], b[order]
        self.omega = _beat_unit(cfg) * beat[order]
        self.minus = alpha[b] - alpha[a]
        self.plus = alpha[a] + alpha[b]
        self.w = (2.0 / cfg.L) * sc[a] * sc[b]
        self.size = 2 * int(alpha.max(initial=0)) + 1
        self.base = np.zeros(self.size)
        self.base[0] = np.sum(c**2) / cfg.L
        self.base[2 * alpha] = -(c**2) / cfg.L
        self.gamma = gamma
        self.half_width = cfg.half_width

    def coefficients(self, t: float, flux: bool = False):
        """C(t), and with ``flux`` also S(t), each of length ``size``."""
        omega, minus, plus, w = self.omega, self.minus, self.plus, self.w
        rate = self.gamma * t
        if rate:  # the underflow cut divides by the rate
            p = int(np.searchsorted(omega, _EXP_UNDERFLOW / rate, side="right"))
            omega, minus, plus = omega[:p], minus[:p], plus[:p]
            w = w[:p] * np.exp(-rate * omega)
        phase = omega * t
        q = np.cos(phase) * w
        C = self.base + np.bincount(minus, q, self.size) - np.bincount(plus, q, self.size)
        if not flux:
            return C
        q = np.sin(phase) * w
        # (k_a + k_b) / 2 = half_k (alpha_a + alpha_b), (k_a - k_b) / 2 = -half_k (alpha_b - alpha_a)
        half_k = np.pi / (4.0 * self.half_width)
        S = half_k * (np.bincount(minus, q * plus, self.size) - np.bincount(plus, q * minus, self.size))
        return C, S

    def tables(self, x: np.ndarray, flux: bool = False):
        """Tables of shape (size, len(x)): rho = C @ table, and with ``flux``
        the flux numerator is S @ sine.

        Each point is evaluated from its nearer wall, where the carpet has a
        node.  Left of the center rho = -2 sum_n C_n sin^2(n theta / 2),
        since sum_n C_n = 0.  Right of it, with theta_w = pi (L/2 - x) / L,
        cos(n theta) = (-1)^n cos(n theta_w), sum_n (-1)^n C_n = 0 and
        sin(n theta) = -(-1)^n sin(n theta_w).  So the density and flux
        near a wall are sums of small terms, not cancellations of order-one
        ones.  The sines of the multiples of theta / 2 and theta are built
        by angle addition (``_sine_rows``).
        """
        right = x > 0.0
        half = np.where(right, self.half_width - x, x + self.half_width) * (np.pi / (4.0 * self.half_width))
        table = _sine_rows(self.size, half)
        np.square(table, out=table)
        table *= -2.0
        odd = table[1::2]
        np.negative(odd, out=odd, where=right)
        if not flux:
            return table
        sine = _sine_rows(self.size, 2.0 * half)
        even = sine[0::2]
        np.negative(even, out=even, where=right)
        return table, sine


# multiples of an angle per block of the angle-addition sine table
_ANGLE_BLOCK = 40


def _sine_rows(size: int, h: np.ndarray) -> np.ndarray:
    """sin(n h) for n = 0 .. size - 1, one row per n, by angle addition.

    With n = B q + r, B = ``_ANGLE_BLOCK``, a = B q h and b = r h,
    sin(n h) = sin a + (cos a sin b - sin a 2 sin^2(b / 2)), so sin and cos
    run on B + size / B rows instead of sin on size rows.  Like sin(n h)
    itself, sin a carries the rounding of the product B q h; the bracket
    adds a few roundings of numbers no larger than |sin b| + b^2 / 2.  The
    first block (q = 0) is sin(r h) exactly.
    """
    b = np.arange(min(size, _ANGLE_BLOCK), dtype=float)[:, None] * h
    sin_b = np.sin(b)
    vers_b = np.sin(0.5 * b)
    np.square(vers_b, out=vers_b)
    vers_b *= 2.0
    a = np.arange(0, size, _ANGLE_BLOCK, dtype=float)[:, None] * h
    sin_a, cos_a = np.sin(a), np.cos(a)
    out = np.empty((size, h.size))
    scratch = np.empty_like(sin_b)
    for q, start in enumerate(range(0, size, _ANGLE_BLOCK)):
        rows = out[start:start + _ANGLE_BLOCK]
        m = rows.shape[0]
        np.multiply(sin_b[:m], cos_a[q], out=rows)
        np.multiply(vers_b[:m], sin_a[q], out=scratch[:m])
        rows -= scratch[:m]
        rows += sin_a[q]
    return out


# rows per matrix product of ``_row_blocks``
_ROW_BLOCK = 32


def _row_blocks(rows, tables):
    """Products of coefficient rows with per-grid tables, in fixed-shape blocks.

    ``rows`` yields, per row, one coefficient vector for each of ``tables``.
    For each block of up to ``_ROW_BLOCK`` consecutive rows this yields
    (start, stop, products), products[k] holding the rows start .. stop - 1
    of coefficients_k @ tables[k].  They are views of buffers that the next
    block overwrites.  Each block is copied into one reusable, zero-padded
    (_ROW_BLOCK, size) buffer per table, so every product has one shape and
    a row's bits do not depend on which rows, or how many, come with it.
    """
    coeffs = [np.zeros((_ROW_BLOCK, table.shape[0])) for table in tables]
    products = [np.empty((_ROW_BLOCK, table.shape[1])) for table in tables]
    rows = iter(rows)
    start = 0
    while True:
        m = 0
        for row in itertools.islice(rows, _ROW_BLOCK):
            for buffer, c in zip(coeffs, row):
                buffer[m] = c
            m += 1
        if m == 0:
            return
        for buffer, product, table in zip(coeffs, products, tables):
            buffer[m:] = 0.0
            np.matmul(buffer, table, out=product)
        yield start, start + m, [product[:m] for product in products]
        start += m


def density_map(
    state: SpectralState, x: np.ndarray, times: np.ndarray, params: DecoherenceParams = DecoherenceParams()
) -> np.ndarray:
    """Damped pair-sum density on the (t, x) grid; row j holds the profile at times[j].

    Sums populations plus all pairwise coherence terms as a beat-wavenumber
    series (``_BeatSeries``); the spatial damping rate ``params.lam`` never
    enters because the density lives on the x = x' diagonal.  The rows are
    reduced in blocks of ``_ROW_BLOCK`` (``_row_blocks``), so row j has the
    same bits whatever other times come with times[j], and in whatever order.
    """
    _check_spec(state, SpectralState, "density map state")
    xv = _check_positions(x, state.cfg)
    times = _check_times(times)
    series = _BeatSeries(state, _check_params(params).gamma)
    out = np.empty((times.size, xv.size))
    coefficients = ((series.coefficients(float(t)),) for t in times)
    for start, stop, (rho,) in _row_blocks(coefficients, (series.tables(xv),)):
        out[start:stop] = rho
    return _clamp_density(out)


def asymptotic_density(state: SpectralState, x):
    """Long-time density: the populations' share of the density series.

    That is the bare population-weighted sum of squared modes, the
    ``_BeatSeries.base`` coefficients alone, reduced by ``_row_blocks`` like
    a ``density_map`` row.  So every ``density_map`` row at a time where
    each pair's damping has underflowed equals it bit for bit.
    """
    _check_spec(state, SpectralState, "asymptotic density state")
    xv = _check_positions(x, state.cfg)
    series = _BeatSeries(state, 0.0)
    _, _, (rho,) = next(_row_blocks([(series.base,)], (series.tables(xv),)))
    rho = _clamp_density(rho[0])
    return rho if np.ndim(x) else float(rho[0])


@dataclass(frozen=True, eq=False)
class DensityMatrixGrid:
    """Position-representation density matrix sampled on an (x, x') grid."""

    x: np.ndarray
    x_prime: np.ndarray
    t: float
    values: np.ndarray

    def __post_init__(self):
        x, x_prime = _check_array(self.x, "density-matrix x"), _check_array(self.x_prime, "density-matrix x_prime")
        t = _check_real(self.t, "density-matrix t", 0)
        v = np.asarray(self.values)
        if v.shape != (x.size, x_prime.size):
            raise DomainError("density-matrix values must have shape (len(x), len(x_prime))")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_prime", x_prime)
        object.__setattr__(self, "t", t)


def density_matrix_grid(
    state: SpectralState,
    x: np.ndarray,
    x_prime: np.ndarray,
    t: float,
    params: DecoherenceParams,
) -> DensityMatrixGrid:
    """Evaluate rho(x, x'; t) on the tensor grid of the two position axes.

    The mode sum carries the pair phases and energy damping (``_PairKernel``);
    the spatial damping factorizes out as exp(-Lambda (x - x')^2 t) on the grid.
    """
    _check_spec(state, SpectralState, "density matrix state")
    t = _check_real(t, "time", 0)
    xv = _check_positions(x, state.cfg)
    xpv = _check_positions(x_prime, state.cfg)
    kernel = _PairKernel(state, _check_params(params).gamma)
    phi_x, _ = kernel.basis(xv)
    phi_xp, _ = kernel.basis(xpv)
    # a state with no nonzero coefficient has a zero-length mode axis: a zero grid
    values = phi_x @ kernel(t) @ phi_xp.T
    values *= np.exp(-params.effective_lambda(state.cfg) * t * (xv[:, None] - xpv[None, :]) ** 2)
    return DensityMatrixGrid(xv, xpv, t, values)


def _clamp_density(rho: np.ndarray) -> np.ndarray:
    low = float(rho.min()) if rho.size else 0.0
    if low < -1e-12:
        raise DomainError(f"density evaluation produced {low:.3e}; inconsistent state")
    return np.maximum(rho, 0.0)
