"""Effective Markovian coherence damping for states evolving in the box.

Each mode pair (alpha, alpha') loses mutual coherence at a rate
beta = gamma * |E' - E| / hbar, so pairs with larger energy separation decay
faster; gamma is a dimensionless control knob.  An optional spatial term
exp(-Lambda (x - x')^2 t) additionally suppresses two-point correlations in
the position representation, with Lambda either given explicitly or set to
the standard localization rate 2 pi hbar / (m L^3).

Populations are untouched (no dissipation), so the probability density
relaxes toward the bare population mixture ``asymptotic_density`` instead of
localizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import CavityConfig, SpectralState, _ModeBasis, _check_count, _check_positions

#: Damping control reproducing beta * tau = (alpha'^2 - alpha^2) / 10.
DEFAULT_GAMMA = 2.0 / (5.0 * np.pi)


def localization_rate(cfg: CavityConfig) -> float:
    """Standard spatial localization rate for this cavity, 2 pi hbar / (m L^3)."""
    return 2.0 * np.pi * cfg.hbar / (cfg.m * cfg.L**3)


@dataclass(frozen=True)
class DecoherenceParams:
    """Damping controls: energy-pair rate ``gamma`` and spatial rate ``lam``.

    ``lambda_mode`` selects how the spatial rate is resolved: 'off' uses the
    explicit ``lam`` value (0 disables the term), 'formula' derives it from
    the cavity via ``localization_rate``.
    """

    gamma: float = 0.0
    lam: float = 0.0
    lambda_mode: str = "off"

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise DomainError(f"gamma must be nonnegative and finite, got {self.gamma!r}")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise DomainError(f"lambda must be nonnegative and finite, got {self.lam!r}")
        if self.lambda_mode not in ("off", "formula"):
            raise DomainError(f"lambda_mode must be 'off' or 'formula', got {self.lambda_mode!r}")

    @classmethod
    def coherent(cls) -> "DecoherenceParams":
        return cls(gamma=0.0, lam=0.0, lambda_mode="off")

    def effective_lambda(self, cfg: CavityConfig) -> float:
        if self.lambda_mode == "formula":
            return localization_rate(cfg)
        return self.lam


def beta(alpha: int, alpha_prime: int, params: DecoherenceParams, cfg: CavityConfig) -> float:
    """Coherence decay rate of the (alpha, alpha') pair, gamma * |E' - E| / hbar."""
    a = _check_count(alpha, "mode index", 1)
    b = _check_count(alpha_prime, "mode index", 1)
    return params.gamma * _beat_unit(cfg) * abs(b**2 - a**2)


def _beat_unit(cfg: CavityConfig) -> float:
    """(E_alpha' - E_alpha) / hbar per unit of alpha'^2 - alpha^2."""
    return cfg.hbar * np.pi**2 / (2.0 * cfg.m * cfg.L**2)


def damping_factor(
    alpha: int,
    alpha_prime: int,
    x: float,
    x_prime: float,
    t: float,
    params: DecoherenceParams,
    cfg: CavityConfig,
) -> float:
    """Pair damping exp(-beta t - Lambda (x - x')^2 t); equals 1 at t = 0."""
    _check_time(t)
    _check_positions(x, cfg)
    _check_positions(x_prime, cfg)
    lam = params.effective_lambda(cfg)
    exponent = beta(alpha, alpha_prime, params, cfg) * t + lam * (x - x_prime) ** 2 * t
    return float(np.exp(-exponent))


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
        E = (cfg.hbar * self.basis.k) ** 2 / (2.0 * cfg.m)
        self.Eh = E / cfg.hbar
        self.gamma = gamma
        # complex once here, so that no call casts it again
        self.W = np.outer(self.c, self.c).astype(complex)
        if gamma > 0.0:
            self.absdEh = np.abs(self.Eh[:, None] - self.Eh[None, :])

    def __call__(self, t: float) -> np.ndarray:
        z = np.exp(-1j * self.Eh * t)
        M = z[:, None] * z.conj()
        if self.gamma > 0.0 and t > 0.0:
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
        p = self.omega.size
        damped = self.gamma > 0.0 and t > 0.0
        if damped:
            p = int(np.searchsorted(self.omega, _EXP_UNDERFLOW / (self.gamma * t), side="right"))
        omega, minus, plus, w = self.omega[:p], self.minus[:p], self.plus[:p], self.w[:p]
        if damped:
            w = w * np.exp((-self.gamma * t) * omega)
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
        ones.
        """
        right = x > 0.0
        half = np.where(right, self.half_width - x, x + self.half_width) * (np.pi / (4.0 * self.half_width))
        n = np.arange(self.size, dtype=float)[:, None]
        table = np.empty((self.size, x.size))
        np.multiply(n, half, out=table)
        np.sin(table, out=table)
        np.square(table, out=table)
        table *= -2.0
        odd = table[1::2]
        np.negative(odd, out=odd, where=right)
        if not flux:
            return table
        sine = np.empty((self.size, x.size))
        np.multiply(n, 2.0 * half, out=sine)
        np.sin(sine, out=sine)
        even = sine[0::2]
        np.negative(even, out=even, where=right)
        return table, sine


def density_map(state: SpectralState, x: np.ndarray, times: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    """Damped pair-sum density on the (t, x) grid; row j holds the profile at times[j].

    Sums populations plus all pairwise coherence terms, folded onto the
    beat wavenumbers (``_BeatSeries``); the spatial damping rate never
    enters because the density lives on the x = x' diagonal.
    """
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & np.isfinite(times)):
        raise DomainError("times must be nonnegative and finite")
    series = _BeatSeries(state, gamma)
    table = series.tables(xv)
    out = np.empty((times.size, xv.size))
    for j, t in enumerate(times):
        out[j] = series.coefficients(float(t)) @ table
    return _clamp_density(out)


def decohered_density(state: SpectralState, x, t: float, params: DecoherenceParams):
    """Probability density under coherence damping (diagonal of the density matrix)."""
    _check_time(t)
    rho = density_map(state, x, [t], gamma=params.gamma)[0]
    return rho if np.ndim(x) else float(rho[0])


def asymptotic_density(state: SpectralState, x):
    """Long-time density: the populations' share of the density series.

    That is the bare population-weighted sum of squared modes, the
    ``_BeatSeries.base`` coefficients alone; ``density_map`` gives the same
    row, bit for bit, once every pair's damping has underflowed.
    """
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    series = _BeatSeries(state, 0.0)
    rho = _clamp_density(series.base @ series.tables(xv))
    return rho if np.ndim(x) else float(rho[0])


@dataclass(frozen=True, eq=False)
class DensityMatrixGrid:
    """Position-representation density matrix sampled on an (x, x') grid."""

    x: np.ndarray
    x_prime: np.ndarray
    t: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (np.size(self.x), np.size(self.x_prime)):
            raise DomainError("density-matrix values must have shape (len(x), len(x_prime))")


def density_matrix(state: SpectralState, x: float, x_prime: float, t: float, params: DecoherenceParams) -> complex:
    """Density-matrix element rho(x, x'; t) under the damping model."""
    grid = density_matrix_grid(state, np.array([x]), np.array([x_prime]), t, params)
    return complex(grid.values[0, 0])


def density_matrix_grid(
    state: SpectralState,
    x: np.ndarray,
    x_prime: np.ndarray,
    t: float,
    params: DecoherenceParams,
) -> DensityMatrixGrid:
    """Evaluate rho(x, x'; t) on the tensor grid of the two position axes.

    The mode sum carries the pair phases and energy damping; the spatial
    damping factorizes out as exp(-Lambda (x - x')^2 t) on the grid.
    """
    _check_time(t)
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    xpv = np.atleast_1d(_check_positions(x_prime, state.cfg))
    cfg = state.cfg
    kernel = _PairKernel(state, params.gamma)
    if kernel.c.size == 0:
        values = np.zeros((xv.size, xpv.size), dtype=complex)
        return DensityMatrixGrid(xv, xpv, float(t), values)
    phi_x, _ = kernel.basis(xv)
    phi_xp, _ = kernel.basis(xpv)
    values = phi_x @ kernel(float(t)) @ phi_xp.T
    lam = params.effective_lambda(cfg)
    if lam > 0.0 and t > 0.0:
        values = values * np.exp(-lam * t * (xv[:, None] - xpv[None, :]) ** 2)
    return DensityMatrixGrid(xv, xpv, float(t), values)


def _clamp_density(rho: np.ndarray) -> np.ndarray:
    low = float(rho.min()) if rho.size else 0.0
    if low < -1e-12:
        raise DomainError(f"density evaluation produced {low:.3e}; inconsistent state")
    return np.maximum(rho, 0.0)


def _check_time(t: float) -> float:
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"time must be nonnegative and finite, got {t!r}")
    return float(t)
