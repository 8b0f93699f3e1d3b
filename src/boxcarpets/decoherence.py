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
from .spectral import CavityConfig, SpectralState, _ModeBasis, _check_alpha, _check_positions

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
    a = _check_alpha(alpha)
    b = _check_alpha(alpha_prime)
    scale = cfg.hbar * np.pi**2 / (2.0 * cfg.m * cfg.L**2)
    return params.gamma * scale * abs(b**2 - a**2)


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


def density_map(state: SpectralState, x: np.ndarray, times: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    """Damped pair-sum density on the (t, x) grid; row j holds the profile at times[j].

    Sums populations plus all pairwise coherence terms; the spatial damping
    rate never enters because the density lives on the x = x' diagonal.
    """
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & np.isfinite(times)):
        raise DomainError("times must be nonnegative and finite")
    kernel = _PairKernel(state, gamma)
    out = np.empty((times.size, xv.size))
    if kernel.c.size == 0:
        out.fill(0.0)
        return out
    phi, _ = kernel.basis(xv)
    for j, t in enumerate(times):
        C = np.ascontiguousarray(kernel(float(t)).real)
        out[j] = ((phi @ C) * phi).sum(axis=1)
    return _clamp_density(out)


def decohered_density(state: SpectralState, x, t: float, params: DecoherenceParams):
    """Probability density under coherence damping (diagonal of the density matrix)."""
    _check_time(t)
    rho = density_map(state, x, [t], gamma=params.gamma)[0]
    return rho if np.ndim(x) else float(rho[0])


def asymptotic_density(state: SpectralState, x):
    """Long-time density: the bare population-weighted sum of squared modes."""
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    c, basis = _support(state)
    if c.size == 0:
        out = np.zeros_like(xv)
        return out if np.ndim(x) else float(out)
    phi, _ = basis(xv)
    rho = phi**2 @ c**2
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
