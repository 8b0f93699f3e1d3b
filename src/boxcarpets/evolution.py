"""Closed-form time evolution inside the box: wavefunction, density, carpets.

Every retained mode just rotates its phase at its own energy, so the state
at any time is a direct sum evaluation.  All pair frequencies are integer
multiples of 2 pi / T_rev, which makes the density exactly periodic with
period T_rev = 4 m L^2 / (pi hbar); states built from a single parity class
already recur at tau = T_rev / 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceParams, _beat_unit, decohered_density, density_map
from .errors import DomainError
from .spectral import CavityConfig, SpectralState, _check_count, _check_positions, mode_values


@dataclass(frozen=True)
class RevivalTimes:
    """Full revival period and the single-parity recurrence time tau."""

    t_revival: float
    tau: float


def revival_times(cfg: CavityConfig) -> RevivalTimes:
    """T_rev = 4 m L^2 / (pi hbar) and tau = T_rev / 8."""
    t_rev = 4.0 * cfg.m * cfg.L**2 / (np.pi * cfg.hbar)
    return RevivalTimes(t_revival=t_rev, tau=t_rev / 8.0)


def frequency(alpha: int, alpha_prime: int, cfg: CavityConfig) -> float:
    """Beat frequency of the ordered pair, (E_alpha' - E_alpha) / hbar >= 0."""
    a = _check_count(alpha, "mode index", 1)
    b = _check_count(alpha_prime, "mode index", 1)
    if b < a:
        raise DomainError(f"pair must be ordered alpha' >= alpha, got ({a}, {b})")
    return _beat_unit(cfg) * (b**2 - a**2)


def wavefunction(state: SpectralState, x, t: float):
    """Complex amplitude sum_alpha c_alpha phi_alpha(x) exp(-i E_alpha t / hbar)."""
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"time must be nonnegative and finite, got {t!r}")
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    phi = mode_values(state.alphas, xv, state.cfg)
    u = state.coeffs * np.exp(-1j * state.energies * (t / state.cfg.hbar))
    psi = phi @ u
    return psi if np.ndim(x) else complex(psi[0])


def probability_density(state: SpectralState, x, t: float, params: DecoherenceParams | None = None):
    """Probability density: the one-row ``density_map``, a beat-wavenumber series.

    With ``params`` given, each coherence term is damped by its pair factor;
    without, the result equals |wavefunction|^2 to roundoff.  Negative
    roundoff below -1e-12 is rejected, smaller is clamped to zero.
    """
    return decohered_density(state, x, t, params if params is not None else DecoherenceParams.coherent())


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Strictly increasing space and time axes for carpet evaluation."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        xv = np.asarray(self.x, dtype=float)
        tv = np.asarray(self.t, dtype=float)
        if xv.ndim != 1 or tv.ndim != 1 or xv.size < 1 or tv.size < 1:
            raise DomainError("grid axes must be non-empty 1-D arrays")
        if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(tv))):
            raise DomainError("grid axes must be finite")
        if np.any(np.diff(xv) <= 0.0) or np.any(np.diff(tv) <= 0.0):
            raise DomainError("grid axes must be strictly increasing")
        if tv[0] < 0.0:
            raise DomainError("grid times must be nonnegative")
        xv.setflags(write=False)
        tv.setflags(write=False)
        object.__setattr__(self, "x", xv)
        object.__setattr__(self, "t", tv)

    @classmethod
    def regular(cls, cfg: CavityConfig, nx: int, nt: int, t_max: float) -> "SpaceTimeGrid":
        nx = _check_count(nx, "grid nx", 1)
        nt = _check_count(nt, "grid nt", 1)
        if not 0.0 <= t_max < np.inf:
            raise DomainError(f"grid t_max must be finite and >= 0, got {t_max!r}")
        x = np.linspace(-cfg.half_width, cfg.half_width, nx)
        t = np.linspace(0.0, t_max, nt)
        return cls(x=x, t=t)


@dataclass(frozen=True, eq=False)
class CarpetGrid:
    """Carpet values on a space-time grid; rows follow the time axis."""

    grid: SpaceTimeGrid
    values: np.ndarray
    quantity: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.t.size, self.grid.x.size):
            raise DomainError("carpet values must have shape (len(t), len(x))")
        if self.quantity not in ("density", "velocity"):
            raise DomainError(f"quantity must be 'density' or 'velocity', got {self.quantity!r}")
        if not np.all(np.isfinite(v)):
            raise DomainError("carpet values must be finite")
        if self.quantity == "density" and v.size and v.min() < 0.0:
            raise DomainError("density carpet values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def carpet(
    state: SpectralState,
    grid: SpaceTimeGrid,
    quantity: str = "density",
    params: DecoherenceParams | None = None,
) -> CarpetGrid:
    """Evaluate a density or velocity carpet on ``grid`` in one field-map call."""
    _check_positions(grid.x, state.cfg)
    if quantity not in ("density", "velocity"):
        raise DomainError(f"quantity must be 'density' or 'velocity', got {quantity!r}")
    p = params if params is not None else DecoherenceParams.coherent()
    if quantity == "density":
        values = density_map(state, grid.x, grid.t, gamma=p.gamma)
    else:
        from .flow import velocity_map

        values = velocity_map(state, grid.x, grid.t, params=p)
    return CarpetGrid(grid=grid, values=values, quantity=quantity)
