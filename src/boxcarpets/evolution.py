"""Closed-form time evolution inside the box: wavefunction, density, carpets.

Every retained mode just rotates its phase at its own energy, so the state
at any time is a direct sum evaluation.  All pair frequencies are integer
multiples of 2 pi / T_rev, which makes the density exactly periodic with
period T_rev = 4 m L^2 / (pi hbar) (``spectral.revival_times``); states
built from a single parity class already recur at tau = T_rev / 8.  A carpet
is one ``density_map`` or ``flow.velocity_map`` call over its time axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow
from .decoherence import DecoherenceParams, density_map
from .errors import DomainError
from .spectral import (CavityConfig, SpectralState, _beat_unit, _check_array, _check_axis, _check_count,
                       _check_positions, _check_real, _check_spec, mode_values)


def frequency(alpha: int, alpha_prime: int, cfg: CavityConfig) -> float:
    """Beat frequency of the ordered pair, (E_alpha' - E_alpha) / hbar >= 0."""
    a = _check_count(alpha, "mode index", 1)
    b = _check_count(alpha_prime, "mode index", 1)
    if b < a:
        raise DomainError(f"pair must be ordered alpha' >= alpha, got ({a}, {b})")
    _check_spec(cfg, CavityConfig, "frequency cavity")
    return _beat_unit(cfg) * (b**2 - a**2)


def wavefunction(state: SpectralState, x, t: float):
    """Complex amplitude sum_alpha c_alpha phi_alpha(x) exp(-i E_alpha t / hbar)."""
    _check_spec(state, SpectralState, "wavefunction state")
    t = _check_real(t, "time", 0)
    xv = _check_positions(x, state.cfg)
    phi = mode_values(state.alphas, xv, state.cfg)
    u = state.coeffs * np.exp(-1j * state.energies * (t / state.cfg.hbar))
    psi = phi @ u
    return psi if np.ndim(x) else complex(psi[0])


def probability_density(state: SpectralState, x, t: float, params: DecoherenceParams = DecoherenceParams()):
    """Probability density: the one-row ``density_map``, a beat-wavenumber series.

    Each coherence term is damped by its pair factor; with the default
    (coherent) ``params`` the result equals |wavefunction|^2 to roundoff.
    Negative roundoff below -1e-12 is rejected, smaller is clamped to zero.
    """
    rho = density_map(state, x, [_check_real(t, "time", 0)], params)[0]
    return rho if np.ndim(x) else float(rho[0])


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Strictly increasing space and time axes for carpet evaluation."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        xv = _check_axis(self.x, "grid positions")
        tv = _check_axis(self.t, "grid times")
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
        t_max = _check_real(t_max, "grid t_max", 0)
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
        _check_spec(self.grid, SpaceTimeGrid, "carpet grid")
        v = _check_array(self.values, "carpet values")
        if v.shape != (self.grid.t.size, self.grid.x.size):
            raise DomainError("carpet values must have shape (len(t), len(x))")
        if self.quantity not in ("density", "velocity"):
            raise DomainError(f"quantity must be 'density' or 'velocity', got {self.quantity!r}")
        if self.quantity == "density" and v.size and v.min() < 0.0:
            raise DomainError("density carpet values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def carpet(
    state: SpectralState,
    grid: SpaceTimeGrid,
    quantity: str = "density",
    params: DecoherenceParams = DecoherenceParams(),
) -> CarpetGrid:
    """Evaluate a density or velocity carpet on ``grid`` in one field-map call."""
    _check_spec(state, SpectralState, "carpet state")
    _check_spec(grid, SpaceTimeGrid, "carpet grid")
    if quantity not in ("density", "velocity"):
        raise DomainError(f"quantity must be 'density' or 'velocity', got {quantity!r}")
    if quantity == "density":
        values = density_map(state, grid.x, grid.t, params=params)
    else:
        values = flow.velocity_map(state, grid.x, grid.t, params=params)
    return CarpetGrid(grid=grid, values=values, quantity=quantity)
