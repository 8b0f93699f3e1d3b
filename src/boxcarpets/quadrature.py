"""Composite Simpson quadrature on uniform grids, exposed as weight vectors,
and the quadrature route of the spectral decomposition (``decompose_numeric``)."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .spectral import (CavityConfig, SpectralState, _check_array, _check_count, _check_positions, _check_spec,
                       mode_values)


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w such that sum(w * f(x)) approximates the integral of f.

    Requires a uniform grid with at least 3 points.  For an even number of
    points the classic composite rule covers all but the last three
    intervals, which are closed with the 3/8 rule.
    """
    x = _check_array(x, "Simpson grid")
    n = x.size
    if n < 3:
        raise DomainError("Simpson quadrature needs at least 3 sample points")
    steps = np.diff(x)
    h = (x[-1] - x[0]) / (n - 1)
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise DomainError("Simpson quadrature requires a uniform, increasing grid")

    m = n if n % 2 else n - 3  # the composite rule's odd prefix
    w = np.zeros(n)
    if m > 1:
        w[0] = w[m - 1] = 1.0
        w[1 : m - 1 : 2] = 4.0
        w[2 : m - 2 : 2] = 2.0
        w[:m] *= h / 3.0
    if m < n:
        w[n - 4 :] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def decompose_numeric(x: np.ndarray, signal: np.ndarray, cfg: CavityConfig, N: int = 50) -> SpectralState:
    """Project sampled signal values onto the mode basis by Simpson quadrature.

    This is the oracle route: it never touches the closed forms of
    ``spectral.decompose``.  The samples must lie on a uniform grid inside
    the box with at least 3 points; the signal is taken as zero outside the
    sampled range.
    """
    _check_spec(cfg, CavityConfig, "numeric decomposition cavity")
    x = _check_positions(x, cfg)
    signal = _check_array(signal, "signal samples")
    if x.shape != signal.shape:
        raise DomainError("positions and signal samples must be matching 1-D arrays")
    if x.size < 3:
        raise DomainError("numeric decomposition needs at least 3 sample points")
    N = _check_count(N, "mode count N", 1)
    weights = simpson_weights(x)
    phi = mode_values(np.arange(1, N + 1), x, cfg)
    coeffs = phi.T @ (weights * signal)
    return SpectralState(cfg, coeffs, None)
