"""Plain-numpy references that the tests check the package against.

Simpson weights on a uniform grid, the signal samples, the box modes and
their slopes by direct sin and cos, the quadrature projection onto those
modes, the quadrature purity from a density matrix of their own, and the
scalar pair damping.  This module imports numpy and the standard library
only (``tests/test_import_graph.py`` holds it to that), so no fault of the
package's evaluators can sit in both routes of a cross-check.  A cavity,
signal or state is read through its plain attributes: ``cfg.m``,
``cfg.hbar``, ``cfg.L``; ``spec.kind``, ``spec.x0``, ``spec.w``;
``state.cfg``, ``state.coeffs``.  A damping model is given as its rates
``gamma`` and ``lam``.
"""

import math

import numpy as np


def simpson_weights(x):
    """Weights w such that sum(w * f(x)) approximates the integral of f.

    The grid must be uniform and increasing, with at least 3 points.  For
    an even number of points the composite rule covers all but the last
    three intervals, which are closed with the 3/8 rule.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = (x[-1] - x[0]) / (n - 1) if n > 1 else 0.0
    if n < 3 or h <= 0 or not np.allclose(np.diff(x), h, rtol=1e-9, atol=0.0):
        raise ValueError("Simpson weights need a uniform, increasing grid of at least 3 points")
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


def oracle_grid(cfg, points=4001):
    """Uniform grid of ``points`` positions spanning the box, walls included."""
    return np.linspace(-cfg.L / 2.0, cfg.L / 2.0, points)


def input_signal(spec, x):
    """Signal samples at positions ``x``: half-cosine lobes of width w, one at x0
    (single) or the even pair at -x0 and +x0 (double), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    lobes = [(spec.x0, 1.0)] if spec.kind == "single" else [(-spec.x0, math.sqrt(0.5)), (spec.x0, math.sqrt(0.5))]
    out = np.zeros_like(x)
    for center, weight in lobes:
        inside = np.abs(x - center) <= spec.w / 2.0
        out[inside] += weight * math.sqrt(2.0 / spec.w) * np.cos(math.pi * (x[inside] - center) / spec.w)
    return out


def modes(alphas, x, cfg):
    """Modes phi and slopes dphi/dx, each of shape (len(x), len(alphas)):
    sqrt(2/L) cos(k x) for odd alpha, sqrt(2/L) sin(k x) for even alpha,
    k = alpha pi / L."""
    alphas = np.asarray(alphas)
    k = alphas * math.pi / cfg.L
    amp = math.sqrt(2.0 / cfg.L)
    arg = np.outer(x, k)
    odd = alphas % 2 == 1
    phi = amp * np.where(odd, np.cos(arg), np.sin(arg))
    dphi = amp * k * np.where(odd, -np.sin(arg), np.cos(arg))
    return phi, dphi


def decompose_numeric(x, signal, cfg, N=50):
    """Coefficients of modes 1 .. N of the samples ``signal`` on the uniform grid
    ``x``, by Simpson quadrature; the signal is zero outside the grid."""
    phi, _ = modes(np.arange(1, N + 1), x, cfg)
    return phi.T @ (simpson_weights(x) * signal)


def _energies(alphas, cfg):
    return (cfg.hbar * alphas * math.pi / cfg.L) ** 2 / (2.0 * cfg.m)


def damping_factor(alpha, alpha_prime, x, x_prime, t, gamma, lam, cfg):
    """Pair damping exp(-beta t - lam (x - x')^2 t), beta = gamma |E' - E| / hbar."""
    E, E_prime = _energies(np.array([alpha, alpha_prime]), cfg)
    beta = gamma * abs(E_prime - E) / cfg.hbar
    return math.exp(-beta * t - lam * (x - x_prime) ** 2 * t)


def density_matrix(state, x, x_prime, t, gamma):
    """rho(x, x'; t) on the tensor grid of the two axes, energy damping only:
    phi(x) U phi(x')^T with U_ab = u_a conj(u_b) exp(-gamma t |E_a - E_b| / hbar)
    and u_a = c_a exp(-i E_a t / hbar)."""
    cfg = state.cfg
    c = np.asarray(state.coeffs)
    alphas = np.arange(1, c.size + 1)
    E = _energies(alphas, cfg)
    u = c * np.exp(-1j * E * t / cfg.hbar)
    U = np.outer(u, u.conj()) * np.exp(-gamma * t / cfg.hbar * np.abs(E[:, None] - E[None, :]))
    return modes(alphas, x, cfg)[0] @ U @ modes(alphas, x_prime, cfg)[0].T


def purity_via_quadrature(state, t, gamma, points=400):
    """Simpson quadrature of |rho(x, x'; t)|^2 over the box square, on
    ``points`` positions per axis.  The spatial damping has no part in it,
    as in the closed-form purity."""
    x = oracle_grid(state.cfg, points)
    w = simpson_weights(x)
    return float(w @ np.abs(density_matrix(state, x, x, t, gamma)) ** 2 @ w)
