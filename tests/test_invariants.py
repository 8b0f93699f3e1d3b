"""Physics invariants away from the reference point, on seeded random configurations.

Each configuration draws a box, a mass, hbar, a signal of either kind and
width, a truncation N and a damping gamma from wide ranges, and checks
every invariant the library promises there.
"""

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets.decoherence import density_map

PROBES = 40


def _random_case(rng):
    cfg = bc.CavityConfig(
        m=float(10.0 ** rng.uniform(-2.0, 2.0)),
        hbar=float(10.0 ** rng.uniform(-2.0, 1.0)),
        L=float(rng.uniform(2.0, 200.0)),
    )
    kind = str(rng.choice(["single", "double"]))
    w = float(rng.uniform(0.02, 0.4)) * cfg.L
    lo, hi = bc.InputSignalSpec(kind, 0.0, w).center_range(cfg)
    signal = bc.InputSignalSpec(kind, float(rng.uniform(lo, hi)), w)
    N = int(np.rint(10.0 ** rng.uniform(0.0, np.log10(400.0))))
    gamma = float(rng.uniform(0.0, 10.0))
    return cfg, signal, N, gamma


@pytest.mark.parametrize("case", range(PROBES))
def test_invariants_hold_across_the_parameter_space(case):
    rng = np.random.default_rng(20211 + case)
    cfg, signal, N, gamma = _random_case(rng)
    state = bc.decompose(signal, cfg, N)
    if not np.any(state.coeffs):
        pytest.skip("every retained mode is orthogonal to this signal")
    params = bc.DecoherenceParams(gamma=gamma, lambda_mode="formula")
    rev = bc.revival_times(cfg)
    x = np.linspace(-cfg.half_width, cfg.half_width, 257)
    times = np.array([0.0, 0.13, 0.5, 1.7]) * rev.tau

    # revival: the coherent density returns after T_rev
    rho0 = bc.probability_density(state, x, 0.0)
    back = bc.probability_density(state, x, rev.t_revival)
    assert np.max(np.abs(back - rho0)) <= 1e-8 * rho0.max()

    # non-negative density, damped and coherent (a negative excess raises)
    for g in (0.0, gamma):
        assert density_map(state, x, times, gamma=g).min() >= 0.0

    # hermiticity of the density matrix, with the spatial damping on
    grid = bc.density_matrix_grid(state, x[::8], x[::8], 0.37 * rev.tau, params)
    assert np.max(np.abs(grid.values - grid.values.conj().T)) <= 1e-13 * np.max(np.abs(grid.values))

    # purity: monotone decay between the population limit and the squared trace
    curve = bc.purity_curve(state, 10.0 * rev.tau, params, samples=60)
    trace = float(np.sum(state.populations))
    assert np.all(np.diff(curve.values) <= 1e-14 * trace**2)
    assert np.all(curve.values >= bc.purity_asymptote(state) * (1.0 - 1e-12))
    assert np.all(curve.values <= trace**2 * (1.0 + 1e-12))

    # streamlines: every member completes and none cross, coherent and damped
    t_end = 0.25 * rev.tau
    samples = np.linspace(0.0, t_end, 9)
    for p in (None, params):
        run = bc.integrate_ensemble(state, bc.EnsembleSpec(count=6), t_end, params=p, sample_times=samples)
        assert all(tr.status == "completed" for tr in run)
        assert bc.noncrossing_check(run).ok

    # one route per field at fixed points: the pointwise values are map rows
    for g in (0.0, gamma):
        p = bc.DecoherenceParams(gamma=g)
        rows = density_map(state, x, times, gamma=g)
        for j, t in enumerate(times):
            keep = rows[j] > 1e-6 * rows[j].max()
            row = bc.velocity_map(state, x[keep], [t], p)[0]
            assert np.array_equal(bc.velocity(state, x[keep], float(t), p), row)
    if gamma > 0.0:
        alpha = state.alphas[state.coeffs != 0.0]
        rates = [bc.beta(int(a), int(b), params, cfg) for a, b in zip(alpha[:-1], alpha[1:])]
        t_late = 800.0 / min(rates) if rates else 0.0  # exp(-800) is 0.0: no pair survives
        row = density_map(state, x, [t_late], gamma=gamma)[0]
        assert np.array_equal(bc.asymptotic_density(state, x), row)
