"""Physics invariants away from the reference point, on seeded random configurations.

Each configuration draws a box, a mass, hbar, a signal of either kind and
width, a truncation N and a damping gamma from wide ranges, and checks
every invariant the library promises there.
"""

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets.decoherence import density_map

import oracles

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
    params = bc.DecoherenceParams(gamma=gamma, lam="formula")
    rev = bc.revival_times(cfg)
    x = np.linspace(-cfg.half_width, cfg.half_width, 257)
    times = np.array([0.0, 0.13, 0.5, 1.7]) * rev.tau

    # revival: the coherent density returns after T_rev
    rho0 = bc.probability_density(state, x, 0.0)
    back = bc.probability_density(state, x, rev.t_revival)
    assert np.max(np.abs(back - rho0)) <= 1e-8 * rho0.max()

    # non-negative density, damped and coherent (a negative excess raises)
    for g in (0.0, gamma):
        assert density_map(state, x, times, bc.DecoherenceParams(gamma=g)).min() >= 0.0

    # hermiticity of the density matrix, with the spatial damping on
    grid = bc.density_matrix_grid(state, x[::8], x[::8], 0.37 * rev.tau, params)
    scale = np.max(np.abs(grid.values))
    assert np.max(np.abs(grid.values - grid.values.conj().T)) <= 1e-13 * scale
    # the spatial factor keeps a density matrix: positive semidefinite, with
    # the density of the energy damping alone on its diagonal
    assert np.linalg.eigvalsh(grid.values).min() >= -1e-13 * scale
    diagonal = density_map(state, x[::8], [0.37 * rev.tau], params)[0]
    assert np.max(np.abs(np.diagonal(grid.values) - diagonal)) <= 1e-12 * scale

    # position purity: with 4 alpha_max intervals Simpson integrates every
    # cos(n theta) term of |rho|^2 (n <= 2 alpha_max) exactly, so without
    # the spatial factor it is the closed-form purity; the spatial factor
    # can only lower it
    alpha_max = int(state.alphas[state.coeffs != 0.0].max())
    xs = np.linspace(-cfg.half_width, cfg.half_width, 4 * alpha_max + 1)
    w = oracles.simpson_weights(xs)
    bare = bc.DecoherenceParams(gamma=gamma)
    for t in np.array([0.37, 1.7]) * rev.tau:
        chi = bc.purity(state, t, bare)
        bare_purity, purity = (w @ np.abs(bc.density_matrix_grid(state, xs, xs, t, p).values) ** 2 @ w
                               for p in (bare, params))
        assert abs(bare_purity - chi) <= 1e-12 * chi
        assert purity <= chi * (1.0 + 1e-12)

    # purity: monotone decay between the population limit and the squared trace
    curve = bc.purity_curve(state, 10.0 * rev.tau, params, samples=60)
    trace = float(np.sum(state.populations))
    assert np.all(np.diff(curve.values) <= 1e-14 * trace**2)
    assert np.all(curve.values >= bc.purity_asymptote(state) * (1.0 - 1e-12))
    assert np.all(curve.values <= trace**2 * (1.0 + 1e-12))

    # streamlines: every member completes and none cross, coherent and damped
    t_end = 0.25 * rev.tau
    samples = np.linspace(0.0, t_end, 9)
    for p in (bc.DecoherenceParams(), params):
        run = bc.integrate_ensemble(state, bc.EnsembleSpec(count=6), t_end, params=p, sample_times=samples)
        assert all(tr.status == "completed" for tr in run)
        assert bc.noncrossing_check(run).ok

    # one route per field at fixed points: a row's bits depend on its own time
    # alone, not on the other times of the map, their number or their order,
    # and the pointwise values are such rows; 40 times span two row blocks
    many = np.concatenate([times, np.linspace(0.05, 2.95, 36) * rev.tau])
    shuffle = np.random.default_rng(case).permutation(many.size)
    for g in (0.0, gamma):
        p = bc.DecoherenceParams(gamma=g)
        rows = density_map(state, x, many, p)
        assert np.array_equal(density_map(state, x, many[shuffle], p), rows[shuffle])
        assert np.array_equal(density_map(state, x, many[2:7], p), rows[2:7])
        for j, t in enumerate(times):
            assert np.array_equal(bc.probability_density(state, x, float(t), p), rows[j])
            keep = rows[j] > 1e-6 * rows[j].max()
            vel = bc.velocity_map(state, x[keep], times, p)
            assert np.array_equal(bc.velocity(state, x[keep], float(t), p), vel[j])
        # on the points kept at the last of ``times``
        vel = bc.velocity_map(state, x[keep], many, p)
        assert np.array_equal(bc.velocity_map(state, x[keep], many[shuffle], p), vel[shuffle])
        assert np.array_equal(bc.velocity_map(state, x[keep], many[30:37], p), vel[30:37])
    if gamma > 0.0:
        alpha = state.alphas[state.coeffs != 0.0]
        rates = [bc.beta(int(a), int(b), params, cfg) for a, b in zip(alpha[:-1], alpha[1:])]
        t_late = 800.0 / min(rates) if rates else 0.0  # exp(-800) is 0.0: no pair survives
        row = density_map(state, x, np.insert(times, 2, t_late), params)[2]
        assert np.array_equal(bc.asymptotic_density(state, x), row)


FRACTIONS = [(1, 2), (1, 3), (1, 4), (2, 5), (1, 7), (3, 11), (5, 64)]


def _fractional_revival(state, p, q, points=128):
    """Grid x, psi and dpsi/dx at t = (p / q) T_rev from the t = 0 mode sums alone.

    The phases exp(-2 pi i alpha^2 p / q) repeat in alpha with period q, so
    psi(theta) = sum_k b_k [Psi0(theta + 2 pi k / q) + Psi0(theta - 2 pi k / q)] / 2
    with b_k = (1/q) sum_a exp(-2 pi i (p a^2 + k a) / q), theta = pi (x + L/2) / L
    and Psi0 the odd, 2 pi-periodic extension of psi(t = 0) (Aronstein & Stroud,
    Phys. Rev. A 55 (1997) 4526; Berry & Klein, J. Mod. Opt. 43 (1996) 2139).
    On M + 1 points with q | 2M every shift is a whole number of grid steps.
    """
    cfg = state.cfg
    M = q * -(-points // q)
    x = np.linspace(-cfg.half_width, cfg.half_width, M + 1)
    psi0 = bc.mode_values(state.alphas, x, cfg) @ state.coeffs
    slope0 = oracles.modes(state.alphas, x, cfg)[1] @ state.coeffs
    # one period of 2M steps: psi0 is odd in theta, its slope even
    period = (np.concatenate([psi0, -psi0[-2:0:-1]]), np.concatenate([slope0, slope0[-2:0:-1]]))
    a = np.arange(q)
    j = np.arange(M + 1)
    psi, dpsi = np.zeros(M + 1, complex), np.zeros(M + 1, complex)
    for k in range(q):
        b = np.mean(np.exp(-2j * np.pi * ((p * a * a + k * a) % q) / q))
        shift = 2 * M * k // q
        ahead, behind = (j + shift) % (2 * M), (j - shift) % (2 * M)
        psi += b * (period[0][ahead] + period[0][behind]) / 2
        dpsi += b * (period[1][ahead] + period[1][behind]) / 2
    return x, psi, dpsi


@pytest.mark.parametrize("case", range(PROBES))
def test_coherent_rows_match_the_fractional_revival_oracle(case):
    cfg, signal, N, _ = _random_case(np.random.default_rng(20211 + case))
    state = bc.decompose(signal, cfg, N)
    if not np.any(state.coeffs):
        pytest.skip("every retained mode is orthogonal to this signal")
    t_rev = bc.revival_times(cfg).t_revival
    hm = cfg.hbar / cfg.m
    for p, q in FRACTIONS:
        x, psi, dpsi = _fractional_revival(state, p, q)
        t = p / q * t_rev
        rho_ref = np.abs(psi) ** 2
        rho = density_map(state, x, [0.0, t], bc.DecoherenceParams())[1]
        assert np.max(np.abs(rho - rho_ref)) <= 1e-11 * rho_ref.max()
        # the velocity divides by rho, so its error is weighed by rho against
        # the row maximum of rho times the velocity scale hbar max|psi'| / (m max|psi|)
        keep = rho_ref > 1e-6 * rho_ref.max()
        v_ref = hm * np.imag(np.conj(psi) * dpsi)[keep] / rho_ref[keep]
        v = bc.velocity_map(state, x, [t, 0.0])[0, keep]
        scale = hm * np.max(np.abs(dpsi)) / np.max(np.abs(psi))
        assert np.max(np.abs(v - v_ref) * rho_ref[keep]) <= 1e-10 * scale * rho_ref.max()
