import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets.decoherence import density_map
from boxcarpets.errors import DomainError

from conftest import make_state


def test_params_validation():
    with pytest.raises(DomainError):
        bc.DecoherenceParams(gamma=-0.1)
    with pytest.raises(DomainError):
        bc.DecoherenceParams(lam=-1.0)
    with pytest.raises(DomainError):
        bc.DecoherenceParams(lambda_mode="auto")


def test_density_map_rejects_negative_and_nonfinite_times(state0):
    x = np.linspace(-5.0, 5.0, 3)
    for times in ([np.nan], [0.0, np.inf], [-1.0]):
        with pytest.raises(DomainError):
            density_map(state0, x, times, gamma=0.1)


def test_localization_rate(cfg):
    assert bc.localization_rate(cfg) == pytest.approx(2.0 * np.pi / 125000.0, rel=1e-15)
    p = bc.DecoherenceParams(gamma=0.0, lam=123.0, lambda_mode="formula")
    assert p.effective_lambda(cfg) == bc.localization_rate(cfg)
    assert bc.DecoherenceParams(lam=123.0).effective_lambda(cfg) == 123.0


def test_damping_factor_values(cfg, rev, ref_params):
    assert bc.damping_factor(4, 4, 3.0, 3.0, 17.0, ref_params, cfg) == 1.0
    got = bc.damping_factor(1, 3, 1.0, 1.0, rev.tau, ref_params, cfg)
    assert got == pytest.approx(np.exp(-0.8), rel=1e-12)
    loc = bc.DecoherenceParams(gamma=0.0, lambda_mode="formula")
    got = bc.damping_factor(2, 2, 12.5, -12.5, rev.tau, loc, cfg)
    assert got == pytest.approx(np.exp(-12.5), rel=1e-12)


def test_damping_factor_rejects_negative_time(cfg, ref_params):
    with pytest.raises(DomainError):
        bc.damping_factor(1, 2, 0.0, 0.0, -1.0, ref_params, cfg)


def test_damping_monotone_in_time_gamma_lambda(cfg):
    args = (1, 4, 2.0, -3.0)
    base = bc.DecoherenceParams(gamma=0.2, lam=1e-4)
    f = [bc.damping_factor(*args, t, base, cfg) for t in (1.0, 5.0, 25.0)]
    assert f[0] > f[1] > f[2]
    g = [bc.damping_factor(*args, 10.0, bc.DecoherenceParams(gamma=gm, lam=1e-4), cfg) for gm in (0.1, 0.2, 0.4)]
    assert g[0] > g[1] > g[2]
    l = [bc.damping_factor(*args, 10.0, bc.DecoherenceParams(gamma=0.2, lam=lv), cfg) for lv in (0.0, 1e-4, 1e-3)]
    assert l[0] > l[1] > l[2]


def test_damping_calibration(cfg, rev, ref_params):
    # with the reference gamma every pair rate times tau is (a'^2 - a^2)/10
    for a in range(1, 11):
        for b in range(a, 11):
            expected = (b**2 - a**2) / 10.0
            assert bc.beta(a, b, ref_params, cfg) * rev.tau == pytest.approx(expected, abs=1e-12)


# -- density matrix ---------------------------------------------------------


def test_density_matrix_initial_product(state0, ref_params):
    for x, xp in ((3.0, -1.0), (0.0, 2.5), (-4.0, -4.0)):
        got = bc.density_matrix(state0, x, xp, 0.0, ref_params)
        want = bc.wavefunction(state0, x, 0.0) * np.conj(bc.wavefunction(state0, xp, 0.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got.imag) < 1e-12


def test_density_matrix_diagonal_matches_density(state0, rev, ref_params):
    x = np.linspace(-20.0, 20.0, 41)
    for t in (0.0, rev.tau):
        grid = bc.density_matrix_grid(state0, x, x, t, ref_params)
        diag = np.diagonal(grid.values)
        rho = bc.decohered_density(state0, x, t, ref_params)
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert np.max(np.abs(diag.real - rho)) < 1e-12


def test_density_matrix_hermiticity(state0, rev, loc_params):
    x = np.linspace(-25.0, 25.0, 101)
    for t in (0.0, rev.tau, 20.0 * rev.tau):
        grid = bc.density_matrix_grid(state0, x, x, t, loc_params)
        assert np.max(np.abs(grid.values - grid.values.conj().T)) < 1e-12


def test_secondary_diagonal_persists_without_spatial_damping(state0, rev, ref_params):
    t = 20.0 * rev.tau
    anti = abs(bc.density_matrix(state0, 10.0, -10.0, t, ref_params).real)
    main = abs(bc.density_matrix(state0, 10.0, 10.0, t, ref_params).real)
    assert anti > 0.1 * main


def test_spatial_damping_removes_secondary_diagonal(state0, rev, loc_params):
    t = 20.0 * rev.tau
    now = abs(bc.density_matrix(state0, 10.0, -10.0, t, loc_params))
    start = abs(bc.density_matrix(state0, 10.0, -10.0, 0.0, loc_params))
    assert now < 1e-4 * start


# -- damped density ----------------------------------------------------------


def test_decohered_density_initial(state0, box_grid, ref_params):
    rho = bc.decohered_density(state0, box_grid, 0.0, ref_params)
    psi2 = np.abs(bc.wavefunction(state0, box_grid, 0.0)) ** 2
    assert np.max(np.abs(rho - psi2)) < 1e-12


def test_decohered_density_ignores_spatial_rate(state0, rev, ref_params, loc_params):
    x = np.linspace(-24.0, 24.0, 97)
    a = bc.decohered_density(state0, x, 3.3 * rev.tau, ref_params)
    b = bc.decohered_density(state0, x, 3.3 * rev.tau, loc_params)
    assert np.array_equal(a, b)


def test_decohered_density_reaches_population_mixture(state0, rev, ref_params):
    x = np.linspace(-25.0, 25.0, 2001)
    late = bc.decohered_density(state0, x, 20.0 * rev.tau, ref_params)
    assert np.max(np.abs(late - bc.asymptotic_density(state0, x))) < 1e-6


def test_gamma_zero_recovers_coherent_evolution(state20, rev):
    x = np.linspace(-25.0, 25.0, 301)
    p0 = bc.DecoherenceParams.coherent()
    t = 2.31 * rev.tau
    assert np.array_equal(
        bc.decohered_density(state20, x, t, p0), bc.probability_density(state20, x, t)
    )


def test_asymptotic_density_symmetry_and_values(state20, state0, box_grid):
    rho = bc.asymptotic_density(state20, box_grid)
    assert np.allclose(rho, rho[::-1], atol=1e-14)
    # at the center every even mode contributes 2/L per unit population
    expected_center = (2.0 / 50.0) * float(np.sum(state0.populations))
    assert bc.asymptotic_density(state0, 0.0) == pytest.approx(expected_center, rel=1e-12)
    assert expected_center == pytest.approx(0.039994, abs=1e-5)


@pytest.mark.parametrize("which", ["state0", "state20", "double125"])
def test_asymptotic_density_is_the_late_density_row(request, cfg, which):
    state = request.getfixturevalue(which)
    params = bc.DecoherenceParams(gamma=0.3)
    # exp(-800) is 0.0 in double precision: at t_late every pair's damping has underflowed
    alpha = state.alphas[state.coeffs != 0.0]
    slowest = min(bc.beta(int(a), int(b), params, cfg) for a, b in zip(alpha[:-1], alpha[1:]))
    t_late = 800.0 / slowest
    x = np.unique(np.concatenate([np.linspace(-25.0, 25.0, 401), [-24.99, 0.0, 24.99]]))
    late = density_map(state, x, [t_late], gamma=params.gamma)[0]
    assert np.array_equal(bc.asymptotic_density(state, x), late)


def test_asymptotic_density_trace(state20, box_grid):
    w = bc.simpson_weights(box_grid)
    total = w @ bc.asymptotic_density(state20, box_grid)
    assert total == pytest.approx(float(np.sum(state20.populations)), abs=1e-9)


def test_density_matrix_grid_rectangular_axes(state0, rev, loc_params):
    x = np.linspace(-20.0, 20.0, 11)
    xp = np.linspace(-10.0, 10.0, 7)
    grid = bc.density_matrix_grid(state0, x, xp, rev.tau, loc_params)
    assert grid.values.shape == (11, 7)
    for i, j in ((0, 0), (5, 3), (10, 6)):
        point = bc.density_matrix(state0, float(x[i]), float(xp[j]), rev.tau, loc_params)
        assert grid.values[i, j] == pytest.approx(point, abs=1e-15)


def test_single_mode_density_never_decoheres(cfg, rev, ref_params):
    state = make_state(cfg, [0.0, 1.0])
    x = np.linspace(-20.0, 20.0, 101)
    d0 = bc.decohered_density(state, x, 0.0, ref_params)
    dt = bc.decohered_density(state, x, 5 * rev.tau, ref_params)
    assert np.allclose(d0, dt, atol=1e-14)


# -- one pair kernel against a plain double loop over modes -------------------


def _double_loop_density_and_velocity(state, x, t, params):
    """Density and velocity summed pair by pair from the scalar public pieces."""
    cfg = state.cfg
    support = [int(a) for a in state.alphas if state.coeffs[a - 1] != 0.0]
    phi = {a: bc.eigenmode(bc.mode(a, cfg), x, cfg) for a in support}
    dphi = {a: bc.mode_slopes([a], x, cfg)[:, 0] for a in support}
    den = np.zeros_like(x)
    num = np.zeros_like(x)
    for a in support:
        for b in support:
            weight = state.coeffs[a - 1] * state.coeffs[b - 1] * bc.damping_factor(a, b, 0.0, 0.0, t, params, cfg)
            phase = (bc.eigenenergy(a, cfg) - bc.eigenenergy(b, cfg)) * t / cfg.hbar
            den += weight * np.cos(phase) * phi[a] * phi[b]
            num -= weight * np.sin(phase) * dphi[a] * phi[b]
    return den, (cfg.hbar / cfg.m) * num / den


@pytest.mark.parametrize("t_tau", [0.0, 0.37, 3.0])
@pytest.mark.parametrize("gamma", [0.0, bc.DEFAULT_GAMMA, 0.3])
@pytest.mark.parametrize("which", ["mixed", "state20", "double125"])
def test_pair_kernel_matches_double_loop(request, cfg, rev, which, gamma, t_tau):
    if which == "mixed":
        state = make_state(cfg, [0.7, 0.5, 0.0, 0.3, 0.4])
    else:
        state = request.getfixturevalue(which)
    params = bc.DecoherenceParams(gamma=gamma)
    t = t_tau * rev.tau
    x = np.linspace(-24.0, 24.0, 97)
    den, vel = _double_loop_density_and_velocity(state, x, t, params)

    assert np.max(np.abs(density_map(state, x, [t], gamma=gamma)[0] - den)) < 1e-13
    assert np.max(np.abs(bc.decohered_density(state, x, t, params) - den)) < 1e-13
    diag = np.diagonal(bc.density_matrix_grid(state, x, x, t, params).values)
    assert np.max(np.abs(diag.real - den)) < 1e-13
    assert np.max(np.abs(diag.imag)) < 1e-13
    mask = den > 1e-4 * den.max()
    got = bc.velocity(state, x[mask], t, params)
    # absolute roundoff in the flux and density sums grows by 1 / density in their ratio
    assert np.all(np.abs(got - vel[mask]) <= 1e-14 * (1.0 + np.abs(vel[mask])) / den[mask])


# -- carpets against a long-double pair sum ------------------------------------


def _long_double_density_and_velocity(state, x, t, gamma):
    """Density and velocity as plain pair sums in extended precision."""
    cfg = state.cfg
    ld = np.longdouble
    L, hbar, m = ld(cfg.L), ld(cfg.hbar), ld(cfg.m)
    support = state.coeffs != 0.0
    alpha = state.alphas[support]
    c = state.coeffs[support].astype(ld)
    k = alpha.astype(ld) * (np.arccos(ld(-1)) / L)
    arg = (x.astype(ld) + L / 2)[:, None] * k
    sign = np.where(alpha // 2 % 2 == 0, ld(1), ld(-1))
    phi = np.sqrt(2 / L) * sign * np.sin(arg)
    dphi = np.sqrt(2 / L) * sign * k * np.cos(arg)
    dE = (hbar / (2 * m)) * (k[:, None] ** 2 - k[None, :] ** 2)
    W = np.outer(c, c) * np.exp(-ld(gamma) * ld(t) * np.abs(dE))
    den = np.einsum("xa,ab,xb->x", phi, W * np.cos(dE * ld(t)), phi)
    num = np.einsum("xa,ab,xb->x", dphi, -W * np.sin(dE * ld(t)), phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        vel = (hbar / m) * num / den
    return den.astype(float), vel.astype(float)


@pytest.mark.parametrize("gamma", [0.0, bc.DEFAULT_GAMMA, 0.3])
@pytest.mark.parametrize("which", ["mixed", "state0", "state20", "double125"])
def test_carpets_match_long_double_pair_sum(request, cfg, rev, which, gamma):
    if which == "mixed":
        state = make_state(cfg, [0.7, 0.5, 0.0, 0.3, 0.4])
    else:
        state = request.getfixturevalue(which)
    # the walls, points just inside them and the center, where both halves meet
    x = np.unique(np.concatenate([np.linspace(-25.0, 25.0, 401), [-24.99, -24.95, 0.0, 24.95, 24.99]]))
    times = np.array([0.0, 0.37, 1.0, 3.0]) * rev.tau
    rho = density_map(state, x, times, gamma=gamma)
    vel = bc.velocity_map(state, x, times, bc.DecoherenceParams(gamma=gamma))
    for j, t in enumerate(times):
        den, ref = _long_double_density_and_velocity(state, x, t, gamma)
        assert np.max(np.abs(rho[j] - den)) <= 1e-13 * den.max()
        if gamma > 0.0:
            keep = den > 1e-6 * den.max()
            scale = np.maximum(1.0, np.abs(ref[keep]))
            assert np.max(np.abs(vel[j, keep] - ref[keep]) / scale) <= 1e-13
            # the pointwise field is the same row
            pointwise = bc.velocity(state, x[keep], t, bc.DecoherenceParams(gamma=gamma))
            assert np.max(np.abs(pointwise - ref[keep]) / scale) <= 1e-13
