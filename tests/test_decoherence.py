import re
import tracemalloc
import warnings

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets import decoherence, spectral
from boxcarpets.decoherence import density_map
from boxcarpets.errors import DomainError

import oracles
from conftest import density_element, make_state


def test_params_validation():
    with pytest.raises(DomainError):
        bc.DecoherenceParams(gamma=-0.1)
    with pytest.raises(DomainError):
        bc.DecoherenceParams(lam=-1.0)
    assert bc.DecoherenceParams(lam="formula").lam == "formula"


@pytest.mark.parametrize("bad", ["auto", "off", "Formula", "formula ", "0", ""])
def test_lambda_strings_other_than_formula_are_rejected(bad):
    # config text and the CLI flag go through config.parse_lambda, which
    # accepts any case and surrounding blanks
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        bc.DecoherenceParams(lam=bad)


def test_density_map_rejects_negative_and_nonfinite_times(state0):
    x = np.linspace(-5.0, 5.0, 3)
    for times in ([np.nan], [0.0, np.inf], [-1.0]):
        with pytest.raises(DomainError):
            density_map(state0, x, times, bc.DecoherenceParams(gamma=0.1))


def test_localization_rate(cfg):
    assert bc.localization_rate(cfg) == pytest.approx(2.0 * np.pi / 125000.0, rel=1e-15)
    assert bc.DecoherenceParams(lam="formula").effective_lambda(cfg) == bc.localization_rate(cfg)
    assert bc.DecoherenceParams(lam=123.0).effective_lambda(cfg) == 123.0


def test_damping_factor_values(cfg, rev, ref_params):
    # the reference gamma and the cavity's localization rate, in the oracle's pair damping
    gamma, lam = ref_params.gamma, bc.localization_rate(cfg)
    assert oracles.damping_factor(4, 4, 3.0, 3.0, 17.0, gamma, 0.0, cfg) == 1.0
    got = oracles.damping_factor(1, 3, 1.0, 1.0, rev.tau, gamma, 0.0, cfg)
    assert got == pytest.approx(np.exp(-0.8), rel=1e-12)
    got = oracles.damping_factor(2, 2, 12.5, -12.5, rev.tau, 0.0, lam, cfg)
    assert got == pytest.approx(np.exp(-12.5), rel=1e-12)


def test_damping_factor_rejects_negative_time(state0, ref_params):
    # the package applies the pair damping in density_matrix_grid alone
    with pytest.raises(DomainError, match="time must be >= 0"):
        bc.density_matrix_grid(state0, [0.0], [0.0], -1.0, ref_params)


def test_damping_monotone_in_time_gamma_lambda(cfg):
    args = (1, 4, 2.0, -3.0)
    f = [oracles.damping_factor(*args, t, 0.2, 1e-4, cfg) for t in (1.0, 5.0, 25.0)]
    assert f[0] > f[1] > f[2]
    g = [oracles.damping_factor(*args, 10.0, gm, 1e-4, cfg) for gm in (0.1, 0.2, 0.4)]
    assert g[0] > g[1] > g[2]
    l = [oracles.damping_factor(*args, 10.0, 0.2, lv, cfg) for lv in (0.0, 1e-4, 1e-3)]
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
        got = density_element(state0, x, xp, 0.0, ref_params)
        want = bc.wavefunction(state0, x, 0.0) * np.conj(bc.wavefunction(state0, xp, 0.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got.imag) < 1e-12


def test_density_matrix_diagonal_matches_density(state0, rev, ref_params):
    x = np.linspace(-20.0, 20.0, 41)
    for t in (0.0, rev.tau):
        grid = bc.density_matrix_grid(state0, x, x, t, ref_params)
        diag = np.diagonal(grid.values)
        rho = bc.probability_density(state0, x, t, ref_params)
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert np.max(np.abs(diag.real - rho)) < 1e-12


def test_density_matrix_hermiticity(state0, rev, loc_params):
    x = np.linspace(-25.0, 25.0, 101)
    for t in (0.0, rev.tau, 20.0 * rev.tau):
        grid = bc.density_matrix_grid(state0, x, x, t, loc_params)
        assert np.max(np.abs(grid.values - grid.values.conj().T)) < 1e-12


@pytest.mark.parametrize("which", ["state0", "state20", "double125"])
def test_spatial_factor_lowers_the_position_purity(request, rev, ref_params, loc_params, which):
    # rho o G is a density matrix (Schur product with a positive definite G = 1
    # on the diagonal), so its purity is at most chi; 8 Simpson points per
    # half-wavelength of mode 50 make the Lambda = 0 purity chi itself
    state = request.getfixturevalue(which)
    x = np.linspace(-state.cfg.half_width, state.cfg.half_width, 401)
    w = oracles.simpson_weights(x)
    for t in np.array([0.5, 2.0, 8.0]) * rev.tau:
        chi = bc.purity(state, t, loc_params)
        unlocalized = bc.density_matrix_grid(state, x, x, t, ref_params).values
        assert w @ np.abs(unlocalized) ** 2 @ w == pytest.approx(chi, rel=1e-12)
        localized = bc.density_matrix_grid(state, x, x, t, loc_params).values
        assert w @ np.abs(localized) ** 2 @ w <= chi


@pytest.mark.parametrize("lam", [0.0, "formula"])
def test_spatial_factor_heats_the_state(state0, cfg, rev, lam):
    # d2G/dx2 = -2 Lambda t and dG/dx = 0 on x = x', so the energy of rho o G
    # grows by hbar^2 Lambda t / m per unit trace; the gamma term keeps it.
    # The energy is projected onto modes 1-120 on a 401-point Simpson grid,
    # so the bound with Lambda > 0 is the weight above mode 120.
    params = bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA, lam=lam)
    x = np.linspace(-cfg.half_width, cfg.half_width, 401)
    alphas = np.arange(1, 121)
    wphi = oracles.simpson_weights(x)[:, None] * bc.mode_values(alphas, x, cfg)
    levels = np.array([bc.mode(int(a), cfg).E for a in alphas])
    e0 = float(state0.populations @ state0.energies)
    trace = 1.0 - bc.norm_deficit(state0)
    heating = trace * cfg.hbar**2 * params.effective_lambda(cfg) / cfg.m
    bound = 1e-12 if lam == 0.0 else 5e-5
    for t in np.array([0.0, 2.0, 8.0]) * rev.tau:
        rho = bc.density_matrix_grid(state0, x, x, t, params).values
        energy = float(np.sum(wphi * (rho @ wphi), axis=0).real @ levels)
        predicted = e0 + heating * t
        assert abs(energy - predicted) <= bound * predicted
    if lam != 0.0:
        assert energy > 4.0 * e0


def test_secondary_diagonal_persists_without_spatial_damping(state0, rev, ref_params):
    t = 20.0 * rev.tau
    anti = abs(density_element(state0, 10.0, -10.0, t, ref_params).real)
    main = abs(density_element(state0, 10.0, 10.0, t, ref_params).real)
    assert anti > 0.1 * main


def test_spatial_damping_removes_secondary_diagonal(state0, rev, loc_params):
    t = 20.0 * rev.tau
    now = abs(density_element(state0, 10.0, -10.0, t, loc_params))
    start = abs(density_element(state0, 10.0, -10.0, 0.0, loc_params))
    assert now < 1e-4 * start


# -- damped density ----------------------------------------------------------


def test_decohered_density_initial(state0, box_grid, ref_params):
    rho = bc.probability_density(state0, box_grid, 0.0, ref_params)
    psi2 = np.abs(bc.wavefunction(state0, box_grid, 0.0)) ** 2
    assert np.max(np.abs(rho - psi2)) < 1e-12


def test_decohered_density_ignores_spatial_rate(state0, rev, ref_params, loc_params):
    x = np.linspace(-24.0, 24.0, 97)
    a = bc.probability_density(state0, x, 3.3 * rev.tau, ref_params)
    b = bc.probability_density(state0, x, 3.3 * rev.tau, loc_params)
    assert np.array_equal(a, b)


def test_decohered_density_reaches_population_mixture(state0, rev, ref_params):
    x = np.linspace(-25.0, 25.0, 2001)
    late = bc.probability_density(state0, x, 20.0 * rev.tau, ref_params)
    assert np.max(np.abs(late - bc.asymptotic_density(state0, x))) < 1e-6


def test_gamma_zero_recovers_coherent_evolution(state20, rev):
    x = np.linspace(-25.0, 25.0, 301)
    p0 = bc.DecoherenceParams()
    t = 2.31 * rev.tau
    assert np.array_equal(
        bc.probability_density(state20, x, t, p0), bc.probability_density(state20, x, t)
    )


@pytest.mark.parametrize("t_tau", [0.0, 0.37, 3.0])
@pytest.mark.parametrize("which", ["state0", "state20"])
def test_zero_rates_take_the_damped_path_bit_for_bit(request, rev, which, t_tau):
    # gamma = 0, lambda = 0 and t = 0 have no branch of their own: their
    # damping factor is exactly 1, as that of a rate of 1e-300 is
    state = request.getfixturevalue(which)
    t = t_tau * rev.tau
    x = np.linspace(-24.9, 24.9, 97)
    pairs = [
        (bc.DecoherenceParams(), bc.DecoherenceParams(gamma=1e-300)),
        (bc.DecoherenceParams(), bc.DecoherenceParams(lam=1e-300)),
        (bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA), bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA, lam=1e-300)),
    ]
    for zero, tiny in pairs:
        assert density_map(state, x, [t], zero).tobytes() == density_map(state, x, [t], tiny).tobytes()
        dm_zero = bc.density_matrix_grid(state, x, x[::3], t, zero).values
        assert dm_zero.tobytes() == bc.density_matrix_grid(state, x, x[::3], t, tiny).values.tobytes()
    # the pair kernel's reductions take only the energy rate
    zero, tiny = decoherence._PairKernel(state, 0.0), decoherence._PairKernel(state, 1e-300)
    for got, want in zip(zero.cumulative(x, t) + zero.velocity(x, t), tiny.cumulative(x, t) + tiny.velocity(x, t)):
        assert got.tobytes() == want.tobytes()


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
    # at t_late every pair has gamma |omega| t >= 800, far past the rounding cut (~40): none is folded
    alpha = state.alphas[state.coeffs != 0.0]
    slowest = min(bc.beta(int(a), int(b), params, cfg) for a, b in zip(alpha[:-1], alpha[1:]))
    t_late = 800.0 / slowest
    x = np.unique(np.concatenate([np.linspace(-25.0, 25.0, 401), [-24.99, 0.0, 24.99]]))
    # a late row has the asymptotic bits whatever other times share its map
    late = density_map(state, x, [0.0, 0.5 * t_late, t_late, 2.0 * t_late], params)
    assert np.array_equal(bc.asymptotic_density(state, x), late[2])
    assert np.array_equal(bc.asymptotic_density(state, x), late[3])


def test_asymptotic_density_trace(state20, box_grid):
    w = oracles.simpson_weights(box_grid)
    total = w @ bc.asymptotic_density(state20, box_grid)
    assert total == pytest.approx(float(np.sum(state20.populations)), abs=1e-9)


def test_density_matrix_grid_rectangular_axes(state0, rev, loc_params):
    x = np.linspace(-20.0, 20.0, 11)
    xp = np.linspace(-10.0, 10.0, 7)
    grid = bc.density_matrix_grid(state0, x, xp, rev.tau, loc_params)
    assert grid.values.shape == (11, 7)
    for i, j in ((0, 0), (5, 3), (10, 6)):
        point = density_element(state0, float(x[i]), float(xp[j]), rev.tau, loc_params)
        assert grid.values[i, j] == pytest.approx(point, abs=1e-15)


@pytest.mark.parametrize(
    "x, t, message",
    [
        pytest.param(None, 0.0, "density-matrix x must be real numbers, got None", id="axes-None"),
        pytest.param([0.0], "x", "density-matrix t must be a real number, got 'x'", id="time-str"),
    ],
)
def test_density_matrix_grid_checks_its_numbers(x, t, message):
    # np.size(None) is 1 and t went unchecked, so both used to construct
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        bc.DensityMatrixGrid(x, x, t, [[1.0]])


def test_density_matrix_grid_of_the_zero_state(cfg, rev, loc_params):
    zero = make_state(cfg, np.zeros(4))
    x = np.linspace(-20.0, 20.0, 7)
    for t in (0.0, rev.tau):
        grid = bc.density_matrix_grid(zero, x, x[:3], t, loc_params)
        assert grid.values.shape == (7, 3)
        assert grid.values.dtype == complex
        assert not grid.values.any()


@pytest.mark.parametrize("which", ["state0", "state20", "double125"])
def test_pair_kernel_rates_are_the_exact_beats(request, cfg, which):
    # the rates used to be |Eh_a - Eh_b| of the float energies, off by up to
    # 2.3e-15 relative from beta's exact integer beats
    state = request.getfixturevalue(which)
    kernel = decoherence._PairKernel(state, 1.0)
    populated = state.coeffs != 0.0
    alpha = state.alphas[populated]
    unit = bc.DecoherenceParams(gamma=1.0)
    expected = np.array([[bc.beta(int(a), int(b), unit, cfg) for b in alpha] for a in alpha])
    assert np.array_equal(kernel.absdEh, expected)
    assert np.array_equal(kernel.Eh, state.energies[populated] / cfg.hbar)


def test_every_pair_sum_reads_one_support(cfg, rev):
    # populated modes 1, 4 and 6, not contiguous
    state = make_state(cfg, [0.6, 0.0, 0.0, 0.7, 0.0, 0.1])
    assert state.support.tolist() == [1, 4, 6]
    kernel = decoherence._PairKernel(state, bc.DEFAULT_GAMMA)
    assert np.allclose(kernel.basis.k, state.support * np.pi / cfg.L, rtol=1e-15, atol=0.0)
    assert np.array_equal(kernel.basis.k, state.wavenumbers[state.support - 1])
    assert kernel.c.tolist() == [0.6, 0.7, 0.1]
    # one tau at the default gamma keeps all three pairs within the horizon
    series = decoherence._BeatSeries(state, bc.DEFAULT_GAMMA, np.array([rev.tau]))
    assert series.size == 2 * 6 + 1 and series.minus.size == 3
    # the beats 16 - 1 and 36 - 1 have the gcd 5
    assert spectral._coherent_period(state) == rev.t_revival / 5
    # the purity sweeps the steps 1 -> 4 -> 6: chi(0) = (sum p)^2
    params = bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA)
    assert bc.purity(state, 0.0, params) == pytest.approx(0.86**2, rel=1e-15)


def test_single_mode_density_never_decoheres(cfg, rev, ref_params):
    state = make_state(cfg, [0.0, 1.0])
    x = np.linspace(-20.0, 20.0, 101)
    d0 = bc.probability_density(state, x, 0.0, ref_params)
    dt = bc.probability_density(state, x, 5 * rev.tau, ref_params)
    assert np.allclose(d0, dt, atol=1e-14)


# -- one pair kernel against a plain double loop over modes -------------------


def _double_loop_density_and_velocity(state, x, t, params):
    """Density and velocity summed pair by pair from the oracles' modes, slopes and pair damping."""
    cfg = state.cfg
    support = [int(a) for a in state.alphas if state.coeffs[a - 1] != 0.0]
    phi, dphi = (dict(zip(support, values.T)) for values in oracles.modes(support, x, cfg))
    den = np.zeros_like(x)
    num = np.zeros_like(x)
    for a in support:
        for b in support:
            damping = oracles.damping_factor(a, b, 0.0, 0.0, t, params.gamma, 0.0, cfg)
            weight = state.coeffs[a - 1] * state.coeffs[b - 1] * damping
            phase = (bc.mode(a, cfg).E - bc.mode(b, cfg).E) * t / cfg.hbar
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

    assert np.max(np.abs(density_map(state, x, [t], params)[0] - den)) < 1e-13
    assert np.max(np.abs(bc.probability_density(state, x, t, params) - den)) < 1e-13
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
    params = bc.DecoherenceParams(gamma=gamma)
    rho = density_map(state, x, times, params)
    vel = bc.velocity_map(state, x, times, params)
    for j, t in enumerate(times):
        den, ref = _long_double_density_and_velocity(state, x, t, gamma)
        assert np.max(np.abs(rho[j] - den)) <= 1e-13 * den.max()
        if gamma > 0.0:
            keep = den > 1e-6 * den.max()
            scale = np.maximum(1.0, np.abs(ref[keep]))
            assert np.max(np.abs(vel[j, keep] - ref[keep]) / scale) <= 1e-13
            # the pointwise field is the same row
            pointwise = bc.velocity(state, x[keep], t, params)
            assert np.max(np.abs(pointwise - ref[keep]) / scale) <= 1e-13


# -- the beat series' pair order and rounding cut --------------------------------


_RNG = np.random.default_rng(7)


_SUPPORTS = [
    pytest.param(np.sort(_RNG.choice(np.arange(1, 400), 90, replace=False)), id="gaps"),
    pytest.param(np.arange(1, 160, 2), id="odd"),
    pytest.param(np.sort(_RNG.choice(np.arange(2, 400, 2), 70, replace=False)), id="even-gaps"),
    pytest.param(np.arange(1, 61), id="contiguous"),
    pytest.param(np.array([7]), id="one-mode"),
    pytest.param(np.array([3, 8]), id="two-modes"),
    pytest.param(np.array([], dtype=np.int64), id="empty"),
]


@pytest.mark.parametrize("alpha", _SUPPORTS)
def test_distinct_key_pair_order_is_the_stable_argsort(alpha):
    a, b = np.triu_indices(alpha.size, 1)
    beat = alpha[b] ** 2 - alpha[a] ** 2
    sorted_beat, order = decoherence._pair_order(beat.copy(), alpha.size)
    want = np.argsort(beat, kind="stable")
    assert np.array_equal(order, want) and np.array_equal(sorted_beat, beat[want])
    if alpha.size > 40:
        # e.g. 8^2 - 4^2 = 7^2 - 1^2: equal beats, whose order the stable sort fixes
        assert np.unique(beat).size < beat.size


def test_pair_order_keys_stop_at_int64():
    # two pairs: the largest key is 2 * max beat + 1, which fits up to 2^63 - 1
    beat = np.array([2**62 - 1, 0], dtype=np.int64)
    sorted_beat, order = decoherence._pair_order(beat, 2)
    assert sorted_beat.tolist() == [0, 2**62 - 1] and order.tolist() == [1, 0]
    with pytest.raises(DomainError, match="^5 populated modes: "):
        decoherence._pair_order(np.array([2**62, 0], dtype=np.int64), 5)


@pytest.mark.parametrize("alpha", _SUPPORTS)
def test_beat_series_builds_the_first_pairs_of_the_stable_order(cfg, alpha):
    coeffs = np.zeros(400)
    coeffs[alpha - 1] = np.random.default_rng(alpha.size).uniform(0.1, 1.0, alpha.size)
    state = make_state(cfg, coeffs)
    # every pair in the stable order of its beats, as the series folds them
    a, b = np.triu_indices(alpha.size, 1)
    beat = alpha[b] ** 2 - alpha[a] ** 2
    order = np.argsort(beat, kind="stable")
    a, b = a[order], b[order]
    sc = np.where(alpha // 2 % 2 == 0, 1.0, -1.0) * coeffs[alpha - 1]
    full = {
        "omega": spectral._beat_unit(cfg) * beat[order],
        "minus": alpha[b] - alpha[a],
        "plus": alpha[a] + alpha[b],
        "w": (2.0 / cfg.L) * sc[a] * sc[b],
    }
    gamma = bc.DEFAULT_GAMMA
    calls = [(0.0, np.array([0.0, 1.0]), a.size), (gamma, np.array([0.0]), 0)]
    # horizons at beats of the series itself, where the rounding of cut / (gamma t) decides, and between them
    cut = decoherence._BeatSeries(state, gamma, np.zeros(0)).cut
    picks = np.unique(np.minimum([0, a.size // 3, a.size // 3 + 1, a.size - 1], a.size - 1)) if a.size else []
    for omega in full["omega"][picks]:
        for target in (omega, omega * (1.0 + 1e-9), omega * (1.0 - 1e-9)):
            t_min = cut / (gamma * target)
            keep = int(np.searchsorted(full["omega"], cut / (gamma * t_min), side="right"))
            calls.append((gamma, np.array([3.0 * t_min, 0.0, t_min]), keep))
    for g, times, keep in calls:
        series = decoherence._BeatSeries(state, g, times)
        for name, want in full.items():
            got = getattr(series, name)
            assert got.dtype == want.dtype and got.tobytes() == want[:keep].tobytes(), (name, g, times)


@pytest.mark.parametrize("which", ["wide", "state0"])
def test_rows_keep_their_bits_in_any_time_order(request, rev, ref_params, which):
    state = request.getfixturevalue(which)
    x = np.linspace(-25.0, 25.0, 201)
    times = np.linspace(0.0, 8.0 * rev.tau, 11)
    rho = density_map(state, x, times, ref_params)
    vel = bc.velocity_map(state, x, times, ref_params)
    for order in (np.arange(times.size)[::-1], np.random.default_rng(3).permutation(times.size)):
        assert density_map(state, x, times[order], ref_params).tobytes() == rho[order].tobytes()
        assert bc.velocity_map(state, x, times[order], ref_params).tobytes() == vel[order].tobytes()
    for j, t in enumerate(times):
        assert density_map(state, x, [t], ref_params).tobytes() == rho[j].tobytes()
        assert bc.velocity_map(state, x, [t], ref_params).tobytes() == vel[j].tobytes()


@pytest.mark.parametrize(
    "coeffs", [None, [0.6, 0.0, 0.0, 0.7, 0.0, 0.1], [0.0, 0.0, 0.8], [0.6, 0.0, 0.0, 0.8]],
    ids=["wide-spectrum", "gaps", "one-mode", "two-modes"],
)
def test_resting_row_matches_the_long_double_pair_sum(cfg, ref_params, wide, coeffs):
    # the t = 0 row folds no pair: it is the autocorrelation of the signed coefficients
    state = wide if coeffs is None else make_state(cfg, coeffs)
    x = np.unique(np.concatenate([np.linspace(-25.0, 25.0, 201), [-24.99, 0.0, 24.99]]))
    den, _ = _long_double_density_and_velocity(state, x, 0.0, ref_params.gamma)
    rho = density_map(state, x, [0.0], ref_params)[0]
    assert np.max(np.abs(rho - den)) <= 1e-13 * den.max()
    # a real signal starts at rest
    assert not bc.velocity_map(state, x, [0.0], ref_params).any()


def test_damped_carpet_builds_few_pairs_in_a_small_heap(rev, ref_params, wide):
    # the wide-spectrum benchmark grid: 1001 points, 101 times over 8 tau
    x = np.linspace(-25.0, 25.0, 1001)
    times = np.linspace(0.0, 8.0 * rev.tau, 101)
    series = decoherence._BeatSeries(wide, ref_params.gamma, times)
    assert 0 < series.omega.size <= 0.03 * 319_600
    density_map(wide, x, times, ref_params)  # warm caches outside the trace
    tracemalloc.start()
    try:
        density_map(wide, x, times, ref_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the density table, the output and 4 MB for everything else
    assert peak < 8 * (series.size + times.size) * x.size + 4 * 2**20


def _long_double_damped_rows(state, x, times, gamma):
    """Density and flux numerator sum_ab phi'_a Im M_ab phi_b at each t > 0 in
    extended precision, from the oracles' modes and slopes, as sums over the
    pairs a < b whose damping exp(-gamma |omega| t) is above exp(-750): the
    rest, below 1e-325 of their weight, are under any double."""
    cfg = state.cfg
    ld = np.longdouble
    alpha = state.support
    c = state.coeffs[alpha - 1].astype(ld)
    phi, dphi = oracles.modes(alpha, x.astype(ld), cfg)
    a, b = np.triu_indices(alpha.size, 1)
    beat = (alpha[b] ** 2 - alpha[a] ** 2).astype(ld)
    omega = (ld(cfg.hbar) / (2 * ld(cfg.m))) * (np.arccos(ld(-1)) / ld(cfg.L)) ** 2 * beat
    for t in times:
        keep = np.flatnonzero(ld(gamma) * omega * ld(t) < 750)
        i, j, om = a[keep], b[keep], omega[keep]
        w = c[i] * c[j] * np.exp(-ld(gamma) * om * ld(t))
        # Re M_ij = Re M_ji = w cos(omega t), Im M_ij = -Im M_ji = w sin(omega t)
        den = phi**2 @ c**2 + 2 * ((phi[:, i] * phi[:, j]) @ (w * np.cos(om * ld(t))))
        num = (dphi[:, i] * phi[:, j] - dphi[:, j] * phi[:, i]) @ (w * np.sin(om * ld(t)))
        yield den, num


@pytest.fixture(scope="module")
def wide(cfg):
    """The wide-spectrum state: 800 populated modes, 319,600 pairs."""
    return bc.decompose(bc.InputSignalSpec("single", 15.166, 2.0), cfg, 800)


def test_rounding_cut_keeps_the_wide_spectrum_accuracy_with_less_work(cfg, rev, wide):
    state = wide
    gamma = bc.DEFAULT_GAMMA
    x = np.linspace(-25.0, 25.0, 201)
    times = np.linspace(0.0, 8.0 * rev.tau, 11)[1:]
    series = decoherence._BeatSeries(state, gamma, times)
    # every pair, folded at every damped row: an infinite horizon and no cut
    uncut = decoherence._BeatSeries(state, 0.0, times)
    uncut.gamma, uncut.cut = gamma, np.inf
    table, sine = series.tables(x, flux=True)
    eps = 2.0**-52
    rho_bound = eps * series.base[0]
    flux_bound = 0.5 * float(state.wavenumbers[-1]) * rho_bound
    for t, (den, num) in zip(times, _long_double_damped_rows(state, x, times, gamma)):
        (C, S), (C_all, S_all) = series.coefficients(t, flux=True), uncut.coefficients(t, flux=True)
        rows = ((C @ table, C_all @ table, den, rho_bound), (S @ sine, S_all @ sine, num, flux_bound))
        for got, full, want, bound in rows:
            # the table product may round a changed coefficient into one more unit of the row's largest value
            slack = np.spacing(np.max(np.abs(full)))
            assert np.max(np.abs(got - want)) <= np.max(np.abs(full - want)) + bound + slack
    # the pairs folded on the damped rows, against the fold that stopped only where
    # exp underflows to 0.0 (past 745.2)
    folded = sum(np.searchsorted(series.omega, series.cut / (gamma * t), side="right") for t in times)
    underflow = sum(np.searchsorted(uncut.omega, 750.0 / (gamma * t), side="right") for t in times)
    assert 0 < folded < 0.4 * underflow


@pytest.mark.parametrize(
    "coeffs", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.8], [0.6, 0.0, 0.0, 0.8]], ids=["empty", "one-mode", "two-modes"]
)
def test_edge_states_fold_without_a_warning(cfg, rev, ref_params, coeffs):
    state = make_state(cfg, coeffs)
    x = np.linspace(-24.0, 24.0, 97)
    # the last time is past the cut of the two-mode pair, gamma omega t ~ 75
    times = np.array([0.0, 0.37, 3.0, 50.0]) * rev.tau
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        series = decoherence._BeatSeries(state, ref_params.gamma, times)
        rho = density_map(state, x, times, ref_params)
        if state.support.size:
            vel = bc.velocity_map(state, x, times, ref_params)
        else:
            with pytest.raises(DomainError, match="no nonzero coefficients"):
                bc.velocity_map(state, x, times, ref_params)
    if state.support.size < 2:
        assert series.cut == np.inf
        # no pair: every row is the population mixture, and nothing moves
        assert np.array_equal(rho, np.broadcast_to(bc.asymptotic_density(state, x), rho.shape))
        if state.support.size:
            assert not vel.any()
        return
    assert series.cut / (ref_params.gamma * times[-1]) < series.omega[0] < series.cut / (ref_params.gamma * times[-2])
    for j, t in enumerate(times):
        den, want = _double_loop_density_and_velocity(state, x, t, ref_params)
        assert np.max(np.abs(rho[j] - den)) < 1e-13
        mask = den > 1e-4 * den.max()
        assert np.all(np.abs(vel[j, mask] - want[mask]) <= 1e-14 * (1.0 + np.abs(want[mask])) / den[mask])
    assert np.array_equal(rho[-1], bc.asymptotic_density(state, x))


# -- the sine tables of the beat series ----------------------------------------


@pytest.mark.parametrize("multiple", [1.0, 2.0])
def test_angle_addition_sines_are_as_accurate_as_direct_sines(multiple):
    # the angles of _BeatSeries.tables, theta / 2 (density) and theta (flux),
    # from the nearer wall of 2001 points in an L = 50 box, n up to 1600
    x = np.linspace(-25.0, 25.0, 2001)
    h = multiple * np.where(x > 0.0, 25.0 - x, x + 25.0) * (np.pi / 100.0)
    size = 1601
    table = decoherence._sine_rows(size, h)
    direct = np.sin(np.arange(size, dtype=float)[:, None] * h)
    exact = np.sin(np.arange(size, dtype=np.longdouble)[:, None] * h.astype(np.longdouble))
    error, direct_error = (np.abs(t - exact).astype(float) for t in (table, direct))
    assert error.max() <= 1.01 * direct_error.max()
    # next to the walls the angles are small: each point's error relative to
    # its largest entry, worst over the five interior points at each wall
    near = np.r_[1:6, x.size - 6:x.size - 1]
    scale = np.abs(exact[:, near]).max(axis=0).astype(float)
    assert np.max(error[:, near].max(axis=0) / scale) <= np.max(direct_error[:, near].max(axis=0) / scale)
    # the first block of multiples is sin(r h) itself
    assert np.array_equal(table[:40], direct[:40])
