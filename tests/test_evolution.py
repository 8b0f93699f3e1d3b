import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxcarpets as bc
from boxcarpets.errors import DomainError

import oracles
from conftest import make_state


def test_frequency_values(cfg, rev):
    assert bc.frequency(1, 1, cfg) == 0.0
    assert bc.frequency(1, 3, cfg) == pytest.approx(16.0 * np.pi**2 / 1e4, rel=1e-14)
    assert bc.frequency(1, 3, cfg) * rev.t_revival == pytest.approx(16.0 * np.pi, rel=1e-12)
    with pytest.raises(DomainError):
        bc.frequency(3, 1, cfg)


def test_revival_times(cfg, rev):
    assert rev.t_revival == pytest.approx(1e4 / np.pi, rel=1e-15)
    assert rev.tau == pytest.approx(1e4 / (8.0 * np.pi), rel=1e-15)
    assert rev.t_revival / rev.tau == 8.0


def test_wavefunction_initial_truncation(cfg, state0, box_grid):
    # Parseval: the L2 gap between the truncated state and the input profile
    # is exactly the norm deficit.
    psi = bc.wavefunction(state0, box_grid, 0.0)
    target = oracles.input_signal(state0.signal, box_grid)
    gap = oracles.simpson_weights(box_grid) @ np.abs(psi - target) ** 2
    assert gap == pytest.approx(bc.norm_deficit(state0), abs=1e-6)


def test_single_mode_is_stationary(cfg):
    state = make_state(cfg, [0.0, 0.0, 1.0])
    x = np.linspace(-20.0, 20.0, 101)
    a0 = np.abs(bc.wavefunction(state, x, 0.0))
    for t in (13.7, 400.0, 2000.0):
        assert np.allclose(np.abs(bc.wavefunction(state, x, t)), a0, atol=1e-13)


def test_density_equals_wavefunction_square(state20, box_grid, rev):
    for t in (0.0, 0.37 * rev.tau, 3.1 * rev.tau):
        rho = bc.probability_density(state20, box_grid, t)
        psi2 = np.abs(bc.wavefunction(state20, box_grid, t)) ** 2
        assert np.max(np.abs(rho - psi2)) < 1e-12


@pytest.mark.parametrize("k", [1, 100, 10_000])
def test_long_times_lose_only_the_rounding_of_t(state20, rev, k):
    # wavefunction takes float energies times t, the density series exact
    # integer beats.  k revivals later both rows differ from the row at
    # 0.37 tau alike, by an error that grows like k: the rounding of t
    # itself.  So the float energies add no error of their own.
    x = np.linspace(-25.0, 25.0, 1001)
    t0 = 0.37 * rev.tau
    ref = bc.probability_density(state20, x, t0)
    t = t0 + k * rev.t_revival
    for rho in (np.abs(bc.wavefunction(state20, x, t)) ** 2, bc.probability_density(state20, x, t)):
        assert np.max(np.abs(rho - ref)) <= 2e-13 * k * ref.max()


def test_density_symmetry_of_centered_signal(state0, rev):
    x = np.linspace(-25.0, 25.0, 501)
    for t in (0.0, 0.3 * rev.tau, 1.7 * rev.tau):
        rho = bc.probability_density(state0, x, t)
        assert np.allclose(rho, rho[::-1], atol=1e-12)


def test_full_revival(state20, box_grid, rev):
    d0 = bc.probability_density(state20, box_grid, 0.0)
    dT = bc.probability_density(state20, box_grid, rev.t_revival)
    assert np.max(np.abs(dT - d0)) < 1e-10


def test_mirror_recurrence_at_half_revival(state20, box_grid, rev):
    d0 = bc.probability_density(state20, box_grid, 0.0)
    dh = bc.probability_density(state20, box_grid, rev.t_revival / 2.0)
    assert np.max(np.abs(dh - d0[::-1])) < 1e-10


def test_symmetric_revival_at_tau(state0, double125, box_grid, rev):
    for state in (state0, double125):
        d0 = bc.probability_density(state, box_grid, 0.0)
        dt = bc.probability_density(state, box_grid, rev.tau)
        assert np.max(np.abs(dt - d0)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_truncated_state_revives(data):
    cfg = bc.CavityConfig()
    rev = bc.revival_times(cfg)
    n = data.draw(st.integers(min_value=2, max_value=12))
    raw = data.draw(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)
    )
    coeffs = np.asarray(raw)
    if not np.any(np.abs(coeffs) > 1e-3):
        coeffs[0] = 1.0
    coeffs = coeffs / np.sqrt(np.sum(coeffs**2))
    state = make_state(cfg, coeffs)
    x = np.linspace(-25.0, 25.0, 301)
    d0 = bc.probability_density(state, x, 0.0)
    dT = bc.probability_density(state, x, rev.t_revival)
    assert np.max(np.abs(dT - d0)) < 1e-10


def test_even_parity_class_revives_at_tau_odd_class_at_two_tau(cfg, rev):
    rng = np.random.default_rng(7)
    x = np.linspace(-25.0, 25.0, 301)

    even = np.zeros(20)
    even[0::2] = rng.normal(size=10)  # odd alpha = even parity
    even_state = make_state(cfg, even / np.linalg.norm(even))
    d0 = bc.probability_density(even_state, x, 0.0)
    assert np.max(np.abs(bc.probability_density(even_state, x, rev.tau) - d0)) < 1e-10

    odd = np.zeros(20)
    odd[1::2] = rng.normal(size=10)  # even alpha = odd parity
    odd_state = make_state(cfg, odd / np.linalg.norm(odd))
    d0 = bc.probability_density(odd_state, x, 0.0)
    assert np.max(np.abs(bc.probability_density(odd_state, x, 2.0 * rev.tau) - d0)) < 1e-10


def test_unit_trace_is_time_independent(state20, box_grid, rev, ref_params):
    w = oracles.simpson_weights(box_grid)
    norm = float(np.sum(state20.populations))
    for t in (0.0, 0.9 * rev.tau, 4.0 * rev.tau):
        coherent = w @ bc.probability_density(state20, box_grid, t)
        damped = w @ bc.probability_density(state20, box_grid, t, ref_params)
        assert coherent == pytest.approx(norm, abs=1e-6)
        assert damped == pytest.approx(norm, abs=1e-6)


def test_out_of_box_and_negative_time_errors(state0):
    with pytest.raises(DomainError):
        bc.wavefunction(state0, 26.0, 0.0)
    with pytest.raises(DomainError):
        bc.wavefunction(state0, 0.0, -1.0)
    with pytest.raises(DomainError):
        bc.probability_density(state0, 0.0, -0.5)


# -- carpets ----------------------------------------------------------------


def test_carpet_initial_row_and_symmetry(cfg, state0, rev):
    grid = bc.SpaceTimeGrid.regular(cfg, 201, 41, rev.tau)
    cp = bc.carpet(state0, grid)
    psi2 = np.abs(bc.wavefunction(state0, grid.x, 0.0)) ** 2
    assert np.max(np.abs(cp.values[0] - psi2)) < 1e-12
    assert np.allclose(cp.values, cp.values[:, ::-1], atol=1e-12)
    assert cp.quantity == "density"


def test_velocity_carpet_starts_at_rest(cfg, state20, rev):
    grid = bc.SpaceTimeGrid(x=np.linspace(-20, 20, 51), t=np.array([0.0, rev.tau / 7.0]))
    cp = bc.carpet(state20, grid, quantity="velocity")
    assert np.all(cp.values[0] == 0.0)
    assert np.any(cp.values[1] != 0.0)


def test_grid_validation():
    cfg = bc.CavityConfig()
    with pytest.raises(DomainError):
        bc.SpaceTimeGrid(x=np.array([0.0, 0.0]), t=np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        bc.SpaceTimeGrid(x=np.array([0.0, 1.0]), t=np.array([-1.0, 1.0]))
    grid = bc.SpaceTimeGrid.regular(cfg, 11, 5, 10.0)
    with pytest.raises(DomainError):
        bc.CarpetGrid(grid=grid, values=np.zeros((4, 11)), quantity="density")
    with pytest.raises(DomainError):
        bc.CarpetGrid(grid=grid, values=np.zeros((5, 11)), quantity="speed")
    # non-finite axes and values: NaN fails every ordering test, so each needs its own check
    for x, t in (([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0]), ([0.0, 1.0], [0.0, np.inf])):
        with pytest.raises(DomainError):
            bc.SpaceTimeGrid(x=np.array(x), t=np.array(t))
    for nt, t_max in ((5, np.nan), (5, np.inf), (1, np.nan)):
        with pytest.raises(DomainError):
            bc.SpaceTimeGrid.regular(cfg, 11, nt, t_max)
    # a non-integer count used to reach np.linspace and raise TypeError
    for nx, nt in ((2.5, 3), (11, 3.0), (True, 3), (11, 0)):
        with pytest.raises(DomainError, match="grid n[xt] must be"):
            bc.SpaceTimeGrid.regular(cfg, nx, nt, 1.0)
    for quantity in ("density", "velocity"):
        with pytest.raises(DomainError):
            bc.CarpetGrid(grid=grid, values=np.full((5, 11), np.nan), quantity=quantity)

