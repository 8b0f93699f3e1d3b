import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxcarpets as bc
from boxcarpets import spectral
from boxcarpets.decoherence import density_map
from boxcarpets.errors import DomainError

import oracles
from conftest import density_element

# Frozen from the quadrature oracle (Simpson, 4001 points over the box).
C1_X0_ZERO = 0.5641053374772335
DEFICIT_N50 = 0.00013813756825897805

# x0 values used for oracle cross-checks; 0.05-granular so the support edges
# land on panel boundaries of the 4001-point Simpson grid.
ORACLE_X0_SINGLE = (0.0, 6.0, 12.5, 18.0, 20.0)
ORACLE_X0_DOUBLE = (5.0, 6.0, 12.5, 15.0, 18.0, 20.0)


def oracle_coeffs(spec, cfg, N=50):
    x = oracles.oracle_grid(cfg)
    return oracles.decompose_numeric(x, oracles.input_signal(spec, x), cfg, N)


# -- modes -------------------------------------------------------------


def test_eigenmode_values(cfg):
    (m1, m2), = bc.mode_values([1, 2], 0.0, cfg)
    assert m1 == pytest.approx(np.sqrt(2.0 / 50.0), rel=1e-15)
    assert m2 == 0.0
    assert abs(bc.mode_values([1], 25.0, cfg)[0, 0]) < 1e-12  # vanishes at the wall


def test_eigenmode_outside_box(cfg):
    with pytest.raises(DomainError):
        bc.mode_values([1], 25.0001, cfg)


@pytest.mark.parametrize("alphas", [[1, 3, 5, 49], [1, 2, 7, 50]], ids=["even-parity", "mixed-parity"])
def test_mode_basis_matches_direct_sin_cos(cfg, box_grid, alphas):
    # _ModeBasis resolves the all-even case and the slope signs once; the
    # oracle evaluates each mode and slope by its own sin or cos.  The two
    # round k = alpha pi / L differently: measured, the modes differ by up to
    # 2.8e-15 and the slopes by 8.9e-15; a wrong sign or parity is 0.2 off
    phi, dphi = oracles.modes(alphas, box_grid, cfg)
    assert np.max(np.abs(bc.mode_values(alphas, box_grid, cfg) - phi)) <= 1e-13
    assert np.max(np.abs(spectral._ModeBasis(alphas, cfg.L)(box_grid)[1] - dphi)) <= 1e-13


def test_mode_parity_convention(cfg):
    assert bc.mode(1, cfg).parity == "even"
    assert bc.mode(2, cfg).parity == "odd"
    assert bc.mode(49, cfg).parity == "even"
    assert bc.mode(1, cfg).k == pytest.approx(np.pi / 50.0, rel=1e-15)


def test_eigenenergy(cfg):
    assert bc.mode(1, cfg).E == pytest.approx(np.pi**2 / 5000.0, rel=1e-14)
    assert bc.mode(2, cfg).E / bc.mode(1, cfg).E == pytest.approx(4.0, rel=1e-14)
    assert bc.mode(5, cfg).E / bc.mode(1, cfg).E == pytest.approx(25.0, rel=1e-14)
    with pytest.raises(DomainError):
        bc.mode(0, cfg)


def test_orthonormality(cfg):
    x = np.linspace(-25.0, 25.0, 10001)
    w = oracles.simpson_weights(x)
    phi = bc.mode_values(np.arange(1, 51), x, cfg)
    gram = phi.T @ (w[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(50))) < 1e-8


# -- closed-form decompositions vs the quadrature oracle -----------------


def test_single_center_has_no_odd_modes(state0):
    assert np.all(state0.coeffs[1::2] == 0.0)


def test_resonant_coefficient(state0):
    assert state0.coeffs[4] == pytest.approx(np.sqrt(0.2), rel=1e-13)


def test_center_ground_coefficient_frozen_oracle_value(state0):
    assert state0.coeffs[0] == pytest.approx(C1_X0_ZERO, abs=1e-9)


@pytest.mark.parametrize("x0", ORACLE_X0_SINGLE)
def test_single_matches_oracle(cfg, x0):
    spec = bc.InputSignalSpec("single", x0, 10.0)
    analytic = bc.decompose(spec, cfg, 50).coeffs
    assert np.max(np.abs(analytic - oracle_coeffs(spec, cfg))) < 1e-8


@pytest.mark.parametrize("x0", ORACLE_X0_DOUBLE)
def test_double_matches_oracle(cfg, x0):
    spec = bc.InputSignalSpec("double", x0, 10.0)
    analytic = bc.decompose(spec, cfg, 50).coeffs
    assert np.max(np.abs(analytic - oracle_coeffs(spec, cfg))) < 1e-8


@pytest.mark.parametrize("N", [50, 800])
@pytest.mark.parametrize("w, x0", [(10.0, 5.0), (10.0, 12.5), (10.0, 20.0), (2.0, 1.0), (2.0, 7.3), (2.0, 24.0)])
def test_double_is_the_normalized_sum_of_mirror_lobes(cfg, N, w, x0):
    # w = 10 puts alpha = 5 on the resonant branch
    double = bc.decompose(bc.InputSignalSpec("double", x0, w), cfg, N).coeffs
    plus = bc.decompose(bc.InputSignalSpec("single", x0, w), cfg, N).coeffs
    minus = bc.decompose(bc.InputSignalSpec("single", -x0, w), cfg, N).coeffs
    assert np.max(np.abs(double - (plus + minus) / np.sqrt(2.0))) <= 1e-15 * np.max(np.abs(double))
    assert np.all(double[1::2] == 0.0)


def test_double_odd_modes_vanish_identically(cfg):
    for x0 in ORACLE_X0_DOUBLE:
        state = bc.decompose(bc.InputSignalSpec("double", x0, 10.0), cfg, 50)
        assert np.all(state.coeffs[1::2] == 0.0)


def test_double_half_quarter_magnitudes_match_centered_single(state0, double125):
    assert np.max(np.abs(np.abs(double125.coeffs) - np.abs(state0.coeffs))) < 1e-12


def test_double_zero_sets_at_special_centers(cfg):
    # At x0 = L/6 modes 2, 3, 4 drop out (3 through the center cosine); the
    # resonant alpha = 5 coefficient survives.  At x0 = 15 modes 4, 5, 6 drop.
    sixth = bc.decompose(bc.InputSignalSpec("double", 50.0 / 6.0, 10.0), cfg, 50).coeffs
    assert abs(sixth[1]) == 0.0 and abs(sixth[3]) == 0.0
    assert abs(sixth[2]) < 1e-12
    assert sixth[4] < -0.5
    fifteen = bc.decompose(bc.InputSignalSpec("double", 15.0, 10.0), cfg, 50).coeffs
    assert abs(fifteen[3]) == 0.0 and abs(fifteen[5]) == 0.0
    assert abs(fifteen[4]) < 1e-12


@settings(max_examples=30, deadline=None)
@given(steps=st.integers(min_value=-300, max_value=300))
def test_mirror_map(steps):
    # translating the lobe to -x0 flips the sign of every odd-parity mode
    cfg = bc.CavityConfig()
    x0 = steps * 0.05
    if abs(x0) + 5.0 > 25.0:
        x0 = np.sign(x0) * 20.0
    plus = bc.decompose(bc.InputSignalSpec("single", x0, 10.0), cfg, 50).coeffs
    minus = bc.decompose(bc.InputSignalSpec("single", -x0, 10.0), cfg, 50).coeffs
    assert np.allclose(minus[0::2], plus[0::2], atol=1e-15)
    assert np.allclose(minus[1::2], -plus[1::2], atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(
    x0_steps=st.integers(min_value=-280, max_value=280),
    w_steps=st.integers(min_value=40, max_value=300),
)
def test_oracle_agreement_property(x0_steps, w_steps):
    cfg = bc.CavityConfig()
    w = w_steps * 0.05
    x0 = x0_steps * 0.05
    if abs(x0) + w / 2.0 > 25.0:
        x0 = np.sign(x0) * (25.0 - w / 2.0)
        x0 = round(x0 / 0.05) * 0.05
    spec = bc.InputSignalSpec("single", x0, w)
    analytic = bc.decompose(spec, cfg, 50).coeffs
    assert np.max(np.abs(analytic - oracle_coeffs(spec, cfg))) < 1e-8


def test_invariant_violations_rejected(cfg):
    with pytest.raises(DomainError):
        bc.decompose(bc.InputSignalSpec("single", 20.5, 10.0), cfg, 50)
    with pytest.raises(DomainError):
        bc.decompose(bc.InputSignalSpec("double", 3.0, 10.0), cfg, 50)  # overlap
    with pytest.raises(DomainError):
        bc.decompose(bc.InputSignalSpec("double", 21.0, 10.0), cfg, 50)  # truncated
    with pytest.raises(DomainError):
        bc.decompose(bc.InputSignalSpec("double", -12.5, 10.0), cfg, 50)  # mirrored lobes swap sides
    with pytest.raises(DomainError):
        bc.InputSignalSpec("triple", 0.0, 10.0)
    with pytest.raises(DomainError):
        bc.InputSignalSpec("single", 0.0, -1.0)


# -- numeric projection ----------------------------------------------------


def test_numeric_recovers_pure_mode(cfg, box_grid):
    phi3 = bc.mode_values([3], box_grid, cfg)[:, 0]
    coeffs = oracles.decompose_numeric(box_grid, phi3, cfg, 50)
    assert coeffs[2] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(coeffs, 2)
    assert np.max(np.abs(others)) < 1e-9


def test_numeric_zero_signal(cfg, box_grid):
    coeffs = oracles.decompose_numeric(box_grid, np.zeros_like(box_grid), cfg, 50)
    assert np.all(coeffs == 0.0)


def test_numeric_needs_three_points(cfg):
    with pytest.raises(ValueError):
        oracles.decompose_numeric(np.array([0.0, 1.0]), np.array([1.0, 1.0]), cfg, 10)


# -- norm bookkeeping ------------------------------------------------------


def test_norm_deficit_reference(state0):
    deficit = bc.norm_deficit(state0)
    assert deficit == pytest.approx(DEFICIT_N50, rel=1e-9)
    assert deficit < 2e-3


def test_norm_deficit_decreases_with_truncation_depth(cfg):
    spec = bc.InputSignalSpec("single", 0.0, 10.0)
    deficits = [bc.norm_deficit(bc.decompose(spec, cfg, n)) for n in (1, 5, 25, 50, 200)]
    assert all(a >= b for a, b in zip(deficits, deficits[1:]))
    assert deficits[0] == pytest.approx(1.0 - C1_X0_ZERO**2, abs=1e-9)


def test_norm_deficit_single_mode(cfg):
    state = bc.SpectralState(cfg=cfg, coeffs=np.array([1.0]))
    assert bc.norm_deficit(state) == 0.0


def test_renormalized_state(state0):
    assert bc.norm_deficit(state0.renormalized()) < 1e-12


def test_coeffs_are_frozen(state0):
    with pytest.raises(ValueError):
        state0.coeffs[0] = 1.0


@pytest.mark.parametrize("N", [True, 3.0, "3", 0])
def test_mode_count_and_index_are_strict_integers(cfg, N):
    # decompose(..., N=True) used to return a one-mode state
    spec = bc.InputSignalSpec("single", 0.0, 10.0)
    with pytest.raises(DomainError, match="mode count N"):
        bc.decompose(spec, cfg, N)
    with pytest.raises(DomainError, match="mode index"):
        bc.mode(N, cfg)
    assert bc.decompose(spec, cfg, np.int64(3)).coeffs.size == 3


_DAMPED = bc.DecoherenceParams(gamma=0.1)
_NOT_A_REAL = [np.array([1.0, 2.0]), None, "1", True]


def _bad_scalar_calls():
    for t in _NOT_A_REAL:
        yield from (
            (f"velocity-{t!r}", lambda s, t=t: bc.velocity(s, 1.0, t)),
            (f"wavefunction-{t!r}", lambda s, t=t: bc.wavefunction(s, 1.0, t)),
            # "decohered_density": the damped pointwise density
            (f"decohered_density-{t!r}", lambda s, t=t: bc.probability_density(s, 1.0, t, _DAMPED)),
            (f"probability_density-{t!r}", lambda s, t=t: bc.probability_density(s, 1.0, t)),
            # "density_matrix": one element of the density matrix grid
            (f"density_matrix-{t!r}", lambda s, t=t: density_element(s, 1.0, 0.0, t, _DAMPED)),
            (f"density_matrix-x-{t!r}", lambda s, t=t: density_element(s, 0.0, t, 1.0, _DAMPED)),
            (f"purity_curve-{t!r}", lambda s, t=t: bc.purity_curve(s, t, _DAMPED)),
            (f"integrate_trajectory-t_end-{t!r}", lambda s, t=t: bc.integrate_trajectory(s, 0.0, t)),
            (f"integrate_trajectory-x0-{t!r}", lambda s, t=t: bc.integrate_trajectory(s, t, 1.0)),
            (f"regular-{t!r}", lambda s, t=t: bc.SpaceTimeGrid.regular(s.cfg, 3, 3, t)),
            # the decay map's gamma and the sweep's span_tau are spec fields
            (f"decay_time_map-{t!r}", lambda s, t=t: bc.decay_time_map(s.cfg, bc.DecoherenceParams(gamma=t))),
            (f"FitSpec-span_tau-{t!r}", lambda s, t=t: bc.FitSpec(span_tau=t)),
        )


_BAD_ARRAY_CALLS = [
    ("velocity_map-2d", lambda s: bc.velocity_map(s, [0.0], np.ones((2, 2)))),
    ("velocity_map-str", lambda s: bc.velocity_map(s, [0.0], ["1"])),
    ("density_map-2d", lambda s: density_map(s, [0.0], np.ones((2, 2)))),
    ("density_map-str", lambda s: density_map(s, [0.0], ["1"])),
    ("purity-str", lambda s: bc.purity(s, "1", _DAMPED)),
    ("purity-bool", lambda s: bc.purity(s, [True, False], _DAMPED)),
    ("purity-complex", lambda s: bc.purity(s, [1j], _DAMPED)),
    ("sample_times-str", lambda s: bc.integrate_trajectory(s, 0.0, 1.0, sample_times=["0", "1"])),
    ("positions-str", lambda s: bc.mode_values(np.arange(1, 3), ["a"], s.cfg)),
    ("positions-object", lambda s: bc.velocity_map(s, [0.0, None], [1.0])),
    ("positions-ragged", lambda s: bc.velocity_map(s, [np.zeros(2), np.zeros(3)], [1.0])),
    # numpy cannot even build an object array of these: it raised its broadcast ValueError
    ("positions-ragged-2d", lambda s: bc.velocity_map(s, [np.zeros((2, 2)), np.zeros((2, 3))], [1.0])),
    # numpy turns a bool among numbers into 1.0: these used to return values
    ("positions-bool-in-list", lambda s: bc.velocity_map(s, [True, 2.0], [1.0])),
    ("times-bool-in-list", lambda s: density_map(s, [1.0], [True, 2.0])),
    ("purity-bool-in-list", lambda s: bc.purity(s, [True, 2.0], _DAMPED)),
    ("SpaceTimeGrid-str", lambda s: bc.SpaceTimeGrid(x=np.array([0.0, 1.0]), t=np.array(["0", "1"]))),
    ("SpectralState-complex", lambda s: bc.SpectralState(s.cfg, np.array([1j, 0.0]))),
]


@pytest.mark.parametrize(
    "call", [pytest.param(call, id=name) for name, call in [*_bad_scalar_calls(), *_BAD_ARRAY_CALLS]]
)
def test_bad_real_arguments_raise_domain_error(state20, call):
    # these used to raise TypeError or ValueError from numpy, or to return a value
    with pytest.raises(DomainError):
        call(state20)


_PLANE = np.zeros((2, 2))
_PLANE_CALLS = {
    "density_map": lambda s: density_map(s, _PLANE, [1.0]),
    "velocity_map": lambda s: bc.velocity_map(s, _PLANE, [1.0]),
    "density_matrix_grid": lambda s: bc.density_matrix_grid(s, _PLANE, [0.0], 1.0, _DAMPED),
    "velocity": lambda s: bc.velocity(s, _PLANE, 1.0),
    "wavefunction": lambda s: bc.wavefunction(s, _PLANE, 1.0),
    "asymptotic_density": lambda s: bc.asymptotic_density(s, _PLANE),
    "decohered_density": lambda s: bc.probability_density(s, _PLANE, 1.0, _DAMPED),  # damped
    "mode_values": lambda s: bc.mode_values(s.alphas, _PLANE, s.cfg),
}


@pytest.mark.parametrize("name", list(_PLANE_CALLS))
def test_positions_are_a_scalar_or_a_1d_array(state20, name):
    # these used to raise a numpy broadcast ValueError, or to return a (2, 1, 2) array
    with pytest.raises(DomainError, match=r"shape \(2, 2\)"):
        _PLANE_CALLS[name](state20)

