import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxcarpets as bc
from boxcarpets.errors import DomainError

# Frozen from the quadrature oracle (Simpson, 4001 points over the box).
C1_X0_ZERO = 0.5641053374772335
DEFICIT_N50 = 0.00013813756825897805

# x0 values used for oracle cross-checks; 0.05-granular so the support edges
# land on panel boundaries of the 4001-point Simpson grid.
ORACLE_X0_SINGLE = (0.0, 6.0, 12.5, 18.0, 20.0)
ORACLE_X0_DOUBLE = (5.0, 6.0, 12.5, 15.0, 18.0, 20.0)


def oracle_coeffs(spec, cfg, N=50):
    x = bc.oracle_grid(cfg)
    return bc.decompose_numeric(x, bc.input_signal(spec, x), cfg, N).coeffs


# -- modes -------------------------------------------------------------


def test_eigenmode_values(cfg):
    m1 = bc.mode(1, cfg)
    assert bc.eigenmode(m1, 0.0, cfg) == pytest.approx(np.sqrt(2.0 / 50.0), rel=1e-15)
    assert bc.eigenmode(bc.mode(2, cfg), 0.0, cfg) == 0.0
    assert abs(bc.eigenmode(m1, 25.0, cfg)) < 1e-12  # vanishes at the wall


def test_eigenmode_outside_box(cfg):
    with pytest.raises(DomainError):
        bc.eigenmode(bc.mode(1, cfg), 25.0001, cfg)


def test_mode_parity_convention(cfg):
    assert bc.mode(1, cfg).parity == "even"
    assert bc.mode(2, cfg).parity == "odd"
    assert bc.mode(49, cfg).parity == "even"
    assert bc.mode(1, cfg).k == pytest.approx(np.pi / 50.0, rel=1e-15)


def test_eigenenergy(cfg):
    assert bc.eigenenergy(1, cfg) == pytest.approx(np.pi**2 / 5000.0, rel=1e-14)
    assert bc.eigenenergy(2, cfg) / bc.eigenenergy(1, cfg) == pytest.approx(4.0, rel=1e-14)
    assert bc.eigenenergy(5, cfg) / bc.eigenenergy(1, cfg) == pytest.approx(25.0, rel=1e-14)
    with pytest.raises(DomainError):
        bc.eigenenergy(0, cfg)


def test_orthonormality(cfg):
    x = np.linspace(-25.0, 25.0, 10001)
    w = bc.simpson_weights(x)
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
    phi3 = bc.eigenmode(bc.mode(3, cfg), box_grid, cfg)
    state = bc.decompose_numeric(box_grid, phi3, cfg, 50)
    assert state.coeffs[2] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(state.coeffs, 2)
    assert np.max(np.abs(others)) < 1e-9


def test_numeric_zero_signal(cfg, box_grid):
    state = bc.decompose_numeric(box_grid, np.zeros_like(box_grid), cfg, 50)
    assert np.all(state.coeffs == 0.0)


def test_numeric_needs_three_points(cfg):
    with pytest.raises(DomainError):
        bc.decompose_numeric(np.array([0.0, 1.0]), np.array([1.0, 1.0]), cfg, 10)


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


def test_state_csv_round_trip(tmp_path, state20):
    path = tmp_path / "state.csv"
    from boxcarpets import csvio

    csvio.write_spectral_state(state20, path)
    back = csvio.read_spectral_state(path)
    assert np.array_equal(back.coeffs, state20.coeffs)
    assert back.cfg == state20.cfg
    assert back.signal == state20.signal


def test_state_csv_rejects_malformed_header(tmp_path):
    from boxcarpets import csvio

    path = tmp_path / "broken.csv"
    path.write_text("1,even,0.5\n")
    with pytest.raises(DomainError):
        csvio.read_spectral_state(path)


@pytest.mark.parametrize("N", [True, 3.0, "3", 0])
def test_mode_count_and_index_are_strict_integers(cfg, N):
    # decompose(..., N=True) used to return a one-mode state
    spec = bc.InputSignalSpec("single", 0.0, 10.0)
    with pytest.raises(DomainError, match="mode count N"):
        bc.decompose(spec, cfg, N)
    with pytest.raises(DomainError, match="mode index"):
        bc.eigenenergy(N, cfg)
    assert bc.decompose(spec, cfg, np.int64(3)).coeffs.size == 3
