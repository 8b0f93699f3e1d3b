import numpy as np
import pytest

import boxcarpets as bc

import oracles


@pytest.fixture(scope="session")
def cfg():
    return bc.CavityConfig()


@pytest.fixture(scope="session")
def rev(cfg):
    return bc.revival_times(cfg)


@pytest.fixture(scope="session")
def state0(cfg):
    """Center-symmetric single lobe, the reference state."""
    return bc.decompose(bc.InputSignalSpec("single", 0.0, 10.0), cfg, 50)


@pytest.fixture(scope="session")
def state20(cfg):
    """Asymmetric single lobe at x0 = 20."""
    return bc.decompose(bc.InputSignalSpec("single", 20.0, 10.0), cfg, 50)


@pytest.fixture(scope="session")
def double125(cfg):
    return bc.decompose(bc.InputSignalSpec("double", 12.5, 10.0), cfg, 50)


@pytest.fixture(scope="session")
def ref_params():
    """Reference damping: gamma = 2/(5 pi), no spatial term."""
    return bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA)


@pytest.fixture(scope="session")
def loc_params():
    """Reference damping plus the formula spatial rate."""
    return bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA, lam="formula")


@pytest.fixture(scope="session")
def box_grid(cfg):
    return oracles.oracle_grid(cfg)


def make_state(cfg, coeffs):
    return bc.SpectralState(cfg=cfg, coeffs=np.asarray(coeffs, dtype=float))


def density_element(state, x, x_prime, t, params):
    """rho(x, x'; t): ``density_matrix_grid`` on one-point axes."""
    return complex(bc.density_matrix_grid(state, [x], [x_prime], t, params).values[0, 0])
