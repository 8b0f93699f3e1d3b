"""The Simpson weights of ``tests/oracles.py``."""

import numpy as np
import pytest
from scipy.integrate import simpson

from oracles import simpson_weights


def test_matches_scipy_on_odd_counts():
    x = np.linspace(0.0, 3.0, 501)
    y = np.exp(-(x**2)) * np.cos(3 * x)
    assert simpson_weights(x) @ y == pytest.approx(simpson(y, x=x), rel=1e-14)


@pytest.mark.parametrize("n", [4, 6, 400, 401])
def test_exact_on_cubics(n):
    x = np.linspace(-1.0, 2.0, n)
    y = 2 * x**3 - x**2 + 4 * x - 1
    exact = (2 / 4) * (2**4 - 1) - (1 / 3) * (2**3 + 1) + 2 * (2**2 - 1) - 3
    assert simpson_weights(x) @ y == pytest.approx(exact, rel=1e-12)


def test_even_count_converges_at_fourth_order():
    f = lambda x: np.sin(5 * x)
    exact = (1 - np.cos(5.0)) / 5
    errs = []
    for n in (100, 200):
        x = np.linspace(0, 1, n)
        errs.append(abs(simpson_weights(x) @ f(x) - exact))
    assert errs[1] < errs[0] / 12  # ~2^4 reduction


@pytest.mark.parametrize("n", range(3, 13))
def test_weights_are_the_written_out_rule(n):
    # (1, 4, 2, ..., 4, 1) h/3 on the odd prefix; an even count closes the
    # last three intervals with (1, 3, 3, 1) 3h/8
    x = np.linspace(-0.7, 2.2, n)
    h = (x[-1] - x[0]) / (n - 1)
    odd = n if n % 2 else n - 3
    pattern = [1.0] + [4.0, 2.0] * ((odd - 3) // 2) + [4.0, 1.0] if odd > 1 else []
    expected = np.array([p * (h / 3.0) for p in pattern] + [0.0] * (n - len(pattern)))
    if n % 2 == 0:
        expected[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    assert simpson_weights(x).tobytes() == expected.tobytes()


def test_rejects_bad_grids():
    with pytest.raises(ValueError):
        simpson_weights(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        simpson_weights(np.array([0.0, 0.5, 2.0]))
    with pytest.raises(ValueError):
        simpson_weights(np.array([1.0, 0.5, 0.0]))
