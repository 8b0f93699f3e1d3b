import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

import boxcarpets as bc
from boxcarpets import energy
from boxcarpets.errors import DomainError, FitFailure

from conftest import make_state

CHI_INF_X0_ZERO = 0.23465451543055765  # sum of squared populations, N = 50


def test_initial_purity_is_squared_norm(state0, state20, ref_params):
    for state in (state0, state20):
        norm = float(np.sum(state.populations))
        assert bc.purity(state, 0.0, ref_params) == pytest.approx(norm**2, abs=1e-12)


def test_purity_constant_without_damping(state0, rev):
    p0 = bc.DecoherenceParams.coherent()
    chi = bc.purity(state0, np.array([0.0, rev.tau, 8 * rev.tau]), p0)
    assert np.allclose(chi, chi[0], atol=1e-14)


def test_purity_monotone_and_bounded(state0, rev, ref_params):
    t = np.linspace(0.0, 10.0 * rev.tau, 200)
    chi = bc.purity(state0, t, ref_params)
    assert np.all(np.diff(chi) < 0.0)
    chi_inf = bc.purity_asymptote(state0)
    assert np.all(chi >= chi_inf - 1e-12)
    assert chi[0] <= 1.0


def test_purity_approaches_asymptote(state0, rev, ref_params):
    chi = bc.purity(state0, 20.0 * rev.tau, ref_params)
    assert abs(chi - bc.purity_asymptote(state0)) < 1e-6


def test_purity_asymptote_reference_value(state0):
    assert bc.purity_asymptote(state0) == pytest.approx(CHI_INF_X0_ZERO, rel=1e-12)
    assert 0.20 <= bc.purity_asymptote(state0) <= 0.25


def test_purity_gamma_time_scale_property(state0, rev):
    t = 0.7 * rev.tau
    k = 5.0
    a = bc.purity(state0, t, bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA))
    b = bc.purity(state0, k * t, bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA / k))
    assert a == pytest.approx(b, rel=1e-12)


def test_offcenter_singles_sit_below_reference(cfg, state0):
    ref = bc.purity_asymptote(state0)
    for x0 in (2.0, 6.0, 12.5, 18.0, 20.0):
        st = bc.decompose(bc.InputSignalSpec("single", x0, 10.0), cfg, 50)
        assert bc.purity_asymptote(st) < ref


def test_double_at_quarter_box_matches_centered_single(state0, double125):
    assert abs(bc.purity_asymptote(double125) - bc.purity_asymptote(state0)) < 1e-9


def test_double_roughly_twice_single_at_18(cfg):
    single = bc.decompose(bc.InputSignalSpec("single", 18.0, 10.0), cfg, 50)
    double = bc.decompose(bc.InputSignalSpec("double", 18.0, 10.0), cfg, 50)
    ratio = bc.purity_asymptote(double) / bc.purity_asymptote(single)
    assert 1.7 <= ratio <= 2.1


@pytest.fixture(scope="module")
def wide_state(cfg):
    """A narrow off-center lobe on 800 modes, every one of them populated."""
    return bc.decompose(bc.InputSignalSpec("single", 15.166, 2.0), cfg, 800)


def _long_double_purity(state, times, gamma):
    """Pair sum chi = sum_a p_a^2 + 2 sum_{a<b} p_a p_b exp(-2 gamma (E_b - E_a) t / hbar)."""
    ld = np.longdouble
    cfg = state.cfg
    p = state.coeffs.astype(ld) ** 2
    E = (ld(cfg.hbar) * ld(np.pi) * state.alphas.astype(ld) / ld(cfg.L)) ** 2 / (2 * ld(cfg.m))
    out = []
    for t in times:
        rate = 2 * ld(gamma) * ld(t) / ld(cfg.hbar)
        chi = np.sum(p * p)
        for b in range(1, p.size):
            chi += 2 * p[b] * np.sum(p[:b] * np.exp(-rate * (E[b] - E[:b])))
        out.append(chi)
    return np.array(out)


@pytest.mark.parametrize("gamma", [0.0, bc.DEFAULT_GAMMA, 0.3])
def test_purity_matches_long_double_pair_sum(state0, state20, double125, wide_state, rev, gamma):
    times = np.array([0.0, 1e-3, 0.37, 10.0, 1e4]) * rev.tau
    params = bc.DecoherenceParams(gamma=gamma)
    for state in (state0, state20, double125, wide_state):
        chi = bc.purity(state, times, params)
        assert np.max(np.abs(chi - _long_double_purity(state, times, gamma))) <= 2e-15
        if gamma > 0.0:
            # every step damping underflows: only the populations remain
            assert abs(chi[-1] - bc.purity_asymptote(state)) <= 1e-15
    curve = bc.purity_curve(wide_state, 10.0 * rev.tau, params)
    assert np.all(np.diff(curve.values) <= 0.0)


def test_purity_never_builds_a_mode_pair_matrix(wide_state, rev, ref_params):
    # an N x N float64 array at N = 800 takes 5.1 MB
    times = np.concatenate([[0.0], np.geomspace(1e-2 * rev.tau, 10.0 * rev.tau, 199)])
    tracemalloc.start()
    try:
        bc.purity(wide_state, times, ref_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_quadrature_oracle_agreement(state0, rev, ref_params):
    for t in (0.0, rev.tau):
        closed = bc.purity(state0, t, ref_params)
        quad = bc.purity_via_quadrature(state0, t, ref_params, points=400)
        assert abs(closed - quad) < 2e-3


def test_quadrature_oracle_ignores_spatial_rate(state0, rev, ref_params, loc_params):
    a = bc.purity_via_quadrature(state0, rev.tau, ref_params, points=200)
    b = bc.purity_via_quadrature(state0, rev.tau, loc_params, points=200)
    assert a == b


# -- correlation matrix and decay map ----------------------------------------


def test_correlation_matrix_structure(state0):
    corr = bc.correlation_matrix(state0)
    assert np.array_equal(corr, corr.T)
    assert np.allclose(np.diag(corr), state0.populations, atol=0.0)
    assert np.all(corr[1::2, :] == 0.0) and np.all(corr[:, 1::2] == 0.0)
    assert np.trace(corr) == pytest.approx(1.0 - bc.norm_deficit(state0), abs=1e-12)


def test_decay_time_map(cfg, rev, ref_params):
    times = bc.decay_time_map(cfg, bc.DEFAULT_GAMMA, 50)
    # the same rate as beta, from the exact integer beat
    rates = [[bc.beta(a, b, ref_params, cfg) for b in range(1, 51)] for a in range(1, 51)]
    with np.errstate(divide="ignore"):
        assert np.array_equal(times, 1.0 / np.array(rates))
    assert times[0, 2] == pytest.approx(rev.tau / 0.8, rel=1e-12)
    assert np.all(np.isinf(np.diag(times)))
    assert times[0, 2] > times[0, 4] > times[0, 40]
    assert times[0, 9] == times[9, 0]
    with pytest.raises(DomainError):
        bc.decay_time_map(cfg, 0.0, 10)


# -- curves and fits ----------------------------------------------------------


def test_purity_curve_sampling(state0, rev, ref_params):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params, samples=80)
    assert curve.times[0] == 0.0
    assert curve.times.size == 80
    assert np.all(np.diff(curve.values) <= 1e-12)


def test_purity_curve_validation(state0, ref_params):
    for t_max in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="t_max"):
            bc.purity_curve(state0, t_max, ref_params)
    for samples in (2.5, True, "60", 1):
        with pytest.raises(DomainError, match="samples"):
            bc.purity_curve(state0, 100.0, ref_params, samples=samples)
    assert bc.purity_curve(state0, 100.0, ref_params, samples=np.int64(60)).times.size == 60
    with pytest.raises(DomainError):
        bc.PurityCurve(times=np.array([0.0, 1.0]), values=np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        bc.PurityCurve(times=np.array([1.0, 0.0]), values=np.array([0.6, 0.5]))
    with pytest.raises(DomainError):
        bc.PurityCurve(times=np.array([0.0, 1.0]), values=np.array([0.5, -0.1]))
    for times, values in (([0.0, np.nan], [0.6, 0.5]), ([0.0, np.inf], [0.6, 0.5]), ([0.0, 1.0], [0.6, np.nan])):
        with pytest.raises(DomainError, match="finite"):
            bc.PurityCurve(times=np.array(times), values=np.array(values))


def _synthetic_curve(chi0, amps, scales, span, n=200):
    t = np.concatenate([[0.0], np.geomspace(span / 1000.0, span, n - 1)])
    v = chi0 + sum(a * np.exp(-t / s) for a, s in zip(amps, scales))
    return bc.PurityCurve(times=t, values=v)


def test_fit_recovers_synthetic_parameters(rev):
    tau = rev.tau
    curve = _synthetic_curve(0.2, (0.3, 0.3, 0.2), (0.2 * tau, tau, 4 * tau), 10 * tau)
    fit = bc.fit_purity(curve)
    assert fit.chi0 == pytest.approx(0.2, rel=0.05)
    for got, want in zip(fit.amplitudes, (0.3, 0.3, 0.2)):
        assert got == pytest.approx(want, rel=0.05)
    for got, want in zip(fit.timescales, (0.2 * tau, tau, 4 * tau)):
        assert got == pytest.approx(want, rel=0.05)
    assert fit.t0 == 0.0


def test_fit_is_idempotent(state0, rev, ref_params):
    first = bc.fit_purity(bc.purity_curve(state0, 10 * rev.tau, ref_params))
    resampled = _synthetic_curve(first.chi0, first.amplitudes, first.timescales, 10 * rev.tau)
    second = bc.fit_purity(resampled)
    for a, b in zip(first.timescales, second.timescales):
        assert b == pytest.approx(a, rel=0.01)
    assert second.chi0 == pytest.approx(first.chi0, rel=0.01)


def test_fit_of_reference_curve_is_tight(state0, rev, ref_params):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    fit = bc.fit_purity(curve)
    assert fit.residual < 1e-3
    assert fit.timescales[0] < fit.timescales[1] < fit.timescales[2]
    assert fit.chi0 == pytest.approx(bc.purity_asymptote(state0), abs=0.02)


def test_fit_keeps_timescale_overflow_silent(cfg, rev, ref_params):
    # at this curve and seed a restart drives a log-timescale past exp's range
    state = bc.decompose(bc.InputSignalSpec("single", 16.751, 2.0), cfg, 100)
    curve = bc.purity_curve(state, 10 * rev.tau, ref_params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = bc.fit_purity(curve, seed=7)
    assert [str(w.message) for w in caught] == []
    # so warnings-as-errors cannot skip a restart and move the fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = bc.fit_purity(curve, seed=7)
    assert strict == fit


def test_fit_rejects_constant_curve():
    t = np.linspace(0.0, 100.0, 80)
    curve = bc.PurityCurve(times=t, values=np.full_like(t, 0.5))
    with pytest.raises(FitFailure):
        bc.fit_purity(curve)


def test_fit_needs_enough_samples(rev):
    curve = _synthetic_curve(0.2, (0.3, 0.3, 0.2), (1.0, 10.0, 100.0), 1000.0, n=20)
    with pytest.raises(DomainError):
        bc.fit_purity(curve)


def test_purity_fit_validation():
    with pytest.raises(DomainError):
        bc.PurityFit(chi0=0.2, amplitudes=(0.1, 0.1, 0.1), timescales=(2.0, 1.0, 3.0), t0=0.0, residual=0.0)
    with pytest.raises(DomainError):
        bc.PurityFit(chi0=-0.1, amplitudes=(0.1, 0.1, 0.1), timescales=(1.0, 2.0, 3.0), t0=0.0, residual=0.0)


def test_projection_jacobian_matches_central_differences(state0, rev, ref_params):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    dt, vals = curve.times, curve.values
    floor = dt[-1] * 1e-12
    base = np.log(np.geomspace(dt[-1] / 100.0, dt[-1], 3))
    points = {
        "base": base,
        "jittered": base + np.random.default_rng(3).uniform(-1.5, 1.5, size=3),
        "near-equal": np.log([10.0, 10.5, 200.0]),
        "overflow": np.array([base[0], base[1], 710.0]),
    }
    h = 1e-6
    for name, theta in points.items():
        c, r, J = energy._project(theta, dt, vals, floor)
        assert c.shape == (4,) and r.shape == dt.shape and J.shape == (dt.size, 3)
        fd = np.empty_like(J)
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            plus = energy._project(theta + step, dt, vals, floor)[1]
            minus = energy._project(theta - step, dt, vals, floor)[1]
            fd[:, j] = (plus - minus) / (2 * h)
        scale = np.max(np.abs(J))
        assert np.max(np.abs(J - fd)) <= 1e-6 * scale, name
    # the overflowed timescale is the constant column: no derivative at all
    assert np.all(np.isfinite(J)) and np.all(J[:, 2] == 0.0)


def _finite_difference_fit(curve, restarts=20, seed=0):
    """The fit before its analytic Jacobian: one lstsq per residual, 2-point differences.

    Returns the best rms and the sorted timescales.
    """
    dt = curve.times - curve.times[0]
    span = float(dt[-1])

    def residual(theta):
        with np.errstate(over="ignore"):
            ts = np.maximum(np.exp(theta), span * 1e-12)
        design = np.column_stack([np.ones_like(dt)] + [np.exp(-dt / s) for s in ts])
        coef, *_ = np.linalg.lstsq(design, curve.values, rcond=None)
        return design @ coef - curve.values

    rng = np.random.default_rng(seed)
    base = np.log(np.geomspace(span / 100.0, span, 3))
    best = None
    for i in range(restarts):
        theta0 = base if i == 0 else base + rng.uniform(-1.5, 1.5, size=3)
        sol = least_squares(residual, theta0, jac="2-point", method="lm", xtol=1e-14, ftol=1e-14, max_nfev=4000)
        rms = float(np.sqrt(np.mean(sol.fun**2)))
        if best is None or rms < best[0]:
            with np.errstate(over="ignore"):
                best = (rms, np.sort(np.exp(sol.x)))
    return best


@pytest.mark.parametrize(
    "kind, x0, w, N",
    [("single", 0.0, 10.0, 50), ("single", 12.5, 10.0, 50), ("single", 20.0, 10.0, 50),
     ("double", 12.5, 10.0, 50), ("single", 15.166, 2.0, 800)],
)
def test_fit_matches_finite_difference_fit(cfg, rev, ref_params, kind, x0, w, N):
    state = bc.decompose(bc.InputSignalSpec(kind, x0, w), cfg, N)
    curve = bc.purity_curve(state, 10 * rev.tau, ref_params)
    fit = bc.fit_purity(curve)
    rms, timescales = _finite_difference_fit(curve)
    assert fit.residual == pytest.approx(rms, rel=1e-12, abs=0.0)
    assert np.allclose(fit.timescales, timescales, rtol=1e-6, atol=0.0)


def test_fit_work_is_one_factorization_per_point(state0, rev, ref_params, monkeypatch):
    # the finite-difference route made 1,636 lstsq solves on this curve
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    bc.fit_purity(curve, seed=0)
    assert 0 < len(calls) <= 800


def test_fit_restart_errors(state0, rev, ref_params, monkeypatch):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)

    def raising(error):
        def solver(*args, **kwargs):
            raise error("solver failed")
        return solver

    # a defect in the fit is not a failed restart: it surfaces
    monkeypatch.setattr(energy, "leastsq", raising(RuntimeError))
    with pytest.raises(RuntimeError, match="solver failed"):
        bc.fit_purity(curve)
    # a factorization that does not converge ends only its restart
    monkeypatch.setattr(energy, "leastsq", raising(np.linalg.LinAlgError))
    with pytest.raises(FitFailure, match="no restart converged"):
        bc.fit_purity(curve)


def test_fit_and_sweep_validate_restarts(cfg, state0, rev, ref_params, monkeypatch):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    # the sweep checks the count once, before any center is decomposed
    monkeypatch.setattr(energy, "decompose", None)
    for bad in (0, -3, 2.5, np.float64(2.0), True, np.bool_(True), "4", None):
        with pytest.raises(DomainError, match="restarts"):
            bc.fit_purity(curve, restarts=bad)
        with pytest.raises(DomainError, match="restarts"):
            bc.sweep_x0("single", [0.0, 22.0], cfg, restarts=bad)
    assert bc.fit_purity(curve, restarts=np.int64(1)) == bc.fit_purity(curve, restarts=1)


# -- sweep ---------------------------------------------------------------------


def test_sweep_shapes_and_trends(cfg):
    xs = np.array([0.0, 6.0, 10.0, 12.5, 14.0, 20.0, 22.0])
    rows = bc.sweep_x0("single", xs, cfg, restarts=4)
    assert len(rows) == 7
    by_x0 = {r.x0: r for r in rows}
    assert by_x0[22.0].error is not None and "x0" in by_x0[22.0].error
    plateau = [by_x0[x].chi_inf for x in (6.0, 10.0, 14.0)]
    assert max(plateau) - min(plateau) < 0.005
    assert by_x0[0.0].chi_inf > max(plateau)
    assert by_x0[20.0].chi_inf < min(plateau)
    ok_rows = [r for r in rows if r.error is None]
    assert all(r.t1 < r.t2 < r.t3 for r in ok_rows)


def test_sweep_renormalize(cfg):
    # a w = 2 lobe loses about 3% of its norm to the 50-mode truncation
    state = bc.decompose(bc.InputSignalSpec("single", 4.0, 2.0), cfg, 50)
    rows = [bc.sweep_x0("single", [4.0], cfg, w=2.0, samples=50, restarts=2, renormalize=flag)[0]
            for flag in (False, True)]
    assert rows[0].chi_inf == bc.purity_asymptote(state)
    assert rows[1].chi_inf == bc.purity_asymptote(state.renormalized())
    assert rows[1].chi_inf > rows[0].chi_inf


def test_sweep_double_dip(cfg, state0):
    rows = bc.sweep_x0("double", np.array([10.0, 12.5, 15.0]), cfg, restarts=4)
    by_x0 = {r.x0: r for r in rows}
    assert by_x0[12.5].chi_inf == pytest.approx(bc.purity_asymptote(state0), abs=1e-9)
    assert by_x0[12.5].chi_inf < by_x0[10.0].chi_inf
    assert by_x0[12.5].chi_inf < by_x0[15.0].chi_inf


def test_single_mode_state_edge_cases(cfg, rev, ref_params):
    state = make_state(cfg, [1.0])
    assert bc.purity(state, 3.0, ref_params) == pytest.approx(1.0, abs=1e-14)
    # one populated mode has no pairs: exactly its squared population, at any time
    for coeffs in ([0.6], [0.0, 0.0, 0.7, 0.0]):
        p = max(coeffs) ** 2
        chi = bc.purity(make_state(cfg, coeffs), np.array([0.0, 0.37 * rev.tau, 1e4 * rev.tau]), ref_params)
        assert np.all(chi == p**2)
    assert bc.purity_asymptote(state) == 1.0
    with pytest.raises(DomainError):
        bc.purity(state, -1.0, ref_params)
