import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares, leastsq

import boxcarpets as bc
from boxcarpets import energy
from boxcarpets.errors import DomainError, FitFailure

import oracles
from conftest import make_state

CHI_INF_X0_ZERO = 0.23465451543055765  # sum of squared populations, N = 50


def test_initial_purity_is_squared_norm(state0, state20, ref_params):
    for state in (state0, state20):
        norm = float(np.sum(state.populations))
        assert bc.purity(state, 0.0, ref_params) == pytest.approx(norm**2, abs=1e-12)


def test_purity_constant_without_damping(state0, rev):
    p0 = bc.DecoherenceParams()
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
        quad = oracles.purity_via_quadrature(state0, t, ref_params.gamma, points=400)
        assert abs(closed - quad) < 2e-3


def test_quadrature_oracle_ignores_spatial_rate(state0, rev, ref_params, loc_params):
    # the oracle integrates rho without the spatial factor, which the closed form leaves out too
    closed = bc.purity(state0, rev.tau, loc_params)
    assert closed == bc.purity(state0, rev.tau, ref_params)
    assert abs(closed - oracles.purity_via_quadrature(state0, rev.tau, loc_params.gamma, points=200)) < 2e-3


# -- correlation matrix and decay map ----------------------------------------


def test_correlation_matrix_structure(state0):
    corr = bc.correlation_matrix(state0)
    assert np.array_equal(corr, corr.T)
    assert np.allclose(np.diag(corr), state0.populations, atol=0.0)
    assert np.all(corr[1::2, :] == 0.0) and np.all(corr[:, 1::2] == 0.0)
    assert np.trace(corr) == pytest.approx(1.0 - bc.norm_deficit(state0), abs=1e-12)


def test_decay_time_map(cfg, rev, ref_params):
    times = bc.decay_time_map(cfg, ref_params, 50)
    # the same rate as beta, from the exact integer beat
    rates = [[bc.beta(a, b, ref_params, cfg) for b in range(1, 51)] for a in range(1, 51)]
    with np.errstate(divide="ignore"):
        assert np.array_equal(times, 1.0 / np.array(rates))
    assert times[0, 2] == pytest.approx(rev.tau / 0.8, rel=1e-12)
    assert np.all(np.isinf(np.diag(times)))
    assert times[0, 2] > times[0, 4] > times[0, 40]
    assert times[0, 9] == times[9, 0]
    with pytest.raises(DomainError):
        bc.decay_time_map(cfg, bc.DecoherenceParams(), 10)


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
    state = bc.decompose(bc.InputSignalSpec("single", 16.751, 2.0), cfg, 100)
    curve = bc.purity_curve(state, 10 * rev.tau, ref_params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = bc.fit_purity(curve, bc.FitSpec(seed=7))
    assert [str(w.message) for w in caught] == []
    # so warnings-as-errors cannot skip a restart and move the fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = bc.fit_purity(curve, bc.FitSpec(seed=7))
    assert strict == fit
    # a log-timescale of 720 is past exp's range (~709.8): its timescale
    # overflows to infinity, silently, and its design column is the constant one
    dt, span = curve.times, curve.times[-1]
    theta = np.array([[np.log(span / 100.0), np.log(span / 10.0), 720.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, r, J, ok = energy._project(theta, dt, curve.values[None], span * 1e-12)
        _, _, F = energy._levenberg_marquardt(theta, np.zeros(1, dtype=int), dt[None], curve.values[None],
                                              np.array([span * 1e-12]))
    design = np.column_stack([np.ones_like(dt)] + [np.exp(-dt / s) for s in np.exp(theta[0, :2])])
    want, *_ = np.linalg.lstsq(design, curve.values, rcond=None)
    # the minimum-norm solution splits the baseline evenly between the two constant columns
    assert ok[0] and c[0, 3] == pytest.approx(c[0, 0], rel=1e-9)
    assert np.allclose(c[0, [0, 1, 2]] + [c[0, 3], 0.0, 0.0], want, rtol=1e-9, atol=0.0)
    assert np.allclose(r[0], design @ want - curve.values, rtol=0.0, atol=1e-12 * curve.values.max())
    assert np.all(J[0, 2] == 0.0) and np.isfinite(F[0])


def test_fit_rejects_constant_curve():
    t = np.linspace(0.0, 100.0, 80)
    curve = bc.PurityCurve(times=t, values=np.full_like(t, 0.5))
    with pytest.raises(FitFailure):
        bc.fit_purity(curve)


@pytest.mark.parametrize(
    ("log_scales", "chi0", "message"),
    [
        ((0.5, 0.5, 2.0), 0.2, "fit timescales must be positive and strictly increasing"),
        ((0.5, 1.0, 2.0), 0.0, "fit baseline must be positive"),
        ((0.5, 1.0, 2.0), -0.1, "fit baseline must be positive"),
    ],
    ids=["equal-timescales", "zero-baseline", "negative-baseline"],
)
def test_a_best_restart_that_purity_fit_rejects_is_a_fit_failure(state0, rev, ref_params, monkeypatch, log_scales,
                                                                   chi0, message):
    # PurityFit alone states the rules on timescale order and baseline
    rms = np.array([0.5, 0.125])  # restart 1 is the best
    theta = np.array([[0.0, 1.0, 2.0], log_scales])
    coef = np.array([[0.3, 0.1, 0.1, 0.1], [chi0, 0.1, 0.2, 0.3]])
    monkeypatch.setattr(energy, "_fit_restarts", lambda curves, restarts, seed: [(rms, theta, coef)] * len(curves))
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    with pytest.raises(FitFailure, match=f"^{message}$") as caught:
        bc.fit_purity(curve)
    timescales = tuple(float(s) for s in np.exp(log_scales))
    best = {"chi0": chi0, "amplitudes": (0.1, 0.2, 0.3), "timescales": timescales, "t0": 0.0, "residual": 0.125}
    assert caught.value.best == best
    rows = bc.sweep_x0(bc.InputSignalSpec("single", 0.0, 10.0), [-5.0, 0.0], bc.CavityConfig(), ref_params)
    assert [row.error for row in rows] == [message, message]
    assert all(np.isnan(row.t1) and np.isnan(row.residual) for row in rows)


@pytest.mark.parametrize(
    "overflowed, rounds, residual",
    [([[0]], 2, 1.0 + 5e-10), ([[0, 1], []], 2, 1.0), ([[0, 1]], 10, None)],
    ids=["first", "first-round", "all"],
)
def test_a_restart_whose_timescale_overflowed_never_wins(state0, rev, ref_params, monkeypatch, overflowed, rounds,
                                                         residual):
    # the restarts of a round agree, and the first has the smaller rms, but
    # round k overflows the slowest log-timescale of the restarts in
    # overflowed[k] (the last entry for later rounds): their design column is
    # a second constant one, not a fit with t3 = inf, so they neither win nor
    # count toward the two restarts that end the rounds
    finite = np.log([1.0, 10.0, 100.0])
    batches = []

    def lm(theta0, curve, dt, vals, floor):
        theta = np.tile(finite, (len(theta0), 1))
        theta[overflowed[min(len(batches), len(overflowed) - 1)], 2] = 720.0
        batches.append(len(theta0))
        F = np.square([1.0, 1.0 + 5e-10]) * dt.shape[1]
        return theta, np.tile([0.2, 0.1, 0.1, 0.1], (len(theta0), 1)), F

    monkeypatch.setattr(energy, "_levenberg_marquardt", lm)
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    if residual is None:
        with pytest.raises(FitFailure, match="^no restart converged$"):
            bc.fit_purity(curve)
    else:
        fit = bc.fit_purity(curve)
        assert fit.timescales == tuple(np.exp(finite)) and fit.residual == pytest.approx(residual, rel=1e-15)
    assert len(batches) == rounds
    batches.clear()
    (row,) = bc.sweep_x0(bc.InputSignalSpec("single", 0.0, 10.0), [0.0], bc.CavityConfig(), ref_params)
    assert len(batches) == rounds
    if residual is None:
        assert row.error == "no restart converged"
    else:
        assert row.error is None and (row.t1, row.t2, row.t3) == fit.timescales


def test_fit_needs_enough_samples(rev):
    curve = _synthetic_curve(0.2, (0.3, 0.3, 0.2), (1.0, 10.0, 100.0), 1000.0, n=20)
    with pytest.raises(DomainError):
        bc.fit_purity(curve)


def test_purity_fit_validation():
    with pytest.raises(DomainError):
        bc.PurityFit(chi0=0.2, amplitudes=(0.1, 0.1, 0.1), timescales=(2.0, 1.0, 3.0), t0=0.0, residual=0.0)
    with pytest.raises(DomainError):
        bc.PurityFit(chi0=-0.1, amplitudes=(0.1, 0.1, 0.1), timescales=(1.0, 2.0, 3.0), t0=0.0, residual=0.0)


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param({"t0": None, "residual": None}, "fit onset t0 must be a real number, got None", id="t0-None"),
        pytest.param({"chi0": None}, "fit baseline must be a real number, got None", id="chi0-None"),
        pytest.param({"timescales": (1.0, 2.0, np.inf)}, "fit timescale must be finite, got inf", id="t3-inf"),
    ],
)
def test_purity_fit_checks_its_numbers(fields, message):
    # the first and the last used to construct, the second to raise TypeError from a comparison
    good = {"chi0": 0.5, "amplitudes": (0.1, 0.2, 0.3), "timescales": (1.0, 2.0, 3.0), "t0": 0.0, "residual": 0.0}
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        bc.PurityFit(**(good | fields))


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
    theta = np.array(list(points.values()))
    n = len(theta)
    c, r, J, ok = energy._project(theta, dt, np.tile(vals, (n, 1)), floor)
    assert c.shape == (n, 4) and r.shape == (n, dt.size) and J.shape == (n, 3, dt.size) and ok.all()
    # batch rows do not interact: each row is what it is on its own
    for i in range(n):
        alone = energy._project(theta[i:i + 1], dt, vals[None], floor)
        for stacked, single in zip((c, r, J, ok), alone):
            assert np.array_equal(stacked[i], single[0]), list(points)[i]
    # every +h and -h point of every parameter, in one more stacked call
    h = 1e-6
    steps = np.concatenate([np.eye(3), -np.eye(3)]) * h
    shifted = (theta[:, None, :] + steps).reshape(-1, 3)
    moved = energy._project(shifted, dt, np.tile(vals, (len(shifted), 1)), floor)[1].reshape(n, 6, dt.size)
    fd = (moved[:, :3] - moved[:, 3:]) / (2 * h)
    for name, Ji, fdi in zip(points, J, fd):
        assert np.max(np.abs(Ji - fdi)) <= 1e-6 * np.max(np.abs(Ji)), name
    # the overflowed timescale is the constant column: no derivative at all
    assert np.all(np.isfinite(J)) and np.all(J[-1, 2] == 0.0)


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


def _minpack_fit_rms(curve, restarts=20, seed=0):
    """Best rms of the fit as MINPACK's lmder runs it, through ``leastsq``
    with the exact Jacobian of the projection, one restart at a time."""
    dt = curve.times - curve.times[0]
    span = float(dt[-1])
    last = [None, None]

    def project(theta):
        if last[0] is None or not np.array_equal(theta, last[0]):
            _, r, J, ok = energy._project(theta[None], dt, curve.values[None], span * 1e-12)
            if not ok[0]:
                raise np.linalg.LinAlgError("SVD did not converge")
            last[:] = [theta.copy(), (r[0], J[0].T)]
        return last[1]

    rng = np.random.default_rng(seed)
    base = np.log(np.geomspace(span / 100.0, span, 3))
    best = np.inf
    for i in range(restarts):
        theta0 = base if i == 0 else base + rng.uniform(-1.5, 1.5, size=3)
        try:
            _, _, info, _, _ = leastsq(lambda th: project(th)[0], theta0, Dfun=lambda th: project(th)[1],
                                       full_output=True, xtol=1e-14, ftol=1e-14, gtol=1e-8, maxfev=4000)
        except np.linalg.LinAlgError:
            continue
        best = min(best, float(np.sqrt(np.mean(info["fvec"] ** 2))))
    return best


# centers of the wide-spectrum benchmark workload for its seeds 1-8, which
# are also its fit seeds
WIDE_CENTERS = {1: 15.166, 2: -11.663, 3: -9.199, 4: 21.203, 5: -19.27, 6: 15.534, 7: 16.751, 8: -12.578}


@pytest.mark.parametrize("group", ["single", "double", "wide"])
def test_fit_is_no_worse_than_minpack(cfg, rev, ref_params, group):
    # the default sweep centers of each kind, and the wide-spectrum curves
    if group == "wide":
        fits = []
        for seed, x0 in WIDE_CENTERS.items():
            state = bc.decompose(bc.InputSignalSpec("single", x0, 2.0), cfg, 800)
            curve = bc.purity_curve(state, 10 * rev.tau, ref_params)
            fits.append((curve, seed, bc.fit_purity(curve, bc.FitSpec(seed=seed)).residual))
    else:
        signal = bc.InputSignalSpec(group)
        xs = bc.SweepSpec().values(signal, cfg)
        rows = bc.sweep_x0(signal, xs, cfg, ref_params)
        assert len(xs) > 30 and all(r.error is None for r in rows)
        fits = []
        for row in rows:
            state = bc.decompose(bc.InputSignalSpec(group, row.x0, 10.0), cfg, 50)
            fits.append((bc.purity_curve(state, 10 * rev.tau, ref_params), 0, row.residual))
    for curve, seed, rms in fits:
        assert rms <= _minpack_fit_rms(curve, seed=seed) * (1.0 + 1e-12)


def test_import_leaves_scipy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, boxcarpets; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_fit_work_is_one_factorization_per_point(state0, rev, ref_params, monkeypatch):
    # the finite-difference route made 1,636 lstsq solves on this curve;
    # a stacked SVD factors as many designs as its leading dimension
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    svd = np.linalg.svd
    designs = []

    def counting_svd(a, *args, **kwargs):
        designs.append(len(a) if np.ndim(a) == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    bc.fit_purity(curve, bc.FitSpec(seed=0))
    assert 0 < sum(designs) <= 800


def _poison_first_call(monkeypatch, rows):
    """Give ``rows`` of the first stacked projection NaN log-timescales, so
    that their designs cannot be factored."""
    project = energy._project
    calls = []

    def poisoned(theta, dt, vals, floor):
        if not calls:
            theta = theta.copy()
            theta[rows] = np.nan
        calls.append(len(theta))
        return project(theta, dt, vals, floor)

    monkeypatch.setattr(energy, "_project", poisoned)


def test_fit_restart_errors(state0, rev, ref_params, monkeypatch):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    (clean,) = _one_batch([curve], 4, 0, energy._levenberg_marquardt)

    def raising(error):
        def svd(*args, **kwargs):
            raise error("svd failed")
        return svd

    # a defect in the fit is not a failed restart: it surfaces
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", raising(RuntimeError))
        with pytest.raises(RuntimeError, match="svd failed"):
            bc.fit_purity(curve)
    # a factorization that does not converge ends only its restart: the
    # stacked SVD fails as a whole, and the others are factored again alone;
    # restart 0 agrees with no other in round 1, so round 2 runs
    with monkeypatch.context() as m:
        _poison_first_call(m, [1])
        rms, theta, coef = energy._fit_restarts([curve], 4, 0)[0]
    assert len(rms) == 4
    assert np.isnan(rms[1]) and np.all(np.isnan(theta[1])) and np.all(np.isnan(coef[1]))
    for got, want in zip((rms, theta, coef), clean):
        assert np.array_equal(np.delete(got, 1, axis=0), np.delete(want, 1, axis=0))
    with monkeypatch.context() as m:
        _poison_first_call(m, [0])
        with pytest.raises(FitFailure, match="no restart converged"):
            bc.fit_purity(curve, bc.FitSpec(restarts=1))
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", raising(np.linalg.LinAlgError))
        with pytest.raises(FitFailure, match="no restart converged"):
            bc.fit_purity(curve)


def _one_batch(curves, restarts, seed, lm):
    """Every restart of every curve in one ``lm`` batch, as the fit ran before
    its rounds: per curve the rms, log-timescales and coefficients of each restart."""
    dt = np.stack([c.times - c.times[0] for c in curves])
    span = dt[:, -1]
    jitter = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(restarts - 1, 3))
    base = np.log(np.geomspace(span / 100.0, span, 3, axis=1))
    theta0 = (base[:, None, :] + np.vstack([np.zeros(3), jitter])).reshape(-1, 3)
    curve = np.repeat(np.arange(len(curves)), restarts)
    theta, coef, F = lm(theta0, curve, dt, np.stack([c.values for c in curves]), span * 1e-12)
    rms = np.sqrt(F / dt.shape[1])
    return [(rms[curve == i], theta[curve == i], coef[curve == i]) for i in range(len(curves))]


def _never_agree(lm, curves):
    """``lm`` with the squared first start log-timescale added to F of every
    problem of ``curves``, so that no two of their restarts agree."""
    def apart(theta0, curve, dt, vals, floor):
        theta, coef, F = lm(theta0, curve, dt, vals, floor)
        return theta, coef, F + np.where(np.isin(curve, curves), theta0[:, 0] ** 2, 0.0)
    return apart


def _recording(monkeypatch, lm):
    """Route the fit's batches through ``lm``; returns the list of their curve arrays."""
    batches = []

    def recorded(theta0, curve, dt, vals, floor):
        batches.append(curve.copy())
        return lm(theta0, curve, dt, vals, floor)

    monkeypatch.setattr(energy, "_levenberg_marquardt", recorded)
    return batches


@pytest.mark.parametrize("cap, rounds", [(1, [1]), (2, [2]), (5, [2, 2, 1]), (6, [2] * 3), (20, [2] * 10)],
                         ids=["1", "2", "2+2+1", "3x2", "10x2"])
def test_rounds_that_never_agree_give_the_bits_of_one_batch(state0, rev, ref_params, monkeypatch, cap, rounds):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    apart = _never_agree(energy._levenberg_marquardt, [0])
    (want,) = _one_batch([curve], cap, 0, apart)
    batches = _recording(monkeypatch, apart)
    got = energy._fit_restarts([curve], cap, 0)[0]
    assert [len(b) for b in batches] == rounds
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _scripted(monkeypatch, script):
    """Make round k of a one-curve fit give restart j the rms ``script[k][j]``
    (NaN: a restart that could not be factored); returns the batches."""
    def lm(theta0, curve, dt, vals, floor):
        F = np.square(script[len(batches) - 1]) * dt.shape[1]
        return theta0, np.zeros((len(theta0), 4)), F

    batches = _recording(monkeypatch, lm)
    return batches


@pytest.mark.parametrize(
    "script, ran",
    [
        # two restarts within 1e-9 of the best: done after round 1
        ([[1.0 + 5e-10, 1.0]], 2),
        # apart by more than 1e-9: round 2 runs, and its 1 + 5e-10 agrees with round 1's best
        ([[1.0 + 3e-9, 1.0], [2.0, 1.0 + 5e-10]], 4),
        # a NaN restart never counts toward the two, nor does an all-NaN round warn
        ([[1.0, np.nan], [np.nan] * 2, [np.nan, 2.0], [np.nan, 1.0]], 8),
        ([[np.nan] * 2] * 10, 20),
    ],
    ids=["round-1", "round-2", "nan", "all-nan"],
)
def test_a_curve_stops_once_two_restarts_agree(state0, rev, ref_params, monkeypatch, script, ran):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    batches = _scripted(monkeypatch, script)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rms, theta, coef = energy._fit_restarts([curve], 20, 0)[0]
    assert len(batches) == ran // 2 and len(rms) == len(theta) == len(coef) == ran
    assert np.allclose(rms, np.concatenate(script[:ran // 2]), rtol=1e-15, atol=0.0, equal_nan=True)


def test_a_curve_that_stops_leaves_the_others_untouched(state0, state20, rev, ref_params, monkeypatch):
    curves = [bc.purity_curve(s, 10 * rev.tau, ref_params) for s in (state0, state20)]
    lm = energy._levenberg_marquardt
    alone = energy._fit_restarts(curves[:1], 20, 0)[0]
    (never,) = _one_batch(curves[1:], 20, 0, _never_agree(lm, [0]))
    # curve 0 stops after round 1; curve 1 never agrees and runs all 10
    batches = _recording(monkeypatch, _never_agree(lm, [1]))
    got = energy._fit_restarts(curves, 20, 0)
    assert [b.tolist() for b in batches] == [[0] * 2 + [1] * 2] + [[1] * 2] * 9
    for result, want in zip(got, (alone, never)):
        for g, w in zip(result, want):
            assert np.array_equal(g, w)


def _seeded_fit_cases():
    """The fittable curves of the seeded configurations of ``test_invariants``
    at the default fit settings, and the wide-spectrum curves, with their seeds."""
    from test_invariants import _random_case

    fit = bc.FitSpec()
    cases = []
    for case in range(40):
        cfg, signal, N, gamma = _random_case(np.random.default_rng(20211 + case))
        span = fit.span_tau * bc.revival_times(cfg).tau
        curve = bc.purity_curve(bc.decompose(signal, cfg, N), span, bc.DecoherenceParams(gamma=gamma), fit.samples)
        try:
            energy._check_fittable(curve)
        except FitFailure:
            continue
        cases.append((curve, fit.seed))
    cfg = bc.CavityConfig()
    span = fit.span_tau * bc.revival_times(cfg).tau
    for seed, x0 in WIDE_CENTERS.items():
        state = bc.decompose(bc.InputSignalSpec("single", x0, 2.0), cfg, 800)
        cases.append((bc.purity_curve(state, span, bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA)), seed))
    return cases


def test_rounds_find_the_minimum_of_all_restarts():
    # measured: rms within 4.7e-11 (relative; case 23, N = 63), timescales
    # within 6.5e-8; a 1e-12 agreement tolerance leaves the same rms gap
    cases = _seeded_fit_cases()
    assert len(cases) == 36 + len(WIDE_CENTERS)
    ran = []
    for seed in sorted({seed for _, seed in cases}):
        curves = [curve for curve, s in cases if s == seed]
        pairs = zip(energy._fit_restarts(curves, 20, seed), _one_batch(curves, 20, seed, energy._levenberg_marquardt))
        for (rms, theta, _), (every, every_theta, _) in pairs:
            got, want = np.nanargmin(rms), np.nanargmin(every)
            assert abs(rms[got] - every[want]) <= 1e-10 * every[want]
            scales, every_scales = np.sort(np.exp(theta[got])), np.sort(np.exp(every_theta[want]))
            assert np.allclose(scales, every_scales, rtol=1e-7, atol=0.0)
            ran.append(len(rms))
    # most curves confirm their minimum in round 1; fits at roundoff run every round
    assert ran.count(2) > len(cases) / 2


@pytest.mark.parametrize("kind", ["single", "double"])
def test_default_sweeps_project_a_tenth_of_the_designs(cfg, ref_params, monkeypatch, kind):
    # one batch of all 20 restarts projected 20,475 (single) and 20,199
    # (double) designs on these sweeps, and rounds of 4 restarts 4,095 and 4,009
    project = energy._project
    designs = []

    def counting(theta, *args):
        designs.append(len(theta))
        return project(theta, *args)

    monkeypatch.setattr(energy, "_project", counting)
    signal = bc.InputSignalSpec(kind)
    rows = bc.sweep_x0(signal, bc.SweepSpec().values(signal, cfg), cfg, ref_params)
    assert all(row.error is None for row in rows)
    assert 0 < sum(designs) < 2100


@pytest.mark.parametrize("block", [1, 7])
def test_fit_bits_do_not_depend_on_the_block_size(cfg, rev, ref_params, monkeypatch, block):
    # problems in a stack are independent, so any block gives the default's bits
    signal = bc.InputSignalSpec("single", 0.0, 10.0)
    curves = [bc.purity_curve(bc.decompose(bc.InputSignalSpec("single", x0, 10.0), cfg, 50), 10 * rev.tau, ref_params)
              for x0 in bc.SweepSpec().values(signal, cfg).tolist()]
    assert 2 * len(curves) > 64  # round 1 spans more than one block, at 64 too
    want = energy._fit_restarts(curves, 20, 0)
    monkeypatch.setattr(energy, "_BLOCK", block)
    got = energy._fit_restarts(curves, 20, 0)
    for result, expected in zip(got, want, strict=True):
        for g, w in zip(result, expected, strict=True):
            assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("samples, mib", [(200, 1.3), (4000, 20.0)], ids=["default", "4000-samples"])
def test_sweep_heap_peak_is_a_few_blocks(cfg, ref_params, samples, mib):
    # measured: 2.4 and 44.2 MiB with blocks of 64 problems, 1.0 and 16.9 MiB with 16
    signal = bc.InputSignalSpec("single")
    centers = bc.SweepSpec().values(signal, cfg)
    tracemalloc.start()
    try:
        rows = bc.sweep_x0(signal, centers, cfg, ref_params, bc.FitSpec(samples=samples))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row.error is None for row in rows)
    assert peak <= mib * 2**20


def test_fit_rejects_non_finite_steps_before_factoring(state0, rev, ref_params, monkeypatch):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    clean = bc.fit_purity(curve, bc.FitSpec(restarts=1))
    solve = energy._solve_spd3
    steps = []

    def first_step_nan(M, b):
        x = solve(M, b)
        if not steps:
            x[:] = np.nan
        steps.append(x)
        return x

    svd = np.linalg.svd

    def finite_svd(a, *args, **kwargs):
        assert np.all(np.isfinite(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(energy, "_solve_spd3", first_step_nan)
    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    # the rejected step raises the damping; the restart goes on from its start
    fit = bc.fit_purity(curve, bc.FitSpec(restarts=1))
    assert len(steps) > 2 and fit.residual == pytest.approx(clean.residual, rel=1e-9)


def test_fit_spec_validates_restarts_and_seed(state0, rev, ref_params):
    # the fit and the sweep take restarts and seed only through a FitSpec;
    # fit_purity(curve, seed=True) used to run with seed 1
    for bad in (0, -3, 2.5, np.float64(2.0), True, np.bool_(True), "4", None):
        with pytest.raises(DomainError, match="fit restarts"):
            bc.FitSpec(restarts=bad)
    for bad in (True, np.True_, -1, 1.5):
        with pytest.raises(DomainError, match="fit seed"):
            bc.FitSpec(seed=bad)
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    one = bc.fit_purity(curve, bc.FitSpec(restarts=np.int64(1), seed=np.int64(3)))
    assert one == bc.fit_purity(curve, bc.FitSpec(restarts=1, seed=3))


@pytest.mark.parametrize("bad", [20, None, "single"])
@pytest.mark.parametrize("argument", ["fit_purity-fit", "sweep_x0-signal", "sweep_x0-fit"])
def test_fit_and_sweep_take_only_specs(cfg, state0, rev, ref_params, monkeypatch, argument, bad):
    curve = bc.purity_curve(state0, 10 * rev.tau, ref_params)
    calls = {
        "fit_purity-fit": lambda: bc.fit_purity(curve, bad),
        "sweep_x0-signal": lambda: bc.sweep_x0(bad, [0.0], cfg, ref_params),
        "sweep_x0-fit": lambda: bc.sweep_x0(bc.InputSignalSpec(), [0.0], cfg, ref_params, bad),
    }
    # the sweep checks its settings once, before any center is decomposed
    monkeypatch.setattr(energy, "decompose", None)
    with pytest.raises(DomainError, match=f"must be an instance of .*, got {re.escape(repr(bad))}$"):
        calls[argument]()


@pytest.mark.parametrize("centers", [["1", True], [np.nan], [[0.0, 5.0]]])
def test_sweep_centers_are_checked_before_any_center(cfg, ref_params, monkeypatch, centers):
    # ["1", True] used to give two valid rows at x0 = 1.0
    monkeypatch.setattr(energy, "decompose", None)
    with pytest.raises(DomainError, match="sweep centers"):
        bc.sweep_x0(bc.InputSignalSpec(), centers, cfg, ref_params)


# -- sweep ---------------------------------------------------------------------


def test_sweep_shapes_and_trends(cfg, ref_params):
    xs = np.array([0.0, 6.0, 10.0, 12.5, 14.0, 20.0, 22.0])
    rows = bc.sweep_x0(bc.InputSignalSpec(), xs, cfg, ref_params, bc.FitSpec(restarts=4))
    assert len(rows) == 7
    by_x0 = {r.x0: r for r in rows}
    assert by_x0[22.0].error is not None and "x0" in by_x0[22.0].error
    plateau = [by_x0[x].chi_inf for x in (6.0, 10.0, 14.0)]
    assert max(plateau) - min(plateau) < 0.005
    assert by_x0[0.0].chi_inf > max(plateau)
    assert by_x0[20.0].chi_inf < min(plateau)
    ok_rows = [r for r in rows if r.error is None]
    assert all(r.t1 < r.t2 < r.t3 for r in ok_rows)


def test_sweep_keeps_a_failed_center_to_its_row(cfg, rev, ref_params, monkeypatch):
    xs = [0.0, 6.0, 12.5]
    two = bc.FitSpec(restarts=2)
    clean = bc.sweep_x0(bc.InputSignalSpec(), xs, cfg, ref_params, two)
    # every restart of the center at 6 meets a design that cannot be
    # factored; the sweep stacks the centers in order, 2 restarts each
    _poison_first_call(monkeypatch, [2, 3])
    rows = bc.sweep_x0(bc.InputSignalSpec(), xs, cfg, ref_params, two)
    assert rows[1] == bc.SweepRow(x0=6.0, error="no restart converged")
    assert rows[0] == clean[0] and rows[2] == clean[2]
    assert all(r.error is None for r in clean)


def test_sweep_renormalize(cfg, ref_params):
    # a w = 2 lobe loses about 3% of its norm to the 50-mode truncation
    state = bc.decompose(bc.InputSignalSpec("single", 4.0, 2.0), cfg, 50)
    signal, fit = bc.InputSignalSpec(w=2.0), bc.FitSpec(samples=50, restarts=2)
    rows = [bc.sweep_x0(signal, [4.0], cfg, ref_params, fit, renormalize=flag)[0] for flag in (False, True)]
    assert rows[0].chi_inf == bc.purity_asymptote(state)
    assert rows[1].chi_inf == bc.purity_asymptote(state.renormalized())
    assert rows[1].chi_inf > rows[0].chi_inf


def test_sweep_double_dip(cfg, state0, ref_params):
    signal = bc.InputSignalSpec("double", 12.5)
    rows = bc.sweep_x0(signal, np.array([2.0, 10.0, 12.5, 15.0]), cfg, ref_params, bc.FitSpec(restarts=4))
    by_x0 = {r.x0: r for r in rows}
    # an overlapping center keeps its error row
    assert "overlap" in by_x0[2.0].error
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
