"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np
import pytest

import boxcarpets as bc

import oracles
from conftest import density_element


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} — {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def x_grid(cfg):
    return np.linspace(-cfg.half_width, cfg.half_width, 1001)


def test_criterion_01_revival_exactness(cfg, state20, rev, x_grid):
    start = time.monotonic()
    d0 = bc.probability_density(state20, x_grid, 0.0)
    dT = bc.probability_density(state20, x_grid, rev.t_revival)
    diff = float(np.max(np.abs(dT - d0)))
    elapsed = time.monotonic() - start
    report(1, "revival-exactness", diff < 1e-10 and elapsed < 5.0, f"max diff {diff:.2e}, {elapsed:.2f} s")


def test_criterion_02_symmetric_revival(cfg, state0, rev, x_grid):
    worst = 0.0
    for state in (
        state0,
        bc.decompose(bc.InputSignalSpec("double", 12.5, 10.0), cfg, 50),
        bc.decompose(bc.InputSignalSpec("double", 18.0, 10.0), cfg, 50),
        bc.decompose(bc.InputSignalSpec("double", 5.0, 10.0), cfg, 50),
    ):
        d0 = bc.probability_density(state, x_grid, 0.0)
        dt = bc.probability_density(state, x_grid, rev.tau)
        worst = max(worst, float(np.max(np.abs(dt - d0))))
    report(2, "symmetric-revival-at-tau", worst < 1e-10, f"max diff {worst:.2e}")


def test_criterion_03_mirror_recurrence(state20, rev, x_grid):
    d0 = bc.probability_density(state20, x_grid, 0.0)
    dh = bc.probability_density(state20, x_grid, rev.t_revival / 2.0)
    diff = float(np.max(np.abs(dh - d0[::-1])))
    report(3, "mirror-recurrence", diff < 1e-10, f"max diff {diff:.2e}")


def test_criterion_04_coefficient_oracle(cfg):
    grid = oracles.oracle_grid(cfg)
    worst = 0.0
    for kind, centers in (("single", (0.0, 6.0, 12.5, 18.0, 20.0)), ("double", (6.0, 12.5, 18.0, 20.0))):
        for x0 in centers:
            spec = bc.InputSignalSpec(kind, x0, 10.0)
            analytic = bc.decompose(spec, cfg, 50).coeffs
            oracle = oracles.decompose_numeric(grid, oracles.input_signal(spec, grid), cfg, 50)
            worst = max(worst, float(np.max(np.abs(analytic - oracle))))
    resonant = bc.decompose(bc.InputSignalSpec("single", 0.0, 10.0), cfg, 50).coeffs[4]
    res_ok = abs(resonant - np.sqrt(0.2)) < 1e-12
    report(4, "coefficient-oracle", worst < 1e-8 and res_ok, f"max |analytic - quadrature| {worst:.2e}, c5(0) = {resonant:.6f}")


def test_criterion_05_purity_oracle_equivalence(state0, rev, ref_params):
    start = time.monotonic()
    worst = 0.0
    for t in (0.0, rev.tau, 5.0 * rev.tau):
        closed = bc.purity(state0, t, ref_params)
        quad = oracles.purity_via_quadrature(state0, t, ref_params.gamma, points=400)
        worst = max(worst, abs(closed - quad))
    elapsed = time.monotonic() - start
    report(5, "purity-oracle-equivalence", worst < 2e-3 and elapsed < 30.0, f"max diff {worst:.2e}, {elapsed:.2f} s")


def test_criterion_06_asymptotic_purity_values(cfg, state0, double125):
    chi_center = bc.purity_asymptote(state0)
    in_band = 0.20 <= chi_center <= 0.25
    match = abs(bc.purity_asymptote(double125) - chi_center)
    single18 = bc.purity_asymptote(bc.decompose(bc.InputSignalSpec("single", 18.0, 10.0), cfg, 50))
    double18 = bc.purity_asymptote(bc.decompose(bc.InputSignalSpec("double", 18.0, 10.0), cfg, 50))
    ratio = double18 / single18
    ok = in_band and match < 1e-9 and 1.7 <= ratio <= 2.1
    report(6, "asymptotic-purity-values", ok, f"chi_inf(0) = {chi_center:.4f}, |double(12.5) - single(0)| = {match:.1e}, ratio(18) = {ratio:.3f}")


def test_criterion_07_decoherence_limit(cfg, state0, rev, ref_params):
    x = np.linspace(-cfg.half_width, cfg.half_width, 2001)
    late = bc.probability_density(state0, x, 20.0 * rev.tau, ref_params)
    gap = float(np.max(np.abs(late - bc.asymptotic_density(state0, x))))
    report(7, "decoherence-limit", gap < 1e-6, f"sup diff {gap:.2e}")


def test_criterion_08_damping_calibration(cfg, rev, ref_params):
    worst = 0.0
    for a in range(1, 11):
        for b in range(a, 11):
            got = bc.beta(a, b, ref_params, cfg) * rev.tau
            worst = max(worst, abs(got - (b**2 - a**2) / 10.0))
    report(8, "damping-calibration", worst < 1e-12, f"max |beta tau - gap/10| = {worst:.2e}")


def test_criterion_09_secondary_diagonal_pair(state0, rev, ref_params, loc_params):
    t = 20.0 * rev.tau
    bare_anti = abs(density_element(state0, 10.0, -10.0, t, ref_params).real)
    bare_main = abs(density_element(state0, 10.0, 10.0, t, ref_params).real)
    loc_anti = abs(density_element(state0, 10.0, -10.0, t, loc_params).real)
    loc_main = abs(density_element(state0, 10.0, 10.0, t, loc_params).real)
    persists = bare_anti > 0.1 * bare_main
    removed = loc_anti < 1e-3 * loc_main
    report(9, "secondary-diagonal-pair", persists and removed, f"bare ratio {bare_anti / bare_main:.3f}, damped ratio {loc_anti / loc_main:.2e}")


def test_criterion_10_trajectory_properties(state0, rev, ref_params):
    start = time.monotonic()
    spec = bc.EnsembleSpec(count=50)

    coherent_samples = np.linspace(0.0, rev.t_revival, 81)
    coherent = bc.integrate_ensemble(state0, spec, rev.t_revival, sample_times=coherent_samples)
    all_done = all(tr.status == "completed" for tr in coherent)
    returns = np.array([abs(tr.positions[-1] - tr.x0) for tr in coherent])
    ok_noncross_a = bc.noncrossing_check(coherent).ok

    damped_samples = np.concatenate([np.linspace(0.0, 19.0 * rev.tau, 77), [20.0 * rev.tau]])
    damped = bc.integrate_ensemble(state0, spec, 20.0 * rev.tau, params=ref_params, sample_times=damped_samples)
    drift = np.array([abs(tr.positions[-1] - tr.positions[-2]) for tr in damped])
    ok_noncross_b = bc.noncrossing_check(damped).ok
    elapsed = time.monotonic() - start

    ok = (
        all_done
        and ok_noncross_a
        and ok_noncross_b
        and float(returns.max()) < 1e-3
        and float(drift.max()) < 1e-3
        and elapsed < 120.0
    )
    report(10, "trajectory-properties", ok, f"max return {returns.max():.2e}, max late drift {drift.max():.2e}, noncrossing {ok_noncross_a and ok_noncross_b}, {elapsed:.1f} s")


def test_criterion_11_fit_recovery(state0, rev, ref_params):
    tau = rev.tau
    sets = [
        (0.2, (0.3, 0.3, 0.2), (0.2 * tau, 1.0 * tau, 4.0 * tau)),  # 20x span
        (0.25, (0.25, 0.3, 0.2), (0.1 * tau, 0.6 * tau, 5.0 * tau)),  # 50x span
        (0.2, (0.3, 0.3, 0.2), (0.5 * tau, 1.1 * tau, 2.5 * tau)),  # 5x span
    ]
    worst_rel = 0.0
    for chi0, amps, scales in sets:
        t = np.concatenate([[0.0], np.geomspace(10 * tau / 1000.0, 10 * tau, 199)])
        values = chi0 + sum(a * np.exp(-t / s) for a, s in zip(amps, scales))
        fit = bc.fit_purity(bc.PurityCurve(times=t, values=values))
        rels = [abs(fit.chi0 - chi0) / chi0]
        rels += [abs(g - w) / w for g, w in zip(fit.amplitudes, amps)]
        rels += [abs(g - w) / w for g, w in zip(fit.timescales, scales)]
        worst_rel = max(worst_rel, max(rels))
    actual = bc.fit_purity(bc.purity_curve(state0, 10.0 * tau, ref_params))
    ok = worst_rel < 0.05 and actual.residual < 1e-3
    report(11, "fit-recovery", ok, f"worst synthetic rel err {worst_rel:.2e}, reference rms {actual.residual:.2e}")


def test_criterion_12_hermiticity_and_trace(cfg, state0, rev, loc_params, ref_params):
    x = np.linspace(-cfg.half_width, cfg.half_width, 101)
    worst_h = 0.0
    for t in (0.0, rev.tau, 20.0 * rev.tau):
        grid = bc.density_matrix_grid(state0, x, x, t, loc_params)
        worst_h = max(worst_h, float(np.max(np.abs(grid.values - grid.values.conj().T))))
    xq = oracles.oracle_grid(cfg)
    w = oracles.simpson_weights(xq)
    times = (0.0, rev.tau, 5 * rev.tau, 20 * rev.tau)
    traces = [float(w @ bc.probability_density(state0, xq, t, ref_params)) for t in times]
    spread = max(traces) - min(traces)
    ok = worst_h < 1e-12 and spread < 1e-6
    report(12, "hermiticity-and-trace", ok, f"hermiticity defect {worst_h:.2e}, trace spread {spread:.2e}")
