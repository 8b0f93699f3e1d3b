import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets.errors import DomainError, NodeProximityError
from boxcarpets import flow
from boxcarpets.flow import _integrate_batch

from conftest import make_state


def test_velocity_vanishes_initially(state0, state20):
    # sample inside the supports, away from the near-zero truncated tails
    x = np.linspace(15.5, 24.5, 49)
    assert np.all(bc.velocity(state20, x, 0.0) == 0.0)
    x0_grid = np.linspace(-4.5, 4.5, 49)
    damped = bc.velocity(state0, x0_grid, 0.0, bc.DecoherenceParams(gamma=0.3))
    assert np.all(damped == 0.0)


def test_symmetry_point_is_stationary(state0, rev):
    for t in (0.1 * rev.tau, rev.tau, 6.0 * rev.tau):
        assert bc.velocity(state0, 0.0, t) == 0.0


def test_velocity_is_odd_for_symmetric_states(state0, rev):
    x = np.linspace(0.5, 24.0, 40)
    t = 0.43 * rev.tau
    v_plus = bc.velocity(state0, x, t)
    v_minus = bc.velocity(state0, -x[::-1], t)[::-1]
    assert np.allclose(v_minus, -v_plus, atol=1e-14)


def test_velocity_against_flux_ratio(state20, cfg, rev):
    # independent route: J = (hbar/m) Im(conj(psi) dpsi) with the derivative
    # assembled from mode slopes, divided by |psi|^2
    x = np.linspace(-24.0, 24.0, 401)
    t = 0.77 * rev.tau
    psi = bc.wavefunction(state20, x, t)
    u = state20.coeffs * np.exp(-1j * state20.energies * t / cfg.hbar)
    dpsi = bc.mode_slopes(state20.alphas, x, cfg) @ u
    rho = np.abs(psi) ** 2
    mask = rho > 1e-6
    j_over_rho = (cfg.hbar / cfg.m) * (np.conj(psi) * dpsi).imag[mask] / rho[mask]
    got = bc.velocity(state20, x, t)[mask]
    assert np.max(np.abs(got - j_over_rho)) < 1e-8


def test_velocity_against_phase_gradient(state0, cfg, rev):
    x = np.linspace(-20.0, 20.0, 161)
    t = 1.21 * rev.tau
    rho = bc.probability_density(state0, x, t)
    mask = rho > 1e-4
    h = 1e-5
    left = bc.wavefunction(state0, x - h, t)
    right = bc.wavefunction(state0, x + h, t)
    v_fd = cfg.hbar * np.angle(right * np.conj(left)) / (2.0 * h * cfg.m)
    got = bc.velocity(state0, x, t)
    assert np.max(np.abs(got[mask] - v_fd[mask])) < 1e-6


@pytest.mark.parametrize("gamma", [None, 1e-300])  # None: psi sums; tiny: beat series
@pytest.mark.parametrize(
    "coeffs",
    [
        [0.0, 0.8, 0.0, 0.6],          # pure odd parity (sine modes)
        [0.7, 0.5, 0.0, 0.0, 0.4],     # mixed parity
    ],
)
def test_velocity_parity_branches_match_flux_ratio(cfg, rev, coeffs, gamma):
    state = make_state(cfg, coeffs)
    params = None if gamma is None else bc.DecoherenceParams(gamma=gamma)
    x = np.linspace(-24.0, 24.0, 300)  # even count avoids the x = 0 node of sine modes
    t = 0.37 * rev.tau
    psi = bc.wavefunction(state, x, t)
    u = state.coeffs * np.exp(-1j * state.energies * t / cfg.hbar)
    dpsi = bc.mode_slopes(state.alphas, x, cfg) @ u
    rho = np.abs(psi) ** 2
    mask = rho > 1e-6
    jr = (cfg.hbar / cfg.m) * (np.conj(psi) * dpsi).imag[mask] / rho[mask]
    v = bc.velocity(state, x[mask], t, params)
    assert np.max(np.abs(v - jr)) < 1e-12


def test_damped_velocity_reduces_to_coherent_at_gamma_zero(state20, rev):
    x = np.linspace(-22.0, 22.0, 89)
    t = 0.9 * rev.tau
    a = bc.velocity(state20, x, t)
    b = bc.velocity(state20, x, t, bc.DecoherenceParams.coherent())
    assert np.allclose(a, b, atol=1e-13)


def test_damped_field_freezes_out(state0, rev, ref_params):
    x = np.linspace(-24.5, 24.5, 197)
    assert np.max(np.abs(bc.velocity(state0, x, 20.0 * rev.tau, ref_params))) < 1e-3


def test_node_proximity_raises(cfg, rev):
    # equal-weight modes 1 and 3 develop an exact node at the center when the
    # pair phase reaches pi
    state = make_state(cfg, [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0)])
    t_node = np.pi / bc.frequency(1, 3, cfg)
    with pytest.raises(NodeProximityError):
        bc.velocity(state, 0.0, t_node)


def test_velocity_map_rejects_negative_and_nonfinite_times(state0, ref_params):
    x = np.linspace(-5.0, 5.0, 3)
    for times in ([np.nan], [0.0, np.inf], [-1.0]):
        with pytest.raises(DomainError):
            bc.velocity_map(state0, x, times, ref_params)


def test_velocity_map_matches_pointwise(state0, rev, ref_params):
    x = np.linspace(-20.0, 20.0, 31)
    times = np.array([0.0, 0.2 * rev.tau, rev.tau])
    rows = bc.velocity_map(state0, x, times, ref_params)
    for j, t in enumerate(times):
        assert np.array_equal(rows[j], bc.velocity(state0, x, float(t), ref_params))


def test_coherent_velocity_map_is_velocity_row_by_row(state20, rev):
    x = np.linspace(-20.0, 20.0, 31)
    times = np.array([0.2, 0.55, 1.0, 2.7]) * rev.tau  # no point on a node
    rows = bc.velocity_map(state20, x, times)
    for j, t in enumerate(times):
        assert np.array_equal(rows[j], bc.velocity(state20, x, float(t)))


# -- integration -------------------------------------------------------------


def test_center_seed_never_moves(state0, rev):
    tr = bc.integrate_trajectory(state0, 0.0, 0.25 * rev.tau)
    assert tr.status == "completed"
    assert np.all(tr.positions == 0.0)


def test_single_seed_may_lie_outside_the_signal_support(state0, rev):
    # an ensemble draws its seeds from the support [-5, 5]; one streamline may start anywhere
    tr = bc.integrate_trajectory(state0, 8.0, 0.05 * rev.tau)
    assert tr.x0 == 8.0 and tr.positions[0] == 8.0
    with pytest.raises(DomainError):
        bc.integrate_ensemble(state0, bc.EnsembleSpec(seeding="explicit", seeds=(8.0,)), 0.05 * rev.tau)


def test_mirror_seeds_give_mirror_paths(state0, rev):
    spec = bc.EnsembleSpec(seeding="explicit", seeds=(-2.0, 2.0))
    left, right = bc.integrate_ensemble(state0, spec, 0.5 * rev.tau)
    assert left.status == right.status == "completed"
    assert np.allclose(left.positions, -right.positions, atol=1e-9)
    assert np.all(np.abs(left.positions) <= 25.0)


def test_uniform_seeding_layout(state0, double125):
    seeds = bc.ensemble_seeds(bc.EnsembleSpec(count=10), state0.signal)
    assert seeds.size == 10
    assert np.all(np.diff(seeds) > 0.0)
    assert seeds.min() > -5.0 and seeds.max() < 5.0
    dseeds = bc.ensemble_seeds(bc.EnsembleSpec(count=8), double125.signal)
    assert np.sum(dseeds < 0) == 4 and np.sum(dseeds > 0) == 4
    assert np.allclose(dseeds, -dseeds[::-1], atol=1e-12)


def test_seeding_validation(state0):
    with pytest.raises(DomainError):
        bc.EnsembleSpec(count=0)
    # a fractional count would place a seed on a lobe edge or a lobe centre
    for count in (2.5, 3.7, 3.0, True, "3"):
        with pytest.raises(DomainError):
            bc.EnsembleSpec(count=count)
    assert bc.EnsembleSpec(count=np.int64(3)).count == 3
    with pytest.raises(DomainError):
        bc.EnsembleSpec(seeding="explicit", seeds=(2.0, 1.0))
    with pytest.raises(DomainError):
        bc.EnsembleSpec(seeding="grid")
    with pytest.raises(DomainError):
        bc.ensemble_seeds(bc.EnsembleSpec(seeding="explicit", seeds=(0.0, 14.0)), state0.signal)


def test_uniform_seeding_requires_signal(cfg, rev):
    state = make_state(cfg, [1.0, 0.5])
    with pytest.raises(DomainError):
        bc.integrate_ensemble(state, bc.EnsembleSpec(count=5), rev.tau)


def test_explicit_seeds_work_without_signal_metadata(cfg, rev):
    # numeric decompositions carry no signal; explicit seeds only need the box
    state = make_state(cfg, [1.0, 0.5])
    spec = bc.EnsembleSpec(seeding="explicit", seeds=(-10.0, 10.0))
    trajs = bc.integrate_ensemble(state, spec, 0.02 * rev.tau)
    assert [tr.status for tr in trajs] == ["completed", "completed"]


def test_double_lobe_seeding_with_odd_count(double125):
    seeds = bc.ensemble_seeds(bc.EnsembleSpec(count=7), double125.signal)
    assert seeds.size == 7
    assert np.all(np.diff(seeds) > 0.0)
    assert np.sum(seeds < 0) == 3 and np.sum(seeds > 0) == 4


def test_noncrossing_requires_ordered_seeds():
    times = np.array([0.0, 1.0])
    a = bc.Trajectory(x0=1.0, times=times, positions=np.array([1.0, 1.0]))
    b = bc.Trajectory(x0=-1.0, times=times, positions=np.array([-1.0, -1.0]))
    with pytest.raises(DomainError):
        bc.noncrossing_check([a, b])


def test_ensemble_common_samples_and_ordering(state0, rev):
    times = np.linspace(0.0, 0.3 * rev.tau, 41)
    trajs = bc.integrate_ensemble(state0, bc.EnsembleSpec(count=8), 0.3 * rev.tau, sample_times=times)
    assert len(trajs) == 8
    for tr in trajs:
        assert np.array_equal(tr.times, times)
    report = bc.noncrossing_check(trajs)
    assert report.ok


def test_noncrossing_detects_swapped_pair():
    times = np.linspace(0.0, 1.0, 5)
    a = bc.Trajectory(x0=-1.0, times=times, positions=np.array([-1.0, -1.0, 0.5, 0.5, 0.5]))
    b = bc.Trajectory(x0=1.0, times=times, positions=np.array([1.0, 1.0, 0.2, 0.2, 0.2]))
    report = bc.noncrossing_check([a, b])
    assert not report.ok
    assert report.time == pytest.approx(0.5)
    assert report.pair == (0, 1)


def test_noncrossing_single_trajectory_is_vacuous(state0, rev):
    tr = bc.integrate_trajectory(state0, 1.0, 0.05 * rev.tau)
    assert bc.noncrossing_check([tr]).ok


def test_noncrossing_rejects_mismatched_grids():
    a = bc.Trajectory(x0=-1.0, times=np.array([0.0, 1.0]), positions=np.array([-1.0, -1.0]))
    b = bc.Trajectory(x0=1.0, times=np.array([0.0, 2.0]), positions=np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        bc.noncrossing_check([a, b])


def test_noncrossing_compares_truncated_members_on_shared_prefix():
    times = np.linspace(0.0, 1.0, 5)
    left = bc.Trajectory(x0=-1.0, times=times, positions=np.array([-1.0, -0.9, -0.8, -0.7, -0.6]))
    right = bc.Trajectory(x0=1.0, times=times, positions=np.array([1.0, 0.9, 0.8, 0.7, 0.6]))
    stopped = bc.Trajectory(x0=0.0, times=times[:2], positions=np.array([0.0, 0.1]), status="step-floor-hit")
    assert bc.noncrossing_check([left, stopped, right]).ok
    crossed = bc.Trajectory(x0=0.0, times=times[:2], positions=np.array([0.0, -0.95]), status="step-floor-hit")
    report = bc.noncrossing_check([left, crossed, right])
    assert not report.ok
    assert report.time == pytest.approx(0.25)
    assert report.pair == (0, 1)
    # the full-length members are still compared after the stopped one ends
    late = bc.Trajectory(x0=1.0, times=times, positions=np.array([1.0, 0.9, 0.8, -0.8, -0.9]))
    report = bc.noncrossing_check([left, stopped, late])
    assert not report.ok
    assert report.time == pytest.approx(0.75)
    assert report.pair == (0, 2)


def test_integrator_guards():
    # synthetic right-hand side: unit drift into a forbidden zone past x = 1,
    # where the density floor signal fires and the component gets truncated
    def field(x, t):
        return np.ones_like(x), x > 1.0

    samples = np.linspace(0.0, 3.0, 9)
    recorded, freeze = _integrate_batch(
        field,
        np.array([-3.0, 0.5]),
        samples,
        t_end=3.0,
        rtol=1e-8,
        atol=1e-10,
        h_start=0.05 / 8.0,
        h_floor=1e-9,
        half_width=100.0,
    )
    assert np.isinf(freeze[0])
    assert 0.4 < freeze[1] < 0.6
    assert np.allclose(recorded[:, 0], -3.0 + samples, atol=1e-9)
    assert np.isnan(recorded[-1, 1])


def test_trajectory_validation():
    with pytest.raises(DomainError):
        bc.Trajectory(x0=0.0, times=np.array([0.0, 0.0]), positions=np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        bc.Trajectory(x0=0.0, times=np.array([0.0, 1.0]), positions=np.array([0.0, 0.0]), status="lost")
    times = np.array([0.0, 1.0])
    for x0, t, p in [
        (np.nan, times, np.array([0.0, 0.0])),
        (np.inf, times, np.array([0.0, 0.0])),
        (0.0, times, np.array([0.0, np.nan])),
        (0.0, times, np.array([-np.inf, 0.0])),
        (0.0, np.array([np.nan]), np.array([0.0])),
        (0.0, np.array([0.0, np.inf]), np.array([0.0, 0.0])),
    ]:
        # a NaN member would pass the ordering check against any neighbour
        with pytest.raises(DomainError):
            bc.Trajectory(x0=x0, times=t, positions=p)


def test_integrate_inputs_validated(state0):
    with pytest.raises(DomainError):
        bc.integrate_trajectory(state0, 0.0, -1.0)
    with pytest.raises(DomainError):
        bc.integrate_trajectory(state0, 0.0, 1.0, tol=0.0)
    with pytest.raises(DomainError):
        bc.integrate_trajectory(state0, 30.0, 1.0)
    with pytest.raises(DomainError):
        bc.integrate_ensemble(state0, bc.EnsembleSpec(count=3), 10.0, sample_times=np.array([0.0, 20.0]))
    # a NaN tolerance rejects every step and never freezes a member; inf accepts every step
    for tol in (np.nan, np.inf):
        with pytest.raises(DomainError):
            bc.integrate_trajectory(state0, 1.0, 1.0, tol=tol)
    for samples in ([0.0, np.nan, 1.0], [0.0, 0.5, np.nan]):
        with pytest.raises(DomainError):
            bc.integrate_trajectory(state0, 1.0, 1.0, sample_times=np.array(samples))


@pytest.mark.parametrize("x0", [0.0, 20.0])
@pytest.mark.parametrize("damped", [True, False], ids=["damped", "coherent"])
def test_default_tolerance_tracks_a_tight_reference(cfg, rev, x0, damped):
    # uniform seeds plus seeds near the lobe edges, where the density is small
    signal = bc.InputSignalSpec("single", x0, 10.0)
    state = bc.decompose(signal, cfg, 50)
    ((lo, hi),) = signal.support()
    edges = [lo + 0.01, lo + 0.1, hi - 0.1, hi - 0.01]
    seeds = np.union1d(bc.ensemble_seeds(bc.EnsembleSpec(count=12), signal), edges)
    spec = bc.EnsembleSpec(seeding="explicit", seeds=tuple(seeds))
    params = bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA) if damped else None
    # the coherent field is tolerance-limited, so its reference is the costly one
    t_end = (2.0 if damped else 0.25) * rev.tau
    samples = np.linspace(0.0, t_end, 41)
    runs = [
        bc.integrate_ensemble(state, spec, t_end, params=params, tol=tol, sample_times=samples)
        for tol in (1e-8, 1e-11)
    ]
    for run in runs:
        assert all(tr.status == "completed" for tr in run)
        assert bc.noncrossing_check(run).ok
    deviation = max(float(np.max(np.abs(a.positions - b.positions))) for a, b in zip(*runs))
    assert deviation <= (1e-6 if damped else 1e-3)


def test_damped_ensemble_work_is_tolerance_bound(monkeypatch):
    # the damped field is smooth: a step cap, not the error control, would set its work
    config = bc.parse_config("")
    state = bc.build_state(config)
    t_end = config.grid.t_max_tau * bc.revival_times(config.cavity).tau
    samples = np.linspace(0.0, t_end, config.grid.t_points)
    calls = 0

    def counting_batch(field, *args, **kwargs):
        def counted(x, t):
            nonlocal calls
            calls += 1
            return field(x, t)

        return _integrate_batch(counted, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_batch", counting_batch)
    run = bc.integrate_ensemble(state, config.ensemble, t_end, params=config.deco, sample_times=samples)
    assert len(run) == 20 and all(tr.status == "completed" for tr in run)
    assert calls < 20_000


@pytest.mark.parametrize("kind, x0", [("single", 0.0), ("single", 20.0), ("double", 12.5)])
def test_coherent_quantiles_match_the_ode_oracle(cfg, rev, kind, x0):
    # uniform seeds plus seeds 0.01 and 0.1 inside each lobe edge, where the density is small
    signal = bc.InputSignalSpec(kind, x0, 10.0)
    state = bc.decompose(signal, cfg, 50)
    edges = [e for lo, hi in signal.support() for e in (lo + 0.01, lo + 0.1, hi - 0.1, hi - 0.01)]
    seeds = np.union1d(bc.ensemble_seeds(bc.EnsembleSpec(count=12), signal), edges)
    spec = bc.EnsembleSpec(seeding="explicit", seeds=tuple(seeds))
    t_end = 0.2 * rev.tau  # the oracle's cost sets the horizon
    samples = np.linspace(0.0, t_end, 41)
    run = bc.integrate_ensemble(state, spec, t_end, sample_times=samples)
    assert all(tr.status == "completed" for tr in run)
    assert bc.noncrossing_check(run).ok
    reference, freeze = _integrate_batch(
        flow._VelocityField(state, None),
        seeds,
        samples,
        t_end=t_end,
        rtol=1e-12,
        atol=1e-14,
        h_start=rev.tau / 16000.0,
        h_floor=rev.tau * 1e-12,
        half_width=cfg.half_width,
    )
    assert np.all(np.isinf(freeze))
    positions = np.array([tr.positions for tr in run]).T
    assert float(np.max(np.abs(positions - reference))) <= 1e-8
    # mirror-symmetric states: mirror seeds give mirror paths
    if kind == "double" or x0 == 0.0:
        assert np.allclose(positions, -positions[:, ::-1], atol=1e-9)


def test_coherent_ensemble_work_is_sample_bound(monkeypatch):
    # the quantile solve has no time steps: its work is a few evaluations per sample
    config = bc.parse_config("")
    state = bc.build_state(config)
    t_end = config.grid.t_max_tau * bc.revival_times(config.cavity).tau
    samples = np.linspace(0.0, t_end, config.grid.t_points)
    calls = 0
    evaluate = flow._Cumulative.__call__

    def counted(self, x, t):
        nonlocal calls
        calls += 1
        return evaluate(self, x, t)

    monkeypatch.setattr(flow._Cumulative, "__call__", counted)
    run = bc.integrate_ensemble(state, config.ensemble, t_end, sample_times=samples)
    assert len(run) == 20 and all(tr.status == "completed" for tr in run)
    assert calls < 15_000


def test_coherent_members_at_nodes(cfg, rev):
    # a seed on a permanent node (pure mode 2 at x = 0) stops at t = 0
    state = make_state(cfg, [0.0, 1.0])
    tr = bc.integrate_trajectory(state, 0.0, rev.tau)
    assert tr.status == "step-floor-hit"
    assert tr.times.tolist() == [0.0] and tr.positions.tolist() == [0.0]
    assert bc.integrate_trajectory(state, 3.0, rev.tau).status == "completed"
    # equal-weight modes 1 and 3: the density at x = 0 vanishes at t = pi / omega_13,
    # and the member there passes through that instantaneous node
    state = make_state(cfg, [np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    t_node = np.pi / bc.frequency(1, 3, cfg)
    samples = np.linspace(0.0, 2.0 * t_node, 9)
    assert bc.probability_density(state, 0.0, samples[4]) < flow.DENSITY_FLOOR
    tr = bc.integrate_trajectory(state, 0.0, 2.0 * t_node, sample_times=samples)
    assert tr.status == "completed"
    assert np.array_equal(tr.times, samples)
    assert np.all(tr.positions == 0.0)
