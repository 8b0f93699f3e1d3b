import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets.errors import DomainError, NodeProximityError
from boxcarpets import decoherence, flow, spectral
from boxcarpets.decoherence import density_map
from boxcarpets.flow import _integrate_batch

import oracles
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
    dpsi = oracles.modes(state20.alphas, x, cfg)[1] @ u
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


@pytest.mark.parametrize("gamma", [None, 1e-300])  # None: the default, psi sums; tiny: beat series
@pytest.mark.parametrize(
    "coeffs",
    [
        [0.0, 0.8, 0.0, 0.6],          # pure odd parity (sine modes)
        [0.7, 0.5, 0.0, 0.0, 0.4],     # mixed parity
    ],
)
def test_velocity_parity_branches_match_flux_ratio(cfg, rev, coeffs, gamma):
    state = make_state(cfg, coeffs)
    params = bc.DecoherenceParams() if gamma is None else bc.DecoherenceParams(gamma=gamma)
    x = np.linspace(-24.0, 24.0, 300)  # even count avoids the x = 0 node of sine modes
    t = 0.37 * rev.tau
    psi = bc.wavefunction(state, x, t)
    u = state.coeffs * np.exp(-1j * state.energies * t / cfg.hbar)
    dpsi = oracles.modes(state.alphas, x, cfg)[1] @ u
    rho = np.abs(psi) ** 2
    mask = rho > 1e-6
    jr = (cfg.hbar / cfg.m) * (np.conj(psi) * dpsi).imag[mask] / rho[mask]
    v = bc.velocity(state, x[mask], t, params)
    assert np.max(np.abs(v - jr)) < 1e-12


def test_damped_velocity_reduces_to_coherent_at_gamma_zero(state20, rev):
    x = np.linspace(-22.0, 22.0, 89)
    t = 0.9 * rev.tau
    a = bc.velocity(state20, x, t)
    b = bc.velocity(state20, x, t, bc.DecoherenceParams())
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
        bc.integrate_ensemble(state0, bc.EnsembleSpec(seeds=(8.0,)), 0.05 * rev.tau)


def test_mirror_seeds_give_mirror_paths(state0, rev):
    spec = bc.EnsembleSpec(seeds=(-2.0, 2.0))
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
    # an array of seeds used to raise numpy's ambiguous-truth-value ValueError
    assert bc.EnsembleSpec(seeds=np.array([1.0, 2.0])).seeds == (1.0, 2.0)
    for bad in ((), (2.0, 1.0)):
        with pytest.raises(DomainError, match="non-empty, strictly increasing"):
            bc.EnsembleSpec(seeds=bad)
    # a seed list is the explicit seeding; its length is the count
    assert bc.EnsembleSpec(count=5, seeds=(1.0, 2.0)).count == 2
    assert bc.EnsembleSpec(count=5, seeds=None) == bc.EnsembleSpec(count=5)
    with pytest.raises(DomainError):
        bc.ensemble_seeds(bc.EnsembleSpec(seeds=(0.0, 14.0)), state0.signal)


def test_uniform_seeding_requires_signal(cfg, rev):
    state = make_state(cfg, [1.0, 0.5])
    with pytest.raises(DomainError):
        bc.integrate_ensemble(state, bc.EnsembleSpec(count=5), rev.tau)


def test_explicit_seeds_work_without_signal_metadata(cfg, rev):
    # numeric decompositions carry no signal; explicit seeds only need the box
    state = make_state(cfg, [1.0, 0.5])
    spec = bc.EnsembleSpec(seeds=(-10.0, 10.0))
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
    # a NaN slack used to report ok=True: every comparison with NaN is false
    for slack in (np.nan, np.inf, -1e-9, None, "0", True):
        with pytest.raises(DomainError, match="noncrossing slack"):
            bc.noncrossing_check([a, b], slack=slack)


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

    def run(samples):
        return _integrate_batch(
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

    samples = np.linspace(0.0, 3.0, 9)
    recorded, freeze = run(samples)
    assert np.isinf(freeze[0])
    assert 0.4 < freeze[1] < 0.6
    assert np.allclose(recorded[:, 0], -3.0 + samples, atol=1e-9)
    assert np.isnan(recorded[-1, 1])
    # the samples do not move the steps, so a sample placed inside the step
    # that froze the member (its length is at most h_floor) sees the same freeze
    inside = np.array([0.0, freeze[1] - 1e-3, freeze[1] + 0.5e-9, 3.0])
    recorded, again = run(inside)
    assert np.array_equal(again, freeze)
    assert recorded[1, 1] == pytest.approx(0.5 + inside[1], abs=1e-9)
    assert np.all(np.isnan(recorded[2:, 1]))
    assert np.allclose(recorded[:, 0], -3.0 + inside, atol=1e-9)


def test_integrator_reflects_at_the_wall():
    # synthetic right-hand side: unit drift toward the wall at x = 1; an
    # accepted step past it is mirrored back inside the box, and so is a
    # dense-output sample past it (the error-free field takes steps up to
    # 5x longer each time, so most samples lie strictly inside steps)
    def field(x, t):
        return np.ones_like(x), np.zeros(x.shape, dtype=bool)

    recorded, freeze = _integrate_batch(
        field,
        np.array([-0.5, 0.5]),
        np.linspace(0.0, 2.0, 9),
        t_end=2.0,
        rtol=1e-8,
        atol=1e-10,
        h_start=0.05 / 8.0,
        h_floor=1e-9,
        half_width=1.0,
    )
    assert np.all(np.isinf(freeze))
    assert np.all(np.abs(recorded) <= 1.0)
    # a constant +1 drift never moves a member down without the reflection
    assert np.any(np.diff(recorded[:, 1]) < 0.0)


def _counted(field):
    """``field`` with a call counter in its ``calls`` attribute."""

    def counted(x, t):
        counted.calls += 1
        return field(x, t)

    counted.calls = 0
    return counted


def test_node_floor_stage_fails_the_step_like_its_error_test():
    # the field of test_integrator_guards: a stage past x = 1 shrinks the
    # step by the controller's factor 0.2, so the freeze at the floor crossing
    # t = 0.5 is reached in a few rejected steps, not ~40 halvings
    field = _counted(lambda x, t: (np.ones_like(x), x > 1.0))
    recorded, freeze = _integrate_batch(field, np.array([-3.0, 0.5]), np.linspace(0.0, 3.0, 9), t_end=3.0,
                                        rtol=1e-8, atol=1e-10, h_start=0.05 / 8.0, h_floor=1e-9,
                                        half_width=100.0)
    assert np.isinf(freeze[0])
    assert abs(freeze[1] - 0.5) <= 1e-9
    assert field.calls < 200


def test_member_reflected_onto_the_node_floor_stops_there():
    # one error-free step from 0.5 ends at 1.005, past the wall at 1; it is
    # mirrored to 0.995, where the field is flagged: no slope is carried on
    def raw(x, t):
        bad = (x > 0.99) & (x <= 1.0)
        return np.where(bad, 0.0, 1.0), bad

    field = _counted(raw)
    recorded, freeze = _integrate_batch(field, np.array([0.5]), np.array([0.0, 0.505, 0.8]), t_end=0.8,
                                        rtol=1.0, atol=1.0, h_start=0.505, h_floor=1e-9, half_width=1.0)
    assert freeze.tolist() == [0.505]
    assert recorded[:2, 0] == pytest.approx([0.5, 0.995], abs=1e-12)
    assert np.isnan(recorded[2, 0])
    assert field.calls <= 10


def _one_step(slope, samples, t_end):
    """Dense samples of x' = slope(t) from x = 0 and x = 1 over a single step."""
    return _integrate_batch(
        lambda x, t: (np.full_like(x, slope(t)), np.zeros(x.shape, dtype=bool)),
        np.array([0.0, 1.0]),
        samples,
        t_end=t_end,
        rtol=1.0,
        atol=1.0,
        h_start=t_end,
        h_floor=1e-12,
        half_width=100.0,
    )[0]


def test_dense_output_matches_closed_form_paths():
    theta = np.array([0.0, 0.13, 0.5, 0.87])
    # 4th order: a quartic path is reproduced inside the step to roundoff
    quartic = _one_step(lambda t: 4.0 * t**3, theta, 1.0)
    assert np.max(np.abs(quartic - (theta**4)[:, None] - [0.0, 1.0])) < 1e-14
    # and on x' = cos t the error at interior samples falls as h^5
    errors = []
    for h in (0.4, 0.2):
        t = theta * h
        errors.append(np.max(np.abs(_one_step(np.cos, t, h) - np.sin(t)[:, None] - [0.0, 1.0])))
    assert errors[0] < 1e-6 and errors[0] / errors[1] > 2.0**4.5

    # over many steps the sample grid does not change the steps
    def run(samples):
        calls = 0

        def field(x, t):
            nonlocal calls
            calls += 1
            return np.full_like(x, np.cos(t)), np.zeros(x.shape, dtype=bool)

        recorded, freeze = _integrate_batch(field, np.array([0.0, 1.0]), samples, t_end=10.0, rtol=1e-9,
                                            atol=1e-12, h_start=0.01, h_floor=1e-12, half_width=100.0)
        assert np.all(np.isinf(freeze))
        return recorded, calls

    samples = np.linspace(0.0, 10.0, 1001)
    recorded, calls = run(samples)
    assert calls == run(samples[[0, -1]])[1]
    assert calls < samples.size  # so most samples lie strictly inside steps
    assert recorded[0].tolist() == [0.0, 1.0]
    assert np.max(np.abs(recorded - np.sin(samples)[:, None] - [0.0, 1.0])) < 1e-8


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
    spec = bc.EnsembleSpec(seeds=tuple(seeds))
    params = bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA if damped else 0.0)
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
    assert calls < 5_000


@pytest.mark.parametrize("kind, x0", [("single", 0.0), ("single", 20.0), ("double", 12.5)])
def test_coherent_quantiles_match_the_ode_oracle(cfg, rev, kind, x0):
    # uniform seeds plus seeds 0.01 and 0.1 inside each lobe edge, where the density is small
    signal = bc.InputSignalSpec(kind, x0, 10.0)
    state = bc.decompose(signal, cfg, 50)
    edges = [e for lo, hi in signal.support() for e in (lo + 0.01, lo + 0.1, hi - 0.1, hi - 0.01)]
    seeds = np.union1d(bc.ensemble_seeds(bc.EnsembleSpec(count=12), signal), edges)
    spec = bc.EnsembleSpec(seeds=tuple(seeds))
    t_end = 0.2 * rev.tau  # the oracle's cost sets the horizon
    samples = np.linspace(0.0, t_end, 41)
    run = bc.integrate_ensemble(state, spec, t_end, sample_times=samples)
    assert all(tr.status == "completed" for tr in run)
    assert bc.noncrossing_check(run).ok
    reference, freeze = _integrate_batch(
        decoherence._PairKernel(state, 0.0).velocity,
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
    # the quantile solve has no time steps: its work is a few evaluations per
    # distinct folded time, 63 of the 1001 samples at x0 = 0 (T_p = tau) and
    # 501 at x0 = 20 (T_p = T_rev)
    default = bc.parse_config("")
    t_end = default.grid.t_max_tau * bc.revival_times(default.cavity).tau
    samples = np.linspace(0.0, t_end, default.grid.t_points)
    calls = 0
    evaluate = decoherence._PairKernel.cumulative

    def counted(self, x, t):
        nonlocal calls
        calls += 1
        return evaluate(self, x, t)

    monkeypatch.setattr(decoherence._PairKernel, "cumulative", counted)
    for config, bound in ((default, 1_000), (bc.apply_overrides(default, x0=20.0), 3_500)):
        calls = 0
        run = bc.integrate_ensemble(bc.build_state(config), config.ensemble, t_end, sample_times=samples)
        assert len(run) == 20 and all(tr.status == "completed" for tr in run)
        assert calls < bound


@pytest.mark.parametrize(
    "kind, x0, periods_per_revival", [("single", 0.0, 8), ("single", 20.0, 1), ("double", 12.5, 8)]
)
def test_coherent_cumulative_repeats_with_the_period_and_is_even_in_time(cfg, rev, kind, x0, periods_per_revival):
    # the fold rests on F(x, T_p - t) = F(x, t + T_p) = F(x, t) at gamma = 0
    state = bc.decompose(bc.InputSignalSpec(kind, x0, 10.0), cfg, 50)
    period = spectral._coherent_period(state)
    assert period == pytest.approx(rev.t_revival / periods_per_revival, rel=1e-15)
    kernel = decoherence._PairKernel(state, 0.0)
    x = np.linspace(-cfg.half_width, cfg.half_width, 2001)

    def defect(trial):
        worst = 0.0
        for t in np.array([0.0, 0.13, 0.37, 0.5, 0.81, 2.6]) * trial:
            F = kernel.cumulative(x, t)[0].copy()
            for image in (trial - t, t + trial, t + 3.0 * trial):
                worst = max(worst, float(np.max(np.abs(kernel.cumulative(x, image)[0] - F))))
        return worst / kernel.total

    assert defect(period) <= 1e-12
    # half the period is not one: the fold needs the exact gcd
    assert defect(period / 2.0) > 0.1


def test_coherent_period_is_the_revival_time_over_the_beat_gcd(cfg, rev):
    # populated modes (1, 2): g = 3; (2, 4): g = 12; (1, 3, 5): g = 8; one mode: stationary
    for coeffs, g in (([0.6, 0.8], 3), ([0.0, 0.6, 0.0, 0.8], 12), ([0.6, 0.0, 0.6, 0.0, 0.5], 8)):
        assert spectral._coherent_period(make_state(cfg, coeffs)) == rev.t_revival / g
    assert spectral._coherent_period(make_state(cfg, [0.0, 0.0, 1.0])) == 0.0


def _sequential_quantiles(state, seeds, samples, xtol):
    """The unfolded reference: one warm-started quantile solve per sample time, in time order."""
    kernel = decoherence._PairKernel(state, 0.0)
    target = kernel.cumulative(seeds, 0.0)[0]
    x, rows = seeds, []
    for t in samples:
        if t > 0.0:
            x = flow._solve_quantile(kernel, x, target, float(t), xtol)
        rows.append(x)
    return np.array(rows)


def test_folded_positions_repeat_bit_for_bit(state20, double125):
    # samples every tenth of the period over three periods, without t = 0:
    # sample j lies at t, 10 - j at T_p - t, j + 10 at t + T_p, and 10, 20, 30
    # at multiples of T_p, which fold to exactly 0
    spec = bc.EnsembleSpec(count=8)
    for state in (state20, double125):
        period = spectral._coherent_period(state)
        samples = np.linspace(0.0, 3.0 * period, 31)[1:]
        run = bc.integrate_ensemble(state, spec, samples[-1], sample_times=samples)
        # row j is sample j; no row 0
        positions = np.vstack([np.full(spec.count, np.nan), np.array([tr.positions for tr in run]).T])
        seeds = bc.ensemble_seeds(spec, state.signal)
        for j in (10, 20, 30):
            assert np.array_equal(positions[j], seeds)
        for j in range(1, 6):
            assert not np.array_equal(positions[j], seeds)
            for image in (10 - j, j + 10, 20 - j, j + 20, 30 - j):
                assert np.array_equal(positions[image], positions[j])


def test_stationary_state_stays_at_its_seeds(cfg, rev):
    state = make_state(cfg, [0.0, 0.0, 1.0])
    seeds = np.array([-20.0, -3.0, 4.0, 11.0])
    samples = np.linspace(0.0, 3.0 * rev.tau, 17)
    run = bc.integrate_ensemble(state, bc.EnsembleSpec(seeds=tuple(seeds)), samples[-1], sample_times=samples)
    for seed, tr in zip(seeds, run):
        assert tr.status == "completed" and np.array_equal(tr.times, samples)
        assert np.all(tr.positions == seed)


@pytest.mark.parametrize("grid", ["default", "random"])
def test_folded_quantiles_match_the_sequential_solve(rev, grid):
    # on the lattice (63 distinct folded times of 1001) and off it, where almost none coincide
    config = bc.parse_config("")
    state = bc.build_state(config)
    t_end = config.grid.t_max_tau * rev.tau
    if grid == "default":
        samples = np.linspace(0.0, t_end, config.grid.t_points)
    else:
        samples = np.unique(np.random.default_rng(7).uniform(0.0, t_end, 300))
    seeds = bc.ensemble_seeds(config.ensemble, config.signal)
    run = bc.integrate_ensemble(state, config.ensemble, t_end, sample_times=samples)
    assert all(tr.status == "completed" for tr in run)
    positions = np.array([tr.positions for tr in run]).T
    reference = _sequential_quantiles(state, seeds, samples, 1e-8 * 1e-2)
    assert float(np.max(np.abs(positions - reference))) <= 1e-9


@pytest.mark.parametrize("kind, x0", [("single", 0.0), ("single", 20.0), ("double", 12.5)])
def test_damped_cumulative_integrates_the_density(cfg, rev, ref_params, kind, x0):
    # the closed form of F holds at gamma > 0: dF/dx is density_map and F(L/2) the trace
    state = bc.decompose(bc.InputSignalSpec(kind, x0, 10.0), cfg, 50)
    kernel = decoherence._PairKernel(state, ref_params.gamma)
    x = np.linspace(-cfg.half_width, cfg.half_width, 2001)
    h = x[1] - x[0]
    for t in np.array([0.0, 0.37, 1.0, 3.0, 8.0]) * rev.tau:
        F, rho = kernel.cumulative(x, t)
        density = density_map(state, x, [t], ref_params)[0]
        assert np.max(np.abs(rho - density)) <= 1e-14
        assert abs(F[-1] - kernel.total) <= 1e-14
        # composite Simpson over every odd-length prefix of the grid
        simpson = np.cumsum(h / 3.0 * (density[:-2:2] + 4.0 * density[1:-1:2] + density[2::2]))
        assert np.max(np.abs(F[2::2] - simpson)) <= 1e-9


def test_damped_streamlines_do_not_transport_the_probability():
    # energy damping delocalizes without a flux that carries the density:
    # F(x_i(t), t) = F(x_i(0), 0) holds on coherent paths only
    config = bc.parse_config("")
    state = bc.build_state(config)
    t_end = config.grid.t_max_tau * bc.revival_times(config.cavity).tau

    def transport_defect(params):
        run = bc.integrate_ensemble(state, config.ensemble, t_end, params=params)
        assert len(run) == 20 and all(tr.status == "completed" for tr in run)
        kernel = decoherence._PairKernel(state, params.gamma)
        start = kernel.cumulative(np.array([tr.positions[0] for tr in run]), 0.0)[0]
        end = kernel.cumulative(np.array([tr.positions[-1] for tr in run]), t_end)[0]
        return float(np.max(np.abs(end - start)))

    assert config.deco.gamma > 0.0
    assert transport_defect(config.deco) > 0.02
    assert transport_defect(bc.DecoherenceParams()) <= 1e-12
    # the quantile solver run on the damped cumulative does carry it
    kernel = decoherence._PairKernel(state, config.deco.gamma)
    seeds = bc.ensemble_seeds(config.ensemble, config.signal)
    target, rho = kernel.cumulative(seeds, 0.0)
    assert np.all(rho >= flow.DENSITY_FLOOR)
    solved = flow._solve_quantile(kernel, seeds, target, t_end, 1e-10)
    defect = kernel.cumulative(solved, t_end)[0] - kernel.cumulative(seeds, 0.0)[0]
    assert np.max(np.abs(defect)) <= 1e-12


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


@pytest.mark.parametrize("x0", [20.0, 7.0])
def test_coherent_streamlines_obey_the_mirror_revival(cfg, rev, x0):
    # at T_rev / 2 every mode alpha has turned its phase by (-1)^alpha, so
    # psi(x, T_rev / 2) = -psi(-x, 0): the density is the mirror image of
    # the initial one, and F(x, T_rev / 2) = tr R - F0(-x).  These states
    # have the period T_rev, so T_rev / 2 is the edge of the fold, and the
    # member seeded at s sits at -Q0(tr R - F0(s)), Q0 the quantile of F0
    state = bc.decompose(bc.InputSignalSpec("single", x0, 10.0), cfg, 50)
    assert spectral._coherent_period(state) == rev.t_revival
    kernel = decoherence._PairKernel(state, 0.0)
    spec = bc.EnsembleSpec(count=20)
    half = rev.t_revival / 2.0
    run = bc.integrate_ensemble(state, spec, half, sample_times=np.array([0.0, half]))
    assert all(tr.status == "completed" for tr in run)
    seeds = bc.ensemble_seeds(spec, state.signal)
    target = kernel.total - kernel.cumulative(seeds, 0.0)[0]
    # the quantile of F0 by plain bisection over the box
    lo, hi = np.full(seeds.size, -cfg.half_width), np.full(seeds.size, cfg.half_width)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = kernel.cumulative(mid, 0.0)[0] < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    mirrored = -0.5 * (lo + hi)
    assert np.max(np.abs(np.array([tr.positions[-1] for tr in run]) - mirrored)) <= 1e-10
