"""Bohmian velocity field and trajectory integration.

The probability flux divided by the density defines a local velocity field;
its integral curves are the streamlines along which probability is
transported.  In one dimension the flow map is order-preserving, so
trajectories seeded in increasing order must stay ordered (the noncrossing
rule checked by ``noncrossing_check``).

The field has one route per kind of point.  At fixed points (``velocity``
and ``velocity_map``, which share one row function) a row is two mode sums
of psi at gamma = 0 and a beat-wavenumber series when damped.  Points that
move on every call reduce the pair matrix (``decoherence._PairKernel``):
the damped integrator's velocity and the cumulative probability F(x, t) to
the left of x are two reductions of that one matrix, and F's closed form
holds at any gamma.

A coherent (gamma = 0) streamline keeps the probability to its left
constant, F(x(t), t) = F(x0, 0); those paths are solved as quantiles of F
(``_quantile_batch``), with no time stepping.  Damped streamlines do not
carry F: the energy damping delocalizes the density without a flux that
transports it, so damped paths are integrated (``_integrate_batch``).
Near density nodes the field diverges; a member that cannot go on there is
returned truncated with status ``step-floor-hit`` instead of blowing up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import (DENSITY_FLOOR, DecoherenceParams, _BeatSeries, _check_params, _flux_ratio, _PairKernel,
                          _row_blocks)
from .errors import CarpetError, DomainError, NodeProximityError
from .spectral import (InputSignalSpec, SpectralState, _check_array, _check_axis, _check_count, _check_positions,
                       _check_real, _check_spec, _check_times, _coherent_period, _ModeBasis, revival_times)

_QUANTILE_ITERATIONS = 200  # per solve; bisection alone needs ~40 across the box

# Dormand-Prince 5(4) pair; the propagated solution is 5th order and the
# last stage is the first evaluation of the next step (FSAL).  Row 6 of the
# stage matrix is the 5th-order weight vector, so the last stage input is the
# new solution; _RK_E weighs all seven slopes for the embedded error.
_RK_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_RK_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_RK_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Dense output: the 4th-order continuous extension of the pair from the same
# seven slopes (Hairer, Norsett & Wanner, Solving ODEs I, II.6, dopri5's CONTD5).
_RK_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])


def _velocity_rows(state: SpectralState, xv: np.ndarray, times: np.ndarray, params: DecoherenceParams):
    """Velocity rows at fixed points ``xv``, one per time, and their node-floor masks.

    At gamma = 0 each row is two mode sums, psi and its slope, from one
    evaluation of the basis: |psi|^2 keeps its relative accuracy where the
    density is small.  Damped rows are beat-wavenumber series
    (``_BeatSeries``) reduced by ``_row_blocks``.
    """
    _require_support(state)
    gamma = _check_params(params).gamma
    hm = state.cfg.hbar / state.cfg.m
    rows = np.empty((times.size, xv.size))
    bad = np.empty(rows.shape, dtype=bool)
    if gamma == 0.0:
        alpha = state.support
        c = state.coeffs[alpha - 1]
        Eh = state.energies[alpha - 1] / state.cfg.hbar
        phi, dphi = _ModeBasis(alpha, state.cfg.L)(xv)
        for j, t in enumerate(times):
            u = c * np.exp(-1j * Eh * float(t))
            ur = u.view(float).reshape(-1, 2)  # (real, imag) columns: no complex cast of phi
            re, im = (phi @ ur).T
            dre, dim = (dphi @ ur).T
            rows[j], bad[j] = _flux_ratio(hm, re * dim - im * dre, re**2 + im**2)
        return rows, bad
    series = _BeatSeries(state, gamma, times)
    coefficients = (series.coefficients(float(t), flux=True) for t in times)
    for start, stop, (den, num) in _row_blocks(coefficients, series.tables(xv, flux=True)):
        rows[start:stop], bad[start:stop] = _flux_ratio(hm, num, den)
    return rows, bad


def _require_support(state: SpectralState) -> None:
    if not state.support.size:
        raise DomainError("velocity field undefined for a state with no nonzero coefficients")


def velocity(state: SpectralState, x, t: float, params: DecoherenceParams = DecoherenceParams()):
    """Velocity field value(s) at position(s) ``x`` and time ``t``.

    The one-row ``velocity_map``: the same value, bit for bit.  Real input
    signals start with a uniform phase, so the field vanishes identically at
    t = 0.  Raises ``NodeProximityError`` where the density is below the
    node floor.
    """
    _check_spec(state, SpectralState, "velocity state")
    t = _check_real(t, "time", 0)
    xv = _check_positions(x, state.cfg)
    rows, masks = _velocity_rows(state, xv, np.array([t]), params)
    v, bad = rows[0], masks[0]
    if bad.any():
        where = xv[bad][:8]
        raise NodeProximityError(
            f"density below {DENSITY_FLOOR} at {bad.sum()} position(s)", positions=where
        )
    return v if np.ndim(x) else float(v[0])


def velocity_map(
    state: SpectralState, x: np.ndarray, times: np.ndarray, params: DecoherenceParams = DecoherenceParams()
) -> np.ndarray:
    """Velocity on the (t, x) grid; node-floor positions are set to zero.

    Row j is ``velocity`` at times[j], bit for bit: both are rows of
    ``_velocity_rows``.
    """
    _check_spec(state, SpectralState, "velocity map state")
    xv = _check_positions(x, state.cfg)
    return _velocity_rows(state, xv, _check_times(times), params)[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One integrated streamline: seed, sample times, positions, status."""

    x0: float
    times: np.ndarray
    positions: np.ndarray
    status: str = "completed"

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_real(self.x0, "trajectory seed"))
        t = _check_axis(self.times, "trajectory times", least=0)
        p = _check_array(self.positions, "trajectory positions")
        if t.shape != p.shape:
            raise DomainError("trajectory times and positions must be matching 1-D arrays")
        if self.status not in ("completed", "step-floor-hit"):
            raise DomainError(f"unknown trajectory status {self.status!r}")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)


@dataclass(frozen=True)
class EnsembleSpec:
    """How to seed a trajectory ensemble: ``count`` seeds evenly over the
    signal support, or the explicit strictly increasing list ``seeds``, whose
    length then is ``count``."""

    count: int = 0
    seeds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.seeds is None:
            object.__setattr__(self, "count", _check_count(self.count, "ensemble count", 1))
            return
        seeds = _check_axis(self.seeds, "explicit seeds")
        object.__setattr__(self, "seeds", tuple(seeds.tolist()))
        object.__setattr__(self, "count", seeds.size)


def ensemble_seeds(spec: EnsembleSpec, signal: InputSignalSpec) -> np.ndarray:
    """Resolve seed positions for ``spec`` against the signal support."""
    _check_spec(spec, EnsembleSpec, "ensemble spec")
    _check_spec(signal, InputSignalSpec, "ensemble signal")
    lobes = signal.support()
    if spec.seeds is not None:
        seeds = np.asarray(spec.seeds, dtype=float)
        inside = np.zeros(seeds.size, dtype=bool)
        for lo, hi in lobes:
            inside |= (seeds >= lo) & (seeds <= hi)
        if not inside.all():
            raise DomainError(f"seeds outside the signal support: {seeds[~inside][:8]}")
        return seeds
    n = spec.count
    per_lobe = [n // len(lobes)] * len(lobes)
    per_lobe[-1] += n - sum(per_lobe)
    parts = []
    for (lo, hi), cnt in zip(lobes, per_lobe):
        if cnt == 0:
            continue
        step = (hi - lo) / cnt
        parts.append(lo + (np.arange(cnt) + 0.5) * step)
    return np.concatenate(parts)


def integrate_trajectory(
    state: SpectralState,
    x0: float,
    t_end: float,
    params: DecoherenceParams = DecoherenceParams(),
    tol: float = 1e-8,
    sample_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate a single streamline seeded at ``x0`` up to ``t_end``.

    Any seed inside the box is accepted, also one outside the signal
    support.  At gamma = 0 the path is the quantile of the closed-form
    cumulative probability (``_quantile_batch``), solved to the position
    tolerance ``tol * 1e-2``.  For gamma > 0 it comes from adaptive
    Dormand-Prince stepping (``_integrate_batch``), whose samples are about
    as accurate as steps at the relative tolerance ``tol``.  The path either
    reaches ``t_end`` (status 'completed') or is truncated at a node with
    status 'step-floor-hit'; at gamma = 0 only a seed on a node (density
    below ``DENSITY_FLOOR``) is, at t = 0.
    """
    _check_spec(state, SpectralState, "trajectory state")
    return _integrate(state, np.array([_check_real(x0, "seed x0")]), t_end, params, tol, sample_times)[0]


def integrate_ensemble(
    state: SpectralState,
    spec: EnsembleSpec,
    t_end: float,
    params: DecoherenceParams = DecoherenceParams(),
    tol: float = 1e-8,
    sample_times: np.ndarray | None = None,
) -> list[Trajectory]:
    """Integrate an ensemble of streamlines on a common sample-time grid.

    Seeds are resolved against the signal support (``ensemble_seeds``).
    Trajectories never interact: each member is what
    ``integrate_trajectory`` gives it to ``tol``, and for gamma > 0 the
    members share one adaptive step whose error test holds for each of them.
    Failures are reported per trajectory through its status.
    """
    _check_spec(state, SpectralState, "ensemble state")
    _check_spec(spec, EnsembleSpec, "ensemble spec")
    if state.signal is not None:
        seeds = ensemble_seeds(spec, state.signal)
    elif spec.seeds is None:
        raise DomainError("uniform seeding requires a state with a known input signal")
    else:
        seeds = np.asarray(spec.seeds, dtype=float)
    return _integrate(state, seeds, t_end, params, tol, sample_times)


def _integrate(state, seeds, t_end, params, tol, sample_times) -> list[Trajectory]:
    t_end = _check_real(t_end, "t_end", 0, strict=True)
    tol = _check_real(tol, "tol", 0, strict=True)
    _check_positions(seeds, state.cfg)
    _check_params(params)

    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 257)
    sample_times = _check_axis(sample_times, "sample_times")
    if sample_times[0] < 0.0 or sample_times[-1] > t_end * (1 + 1e-12):
        raise DomainError("sample_times must lie within [0, t_end]")

    _require_support(state)
    kernel = _PairKernel(state, params.gamma)
    if params.gamma == 0.0:
        recorded, freeze_time = _quantile_batch(kernel, seeds, sample_times, _coherent_period(state), tol * 1e-2)
    else:
        tau = revival_times(state.cfg).tau
        recorded, freeze_time = _integrate_batch(
            kernel.velocity,
            seeds,
            sample_times,
            t_end=t_end,
            # the dense output is ~7x less accurate than the steps it fills:
            # step tighter, so that samples keep the accuracy of steps at tol
            rtol=tol / 10.0,
            atol=tol * 1e-3,
            h_start=tau / 16000.0,
            h_floor=tau * 1e-12,
            half_width=state.cfg.half_width,
        )

    trajectories = []
    for i, seed in enumerate(seeds):
        col = recorded[:, i]
        mask = ~np.isnan(col)
        status = "completed" if np.isinf(freeze_time[i]) else "step-floor-hit"
        trajectories.append(
            Trajectory(x0=float(seed), times=sample_times[mask], positions=col[mask], status=status)
        )
    return trajectories


def _quantile_batch(kernel, x0, sample_times, period, xtol):
    """Coherent streamlines as quantiles: solve F(x, t) = F(x0, 0) once per distinct folded time.

    Same return pair as ``_integrate_batch``.  ``period`` is the period of
    the coherent F (``spectral._coherent_period``).  The distinct folded
    times of ``_fold_times`` are solved in increasing order, each warm-started from
    the last, and copied back to every sample.  A seed whose density is
    below the node floor stops at t = 0; every other member completes.
    """
    n = x0.size
    recorded = np.full((sample_times.size, n), np.nan)
    freeze_time = np.full(n, np.inf)
    target, rho0 = kernel.cumulative(x0, 0.0)
    live = rho0 >= DENSITY_FLOOR
    freeze_time[~live] = 0.0
    folded, group = _fold_times(sample_times, period)
    x, target = x0[live], target[live]
    solved = np.empty((folded.size, x.size))
    for j, t in enumerate(folded):
        if t > 0.0 and x.size:
            x = _solve_quantile(kernel, x, target, float(t), xtol)
        solved[j] = x
    recorded[:, live] = solved[group]
    recorded[sample_times <= 0.0] = x0  # also a seed on a node
    return recorded, freeze_time


def _fold_times(times, period):
    """The distinct folded sample times in increasing order, and each sample's index among them.

    A coherent F repeats with the period T_p (``spectral._coherent_period``),
    and the real coefficients make it even in t, so F is the same at t,
    T_p - t and t + T_p: a time t folds onto [0, T_p / 2] as
    min(r, T_p - r) with r = t mod T_p.  A folded time within 1e-13 T_p of 0
    is exactly 0, and folded times within 1e-13 T_p of their neighbour are
    one.  A period of 0.0 (a stationary state) folds every time to 0.
    """
    if period == 0.0:
        folded, tol = np.zeros_like(times), 0.0
    else:
        r = np.mod(times, period)
        folded = np.minimum(r, period - r)
        tol = 1e-13 * period
        folded[folded <= tol] = 0.0
    order = np.argsort(folded, kind="stable")
    ordered = folded[order]
    first = np.concatenate(([True], np.diff(ordered) > tol))
    group = np.empty(times.size, dtype=int)
    group[order] = np.cumsum(first) - 1
    return ordered[first], group


def _solve_quantile(kernel, x, target, t, xtol):
    """Vectorized safeguarded Newton for F(x, t) = target, warm-started at ``x``.

    F increases with x (dF/dx = rho >= 0), so the sign of each residual
    shrinks a per-member bracket that starts as the whole box.  A member
    stops when its residual is at F's roundoff floor (x kept), when its
    Newton step is at most ``xtol`` (step taken, before the bracket test, so
    that a converged step rounding onto a bracket end is not undone), or
    when its bracket is narrower than ``xtol``.  A Newton step that leaves
    the bracket is replaced by bisection.
    """
    hw = kernel.half_width
    x = x.copy()
    lo = np.full(x.size, -hw)
    hi = np.full(x.size, hw)
    # roundoff of F grows with the y tr(R) / L term
    floor_scale = 4.0 * np.finfo(float).eps * kernel.total / (2.0 * hw)
    todo = np.arange(x.size)
    for _ in range(_QUANTILE_ITERATIONS):
        xi = x[todo]
        F, rho = kernel.cumulative(xi, t)
        r = F - target[todo]
        lo_i = np.where(r < 0.0, xi, lo[todo])
        hi_i = np.where(r > 0.0, xi, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(rho > 0.0, -r / rho, np.inf)
        at_floor = np.abs(r) <= floor_scale * (xi + hw)
        converged = ~at_floor & (np.abs(dx) <= xtol)
        newton = xi + dx
        inside = (newton > lo_i) & (newton < hi_i)
        narrow = ~at_floor & ~converged & (hi_i - lo_i <= xtol)
        xn = np.where(inside | converged, newton, 0.5 * (lo_i + hi_i))
        xn = np.where(at_floor, xi, np.clip(xn, -hw, hw))
        x[todo], lo[todo], hi[todo] = xn, lo_i, hi_i
        todo = todo[~(at_floor | converged | narrow)]
        if todo.size == 0:
            return x
    raise CarpetError("quantile solve did not converge (iteration budget exhausted)")


def _integrate_batch(field, y0, sample_times, t_end, rtol, atol, h_start, h_floor, half_width):
    """Shared-step adaptive RK45 over a batch of independent scalar ODEs.

    The step is bounded only by the embedded error estimate and ``t_end``;
    ``h_start`` is the first step and the step after a freeze at ``h_floor``.
    The sample times do not move the steps: after each accepted step
    (t, t + h] every sample time in it is filled from the pair's free dense
    output, and a sample past the wall is reflected into the box like a
    step.  A stage that flags an active component below the node floor fails
    the step like its error test; a component that fails at ``h_floor``, or
    is flagged where a step starts, is frozen there.  Returns the positions
    recorded at the sample times (NaN where a component's accepted steps did
    not reach, because it was frozen) and the per-component freeze time (inf
    when completed).
    """
    n = y0.size
    y = y0.astype(float).copy()
    t = 0.0
    active = np.ones(n, dtype=bool)
    freeze_time = np.full(n, np.inf)
    ns = sample_times.size
    recorded = np.full((ns, n), np.nan)
    si = 0
    while si < ns and sample_times[si] <= 0.0:
        recorded[si] = y
        si += 1

    K = np.empty((7, n))  # stage slopes; row 0 is the FSAL slope at (t, y)
    K[0], bad = field(y, t)
    freeze_time[bad] = t
    active &= ~bad

    h = h_start
    facold = 1e-4
    growth_cap = 5.0
    steps = 0
    while t < t_end and active.any():
        steps += 1
        if steps > 20_000_000:
            raise CarpetError("trajectory integration stalled (step budget exhausted)")
        if t_end - t <= 1e-14 * max(t_end, 1.0):
            t = t_end  # remaining gap is roundoff
            continue
        h = min(h, t_end - t)

        for i in range(1, 7):
            yi = y + h * (_RK_A[i, :i] @ K[:i])
            K[i], bad = field(yi, t + _RK_C[i] * h)
            hit = bad & active
            if hit.any():
                break

        if hit.any():
            ratios = np.where(hit, np.inf, 0.0)
        else:
            y5 = yi  # the last stage input is the 5th-order solution
            err = h * (_RK_E @ K)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            ratios = np.abs(err) / scale
        enorm = float(ratios[active].max())

        if enorm <= 1.0:
            stop = int(np.searchsorted(sample_times, t + h, side="right"))
            if stop > si:
                theta = ((sample_times[si:stop] - t) / h)[:, None]
                dy = y5 - y
                b = h * K[0] - dy
                dense = y + theta * (dy + (1.0 - theta) * (
                    b + theta * (dy - h * K[6] - b + (1.0 - theta) * (h * (_RK_D @ K)))))
                recorded[si:stop, active] = _reflect(dense, half_width)[:, active]
                si = stop
            y = np.where(active, y5, y)
            if np.any(np.abs(y) > half_width):
                # reflect roundoff-level overshoot back inside the box
                y = _reflect(y, half_width)
                K[0], bad = field(y, t + h)
                # a member reflected onto the node floor has no valid slope: it stops here
                freeze_time[bad & active] = t + h
                active &= ~bad
            else:
                K[0] = K[6]
            t += h
            fac = 5.0 if enorm == 0.0 else 0.9 * enorm**-0.17 * facold**0.04
            h *= min(growth_cap, max(0.2, fac))
            facold = max(enorm, 1e-4)
            growth_cap = 5.0
        else:
            if h <= h_floor:
                drivers = active & (ratios > 1.0)
                freeze_time[drivers] = t
                active &= ~drivers
                h = h_start
            else:
                h *= max(0.2, 0.9 * enorm**-0.2)
            growth_cap = 1.0
    # samples beyond the last step lie within roundoff of t_end
    recorded[si:, active] = y[active]
    return recorded, freeze_time


def _reflect(y: np.ndarray, half_width: float) -> np.ndarray:
    """Mirror the positions beyond +-half_width back into the box."""
    return np.where(np.abs(y) > half_width, np.sign(y) * (2.0 * half_width) - y, y)


@dataclass(frozen=True)
class NoncrossingReport:
    """Outcome of the ordering check; ``time``/``pair`` locate the first swap."""

    ok: bool
    time: float | None = None
    pair: tuple[int, int] | None = None


def noncrossing_check(trajectories: list[Trajectory], slack: float = 1e-9) -> NoncrossingReport:
    """Verify that seed ordering is preserved at every shared sample time.

    At each sample, neighbouring members among those still running are
    compared, so each grid must be a prefix of the longest one; the ``slack``
    tolerates near-contact of mirror-symmetric paths.
    """
    slack = _check_real(slack, "noncrossing slack", 0)
    if len(trajectories) < 2:
        return NoncrossingReport(ok=True)
    times = max((tr.times for tr in trajectories), key=np.size)
    for tr in trajectories:
        if not np.array_equal(tr.times, times[: tr.times.size]):
            raise DomainError("trajectories do not share a common sample-time grid")
    _check_axis([tr.x0 for tr in trajectories], "trajectory seeds")
    # the running set changes only where a member stops: one block per stop
    sizes = np.array([tr.times.size for tr in trajectories])
    start = 0
    for stop in np.unique(sizes):
        running = np.flatnonzero(sizes >= stop)
        pos = np.vstack([trajectories[i].positions[start:stop] for i in running])
        pair_idx, time_idx = np.nonzero(np.diff(pos, axis=0) < -slack)
        if time_idx.size:
            j = int(time_idx.min())
            k = int(pair_idx[time_idx == j].min())
            pair = (int(running[k]), int(running[k + 1]))
            return NoncrossingReport(ok=False, time=float(times[start + j]), pair=pair)
        start = stop
    return NoncrossingReport(ok=True)
