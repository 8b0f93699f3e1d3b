"""Bohmian velocity field and trajectory integration.

The probability flux divided by the density defines a local velocity field;
its integral curves are the streamlines along which probability is
transported.  In one dimension the flow map is order-preserving, so
trajectories seeded in increasing order must stay ordered (the noncrossing
rule checked by ``noncrossing_check``).

The field has one route per kind of point.  At fixed points (``velocity``
and ``velocity_map``, which share one row function) a row is two mode sums
of psi at gamma = 0 and a beat-wavenumber series when damped.  Points that
move on every call, the damped integrator's, reduce the pair matrix
(``_VelocityField``).

A coherent (gamma = 0) streamline keeps the probability to its left
constant, F(x(t), t) = F(x0, 0), and F has a closed form; those paths are
solved as quantiles of F at each sample time, with no time stepping.

Damped paths are integrated.  Near density nodes the field diverges.  The
integrator treats a density below ``DENSITY_FLOOR`` as a node-proximity
signal: the step is rejected and halved, and once the step floor is reached
the affected trajectory is returned truncated with status ``step-floor-hit``
instead of blowing up.  In both routes a seed whose density is below the
floor stops at t = 0 with that status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceParams, _BeatSeries, _PairKernel, _support
from .errors import CarpetError, DomainError, NodeProximityError
from .evolution import revival_times
from .spectral import InputSignalSpec, SpectralState, _check_count, _check_positions

DENSITY_FLOOR = 1e-12
_QUANTILE_ITERATIONS = 200  # per sample; bisection alone needs ~40 across the box

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


class _VelocityField:
    """The (possibly damped) velocity field at points that move on every call.

    The integrator's field: each call reduces the pair matrix ``_PairKernel``
    against the support modes and slopes at the points, at any gamma.
    Evaluation returns the velocities together with a mask of positions
    whose density sits below the node floor (velocity forced to zero there).
    """

    def __init__(self, state: SpectralState, params: DecoherenceParams | None):
        _require_support(state)
        self.kernel = _PairKernel(state, params.gamma if params is not None else 0.0)
        self.hm = state.cfg.hbar / state.cfg.m

    def __call__(self, x: np.ndarray, t: float):
        phi, dphi = self.kernel.basis(x)
        M = self.kernel(t)
        den = ((phi @ np.ascontiguousarray(M.real)) * phi).sum(axis=1)
        num = ((dphi @ np.ascontiguousarray(M.imag)) * phi).sum(axis=1)
        return _flux_ratio(self.hm, num, den)


def _velocity_rows(state: SpectralState, xv: np.ndarray, times: np.ndarray, params: DecoherenceParams | None):
    """Velocity rows at fixed points ``xv``, one per time, and their node-floor masks.

    At gamma = 0 each row is two mode sums, psi and its slope, from one
    evaluation of the basis: |psi|^2 keeps its relative accuracy where the
    density is small.  Damped rows are beat-wavenumber series
    (``_BeatSeries``), summed from the nearer wall.
    """
    _require_support(state)
    hm = state.cfg.hbar / state.cfg.m
    rows = np.empty((times.size, xv.size))
    bad = np.empty(rows.shape, dtype=bool)
    gamma = params.gamma if params is not None else 0.0
    if gamma == 0.0:
        c, basis = _support(state)
        Eh = state.energies[state.coeffs != 0.0] / state.cfg.hbar
        phi, dphi = basis(xv)
        for j, t in enumerate(times):
            u = c * np.exp(-1j * Eh * float(t))
            ur = u.view(float).reshape(-1, 2)  # (real, imag) columns: no complex cast of phi
            re, im = (phi @ ur).T
            dre, dim = (dphi @ ur).T
            rows[j], bad[j] = _flux_ratio(hm, re * dim - im * dre, re**2 + im**2)
        return rows, bad
    series = _BeatSeries(state, gamma)
    table, sine = series.tables(xv, flux=True)
    for j, t in enumerate(times):
        C, S = series.coefficients(float(t), flux=True)
        rows[j], bad[j] = _flux_ratio(hm, S @ sine, C @ table)
    return rows, bad


def _flux_ratio(hm: float, num: np.ndarray, den: np.ndarray):
    """Velocity hbar/m * num / den, and the mask of node-floor points where it is set to 0."""
    bad = den < DENSITY_FLOOR
    v = hm * num / np.where(bad, 1.0, den)
    v[bad] = 0.0
    return v, bad


def _require_support(state: SpectralState) -> None:
    if not np.any(state.coeffs):
        raise DomainError("velocity field undefined for a state with no nonzero coefficients")


class _Cumulative:
    """Closed-form cumulative probability F(x, t) of a coherent state and its density.

    With y = x + L/2, R = Re M(t) and B_ab = A_ab / k_b, where
    A_ab = 1/(k_a - k_b) - 1/(k_a + k_b) off the diagonal and 0 on it,

        F = y tr(R) / L - sum_a R_aa phi_a phi'_a / (2 k_a^2) + sum_ab phi_a (R o B)_ab phi'_b

    and dF/dx = rho = phi R phi^T.  At gamma = 0 the diagonal of R is c^2 at
    every t, so only the off-diagonal part is rebuilt per time.
    """

    def __init__(self, state: SpectralState):
        _require_support(state)
        self.kernel = _PairKernel(state, 0.0)
        k = self.kernel.basis.k
        with np.errstate(divide="ignore"):
            A = 1.0 / (k[:, None] - k[None, :]) - 1.0 / (k[:, None] + k[None, :])
        np.fill_diagonal(A, 0.0)
        self.B = A / k[None, :]
        self.diag = self.kernel.c**2 / (2.0 * k**2)
        self.total = float(np.sum(self.kernel.c**2))  # tr R, conserved at gamma = 0
        self.half_width = state.cfg.half_width
        self._t = None

    def __call__(self, x: np.ndarray, t: float):
        if t != self._t:
            R = self.kernel(t).real
            # one product gives both reductions: [R | R o B]
            self._RB = np.hstack([R, R * self.B])
            self._t = t
        phi, dphi = self.kernel.basis(x)
        n = self.diag.size
        P = phi @ self._RB
        rho = (P[:, :n] * phi).sum(axis=1)
        y = x + self.half_width
        F = y * (self.total / (2.0 * self.half_width)) - (phi * dphi) @ self.diag
        F += (P[:, n:] * dphi).sum(axis=1)
        return F, rho


def velocity(state: SpectralState, x, t: float, params: DecoherenceParams | None = None):
    """Velocity field value(s) at position(s) ``x`` and time ``t``.

    The one-row ``velocity_map``: the same value, bit for bit.  Real input
    signals start with a uniform phase, so the field vanishes identically at
    t = 0.  Raises ``NodeProximityError`` where the density is below the
    node floor.
    """
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"time must be nonnegative and finite, got {t!r}")
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    rows, masks = _velocity_rows(state, xv, np.array([float(t)]), params)
    v, bad = rows[0], masks[0]
    if bad.any():
        where = xv[bad][:8]
        raise NodeProximityError(
            f"density below {DENSITY_FLOOR} at {bad.sum()} position(s)", positions=where
        )
    return v if np.ndim(x) else float(v[0])


def velocity_map(
    state: SpectralState, x: np.ndarray, times: np.ndarray, params: DecoherenceParams | None = None
) -> np.ndarray:
    """Velocity on the (t, x) grid; node-floor positions are set to zero.

    Row j is ``velocity`` at times[j], bit for bit: both are rows of
    ``_velocity_rows``.
    """
    xv = np.atleast_1d(_check_positions(x, state.cfg))
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & np.isfinite(times)):
        raise DomainError("times must be nonnegative and finite")
    return _velocity_rows(state, xv, times, params)[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One integrated streamline: seed, sample times, positions, status."""

    x0: float
    times: np.ndarray
    positions: np.ndarray
    status: str = "completed"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        if t.shape != p.shape or t.ndim != 1:
            raise DomainError("trajectory times and positions must be matching 1-D arrays")
        if not (np.isfinite(self.x0) and np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise DomainError("trajectory seed, times and positions must be finite")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise DomainError("trajectory times must be strictly increasing")
        if self.status not in ("completed", "step-floor-hit"):
            raise DomainError(f"unknown trajectory status {self.status!r}")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)


@dataclass(frozen=True)
class EnsembleSpec:
    """How to seed a trajectory ensemble: evenly over the signal support,
    or from an explicit strictly increasing list."""

    count: int = 0
    seeding: str = "uniform"
    seeds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.seeding not in ("uniform", "explicit"):
            raise DomainError(f"seeding must be 'uniform' or 'explicit', got {self.seeding!r}")
        if self.seeding == "explicit":
            if not self.seeds:
                raise DomainError("explicit seeding requires a non-empty seed list")
            seeds = tuple(float(s) for s in self.seeds)
            if not np.all(np.isfinite(seeds)):
                raise DomainError(f"explicit seeds must be finite, got {seeds!r}")
            if np.any(np.diff(seeds) <= 0.0):
                raise DomainError("explicit seeds must be strictly increasing")
            object.__setattr__(self, "seeds", seeds)
            object.__setattr__(self, "count", len(seeds))
        else:
            if self.seeds is not None:
                raise DomainError("uniform seeding does not take an explicit seed list")
            object.__setattr__(self, "count", _check_count(self.count, "ensemble count", 1))


def ensemble_seeds(spec: EnsembleSpec, signal: InputSignalSpec) -> np.ndarray:
    """Resolve seed positions for ``spec`` against the signal support."""
    lobes = signal.support()
    if spec.seeding == "explicit":
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
    params: DecoherenceParams | None = None,
    tol: float = 1e-8,
    sample_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate a single streamline seeded at ``x0`` up to ``t_end``.

    Any seed inside the box is accepted, also one outside the signal
    support.  At gamma = 0 the path is the quantile of the closed-form
    cumulative probability at each sample time, solved to the position
    tolerance ``tol * 1e-2``; for gamma > 0 it comes from adaptive
    Dormand-Prince stepping with per-step relative tolerance ``tol``.  The
    path either reaches ``t_end`` (status 'completed') or is truncated at a
    node with status 'step-floor-hit'; at gamma = 0 only a seed on a node
    (density below ``DENSITY_FLOOR``) is, at t = 0.
    """
    return _integrate(state, np.array([float(x0)]), t_end, params, tol, sample_times)[0]


def integrate_ensemble(
    state: SpectralState,
    spec: EnsembleSpec,
    t_end: float,
    params: DecoherenceParams | None = None,
    tol: float = 1e-8,
    sample_times: np.ndarray | None = None,
) -> list[Trajectory]:
    """Integrate an ensemble of streamlines on a common sample-time grid.

    Seeds are resolved against the signal support (``ensemble_seeds``).
    Trajectories never interact.  At gamma = 0 every member is solved at
    each sample time from the conservation of the probability to its left
    (see ``integrate_trajectory``), with no time stepping.  For gamma > 0
    they are advanced together with a shared adaptive step whose per-step
    error is bounded by ``tol`` for every member individually, and sample
    times are hit exactly by step clipping.  Failures are reported per
    trajectory through its status.
    """
    if state.signal is not None:
        seeds = ensemble_seeds(spec, state.signal)
    elif spec.seeding == "uniform":
        raise DomainError("uniform seeding requires a state with a known input signal")
    else:
        seeds = np.asarray(spec.seeds, dtype=float)
    return _integrate(state, seeds, t_end, params, tol, sample_times)


def _integrate(state, seeds, t_end, params, tol, sample_times) -> list[Trajectory]:
    if not np.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    _check_positions(seeds, state.cfg)

    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 257)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.ndim != 1 or sample_times.size < 1:
        raise DomainError("sample_times must be a non-empty 1-D array")
    if not np.all(np.isfinite(sample_times)):
        raise DomainError("sample_times must be finite")
    if np.any(np.diff(sample_times) <= 0.0):
        raise DomainError("sample_times must be strictly increasing")
    if sample_times[0] < 0.0 or sample_times[-1] > t_end * (1 + 1e-12):
        raise DomainError("sample_times must lie within [0, t_end]")

    if params is None or params.gamma == 0.0:
        xtol = float(tol) * 1e-2
        recorded, freeze_time = _quantile_batch(_Cumulative(state), seeds, sample_times, xtol)
    else:
        tau = revival_times(state.cfg).tau
        recorded, freeze_time = _integrate_batch(
            _VelocityField(state, params),
            seeds,
            sample_times,
            t_end=float(t_end),
            rtol=float(tol),
            atol=float(tol) * 1e-2,
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


def _quantile_batch(cumulative, x0, sample_times, xtol):
    """Coherent streamlines as quantiles: solve F(x, t_j) = F(x0, 0) per sample time.

    Same return pair as ``_integrate_batch``.  A seed whose density is below
    the node floor stops at t = 0; every other member completes.
    """
    n = x0.size
    recorded = np.full((sample_times.size, n), np.nan)
    freeze_time = np.full(n, np.inf)
    target, rho0 = cumulative(x0, 0.0)
    live = rho0 >= DENSITY_FLOOR
    freeze_time[~live] = 0.0
    x, target = x0[live], target[live]
    for j, t in enumerate(sample_times):
        if t <= 0.0:
            recorded[j] = x0
            continue
        if x.size:
            x = _solve_quantile(cumulative, x, target, float(t), xtol)
        recorded[j, live] = x
    return recorded, freeze_time


def _solve_quantile(cumulative, x, target, t, xtol):
    """Vectorized safeguarded Newton for F(x, t) = target, warm-started at ``x``.

    F increases with x (dF/dx = rho >= 0), so the sign of each residual
    shrinks a per-member bracket that starts as the whole box.  A member
    stops when its residual is at F's roundoff floor (x kept), when its
    Newton step is at most ``xtol`` (step taken, before the bracket test, so
    that a converged step rounding onto a bracket end is not undone), or
    when its bracket is narrower than ``xtol``.  A Newton step that leaves
    the bracket is replaced by bisection.
    """
    hw = cumulative.half_width
    x = x.copy()
    lo = np.full(x.size, -hw)
    hi = np.full(x.size, hw)
    # roundoff of F grows with the y tr(R) / L term
    floor_scale = 4.0 * np.finfo(float).eps * cumulative.total / (2.0 * hw)
    todo = np.arange(x.size)
    for _ in range(_QUANTILE_ITERATIONS):
        xi = x[todo]
        F, rho = cumulative(xi, t)
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

    The step is bounded only by the embedded error estimate, the next sample
    time and ``t_end``; ``h_start`` is the first step and the step after a
    member is frozen.  Returns the positions recorded at the sample times
    (NaN once a component is frozen) and the per-component freeze time (inf
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
    if bad.any():
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
        target = None
        if si < ns and sample_times[si] - t <= h * (1 + 1e-12):
            target = sample_times[si]
            h = target - t
            if h <= 0.0:
                recorded[si, active] = y[active]
                si += 1
                continue

        floor_mask = None
        for i in range(1, 7):
            yi = y + h * (_RK_A[i, :i] @ K[:i])
            K[i], bad = field(yi, t + _RK_C[i] * h)
            hit = bad & active
            if hit.any():
                floor_mask = hit
                break

        if floor_mask is not None:
            # node proximity: halve the step; at the floor, truncate the offenders
            if h <= h_floor:
                freeze_time[floor_mask] = t
                active &= ~floor_mask
                h = h_start
            else:
                h *= 0.5
            growth_cap = 1.0
            continue

        y5 = yi  # the last stage input is the 5th-order solution
        err = h * (_RK_E @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        ratios = np.abs(err) / scale
        enorm = float(ratios[active].max())

        if enorm <= 1.0:
            y = np.where(active, y5, y)
            over = active & (np.abs(y) > half_width)
            if over.any():
                # reflect roundoff-level overshoot back inside the box
                y = np.where(over, np.sign(y) * (2.0 * half_width) - y, y)
                K[0], _ = field(y, target if target is not None else t + h)
            else:
                K[0] = K[6]
            t = target if target is not None else t + h
            if target is not None:
                recorded[si, active] = y[active]
                si += 1
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
    return recorded, freeze_time


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
    if len(trajectories) < 2:
        return NoncrossingReport(ok=True)
    times = max((tr.times for tr in trajectories), key=np.size)
    for tr in trajectories:
        if not np.array_equal(tr.times, times[: tr.times.size]):
            raise DomainError("trajectories do not share a common sample-time grid")
    seeds = np.array([tr.x0 for tr in trajectories])
    if np.any(np.diff(seeds) <= 0.0):
        raise DomainError("trajectories must be ordered by strictly increasing seed")
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
