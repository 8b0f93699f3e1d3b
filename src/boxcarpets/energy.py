"""Energy-domain observables: purity decay, its triple-exponential fit,
correlation matrices, and the pair decay-time map.

The purity Tr(rho^2) of a damped state has the closed form

    chi(t) = sum_a p_a^2 + 2 sum_{a'<a} p_a p_a' exp(-2 beta_aa' t),

which decays from (sum p)^2 toward chi_inf = sum p^2.  With the modes in
order of energy the kernel exp(-2 beta_aa' t) is semiseparable: it is the
product of the damping factors of the steps between neighbouring modes.  So
one forward sweep, S_b = (S_{b-1} + p_{b-1}) exp(-2 gamma t omega_{b-1,b}),
gives S_b = sum_{a<b} p_a exp(-2 beta_ab t) and chi = sum p^2 + 2 p . S in
O(N) per time instead of O(N^2).  The step beats omega come from the exact
integer alpha_b^2 - alpha_{b-1}^2 times ``decoherence._beat_unit``, the same
unit as ``beta``; a step whose damping underflows to zero restarts the sum.
A quadrature route integrating |rho(x, x'; t)|^2 over the box square
provides the independent cross-check.  Decay curves are summarized by
fitting a baseline plus three exponentials with distinct timescales.  The
fit is a variable projection (Golub & Pereyra 1973): the baseline and
amplitudes are the least-squares solution of the linear design for given
log-timescales, and Levenberg-Marquardt moves the log-timescales on the
projected residual with its exact Jacobian, both from one SVD of the
design per point.  The Levenberg-Marquardt program is plain numpy and
steps many problems at once: every restart of a fit, and in a sweep every
restart of every center, with the designs factored as stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceParams, _beat_unit, density_matrix_grid
from .errors import DomainError, FitFailure
from .evolution import revival_times
from .quadrature import simpson_weights
from .spectral import CavityConfig, InputSignalSpec, SpectralState, decompose, _check_count

DEFAULT_FIT_RESTARTS = 20


def purity(state: SpectralState, t, params: DecoherenceParams):
    """Closed-form purity at time(s) ``t``; spatial damping does not enter.

    One forward sweep over the populated modes, in order of energy, carries
    S_b(t) = sum_{a<b} p_a exp(-2 beta_ab t) for all times at once; then
    chi = sum p^2 + 2 p . S.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0) or not np.all(np.isfinite(t_arr)):
        raise DomainError("purity times must be nonnegative and finite")
    p = state.populations
    alpha = state.alphas[p != 0.0]
    p = p[alpha - 1]
    # damping of each step between neighbouring populated modes, from the
    # exact integer beat alpha_b^2 - alpha_{b-1}^2; one row per step
    rates = (2.0 * params.gamma * _beat_unit(state.cfg)) * np.diff(alpha**2)
    damping = np.multiply.outer(-rates, t_arr)
    np.exp(damping, out=damping)
    S = np.zeros((p.size, t_arr.size))
    for b in range(1, p.size):
        np.add(S[b - 1], p[b - 1], out=S[b])
        S[b] *= damping[b - 1]
    out = purity_asymptote(state) + 2.0 * (p @ S)
    return out if np.ndim(t) else float(out[0])


def purity_asymptote(state: SpectralState) -> float:
    """Long-time purity limit, the sum of squared populations."""
    return float(np.sum(state.populations**2))


def purity_via_quadrature(
    state: SpectralState, t: float, params: DecoherenceParams, points: int = 400
) -> float:
    """Oracle purity: Simpson quadrature of |rho(x, x'; t)|^2 over the box square.

    The spatial damping term is excluded (the closed form has none), so only
    ``params.gamma`` enters.
    """
    x = np.linspace(-state.cfg.half_width, state.cfg.half_width, points)
    bare = DecoherenceParams(gamma=params.gamma, lam=0.0, lambda_mode="off")
    grid = density_matrix_grid(state, x, x, t, bare)
    w = simpson_weights(x)
    return float(w @ np.abs(grid.values) ** 2 @ w)


@dataclass(frozen=True, eq=False)
class PurityCurve:
    """Sampled purity decay: strictly increasing times, nonincreasing values."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise DomainError("purity curve needs matching 1-D time and value arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("purity curve times and values must be finite")
        if np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
            raise DomainError("purity curve times must be nonnegative and strictly increasing")
        if np.any(v <= 0.0) or np.any(v > 1.0 + 1e-9):
            raise DomainError("purity values must lie in (0, 1]")
        if np.any(np.diff(v) > 1e-12):
            raise DomainError("purity values must be nonincreasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def purity_curve(
    state: SpectralState,
    t_max: float,
    params: DecoherenceParams,
    samples: int = 200,
) -> PurityCurve:
    """Sample the closed-form purity at t = 0 and log-spaced on [t_max/1000, t_max].

    Log spacing concentrates samples on the initial falloff, which is where
    the fit needs resolution.  Any other sampling is
    ``PurityCurve(times, purity(state, times, params))``.
    """
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise DomainError(f"purity curve t_max must be positive and finite, got {t_max!r}")
    samples = _check_count(samples, "purity curve samples", 2)
    times = np.concatenate([[0.0], np.geomspace(t_max / 1000.0, t_max, samples - 1)])
    return PurityCurve(times=times, values=purity(state, times, params))


@dataclass(frozen=True)
class PurityFit:
    """Baseline plus three decaying exponentials summarizing a purity curve."""

    chi0: float
    amplitudes: tuple[float, float, float]
    timescales: tuple[float, float, float]
    t0: float
    residual: float

    def __post_init__(self):
        ts = self.timescales
        if not (0.0 < ts[0] < ts[1] < ts[2]):
            raise DomainError("fit timescales must be positive and strictly increasing")
        if self.chi0 <= 0.0:
            raise DomainError("fit baseline must be positive")

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.chi0)
        for amp, scale in zip(self.amplitudes, self.timescales):
            out = out + amp * np.exp(-(t - self.t0) / scale)
        return out


# problems per stacked projection, so that a block's designs stay in cache
_BLOCK = 64
# MINPACK lmder's convergence tolerances and evaluation cap per problem
_XTOL = _FTOL = 1e-14
_GTOL = 1e-8
_MAX_EVALS = 4000


def _timescales(theta):
    # a log-timescale past ~709 overflows to an infinite timescale, whose
    # design column is the constant one: no warning, same values
    with np.errstate(over="ignore"):
        return np.exp(theta)


def _factor(X):
    """Thin SVDs of the stacked tall designs ``X`` (R, T, 4), and which succeeded.

    A stacked SVD fails as a whole when one of its matrices does not
    converge, so a failed stack is factored again one design at a time; the
    designs that still fail get NaN factors.
    """
    try:
        U, sv, Vt = np.linalg.svd(X, full_matrices=False)
        return U, sv, Vt, np.ones(len(X), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    R, T, k = X.shape
    U, sv, Vt = np.full((R, T, k), np.nan), np.full((R, k), np.nan), np.full((R, k, k), np.nan)
    ok = np.zeros(R, dtype=bool)
    for i in range(R):
        try:
            U[i], sv[i], Vt[i] = np.linalg.svd(X[i], full_matrices=False)
        except np.linalg.LinAlgError:
            continue
        ok[i] = True
    return U, sv, Vt, ok


def _project(theta, dt, vals, floor):
    """Variable projection of the three-exponential fit, for a stack of problems.

    Row i of ``theta`` (R, 3) holds log-timescales for the curve with time
    offsets ``dt[i]`` and values ``vals[i]`` (R, T), with its timescales
    floored at ``floor[i]``; ``dt`` may also be one (T,) row and ``floor``
    one number, shared by all.  The design is X = [1, E_1, E_2, E_3] with
    E_j = exp(-dt / s_j) and s_j = exp(theta_j).  One thin SVD X = U S V^T
    per row, truncated at ``lstsq``'s default cutoff eps max(T, 4) s_max,
    gives the pseudo-inverse, so rank-deficient designs (an overflowed
    constant column, near-equal timescales) solve as ``lstsq`` solves them.
    Returns the coefficients c = X^+ y (R, 4), the residual r = X c - y
    (R, T), its exact Jacobian in theta (R, 3, T) (Golub & Pereyra 1973),

        J_j = P_perp (D_j c_j) - (X^+)^T e_j (D_j^T r),   D_j = E_j dt / s_j,

    with P_perp = 1 - U U^T and D_j = 0 where the floor binds, and the mask
    (R,) of rows whose SVD converged; the other rows are NaN.  Time is the
    last, contiguous axis of every array.
    """
    s = _timescales(theta)[:, :, None]
    floor = np.reshape(floor, (-1, 1, 1))
    # the search may drive a timescale toward zero; floor it so the design
    # column degrades to a spike instead of NaNs, with zero derivative
    rate = np.asarray(dt)[..., None, :] / np.maximum(s, floor)
    X = np.empty((len(theta), 4, vals.shape[-1]))
    X[:, 0] = 1.0
    np.exp(np.negative(rate, out=X[:, 1:]), out=X[:, 1:])
    U, sv, Vt, ok = _factor(X.transpose(0, 2, 1))
    keep = sv > np.finfo(float).eps * max(X.shape[1:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    Ut = U.transpose(0, 2, 1)
    c = (Vt.transpose(0, 2, 1) @ (inv[:, :, None] * (Ut @ vals[:, :, None])))[:, :, 0]
    r = (c[:, None, :] @ X)[:, 0] - vals
    D = X[:, 1:] * rate
    D *= s >= floor
    Dr = D @ r[:, :, None]
    Dc = np.multiply(D, c[:, 1:, None], out=D)
    # both subtracted terms lie in the range of U:
    # U ((U^T Dc)_kept + (V S^+)[1:]^T (D r)) = U U^T Dc + (X^+)^T (D r)
    coef = (Dc @ U) * keep[:, None, :] + (Vt[:, :, 1:] * inv[:, :, None]).transpose(0, 2, 1) * Dr
    J = np.subtract(Dc, coef @ Ut, out=Dc)
    return c, r, J, ok


def _evaluate(theta, curve, dt, vals, floor):
    """Project problem i at ``theta[i]`` on curve ``curve[i]``, in blocks of
    ``_BLOCK``; returns c, F = |r|^2, A = J J^T, g = J r and the SVD mask."""
    n = len(theta)
    c, F, A, g = np.empty((n, 4)), np.empty(n), np.empty((n, 3, 3)), np.empty((n, 3))
    ok = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        k = curve[b]
        c[b], r, J, ok[b] = _project(theta[b], dt[k], vals[k], floor[k])
        F[b] = np.einsum("rt,rt->r", r, r)
        A[b] = J @ J.transpose(0, 2, 1)
        g[b] = (J @ r[:, :, None])[:, :, 0]
    return c, F, A, g, ok


def _solve_spd3(M, b):
    """Solve the stacked symmetric 3 x 3 systems M x = b by their adjugates;
    a singular system gives a non-finite x, never an exception."""
    m00, m01, m02, m11, m12, m22 = (M[:, i, j] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    a00, a01, a02 = m11 * m22 - m12 * m12, m02 * m12 - m01 * m22, m01 * m12 - m02 * m11
    a11, a12, a22 = m00 * m22 - m02 * m02, m01 * m02 - m00 * m12, m00 * m11 - m01 * m01
    adj = np.stack([a00, a01, a02, a01, a11, a12, a02, a12, a22], axis=1).reshape(-1, 3, 3)
    det = m00 * a00 + m01 * a01 + m02 * a02
    with np.errstate(divide="ignore", invalid="ignore"):
        return (adj @ b[:, :, None])[:, :, 0] / det[:, None]


def _gtol_met(A, g, F):
    """MINPACK's gtol test: every column of J is nearly orthogonal to r."""
    norms = np.sqrt(np.diagonal(A, axis1=1, axis2=2) * F[:, None])
    return np.max(np.abs(g) / np.maximum(norms, np.finfo(float).tiny), axis=1) <= _GTOL


def _levenberg_marquardt(theta, curve, dt, vals, floor):
    """Minimize the projected residual of every problem at once.

    Problem i starts at ``theta[i]`` (P, 3) and fits curve ``curve[i]`` of
    the stacked ``dt``, ``vals`` (C, T) and ``floor`` (C,).  Each step
    solves (A + mu S^2) d = -g with More's scaling S, the largest column
    norms of J seen so far, and updates the damping mu as Nielsen does.  A
    problem leaves the batch at MINPACK's xtol, ftol or gtol test or after
    ``_MAX_EVALS`` projections; between steps it keeps only theta, c,
    F = |r|^2, A = J J^T and g = J r.  A non-finite trial step is rejected
    before it is factored; a design whose SVD fails retires its problem
    alone.  Returns theta (P, 3), c (P, 4) and F (P,), NaN for the retired.
    """
    P = len(theta)
    out_theta, out_c, out_F = np.full((P, 3), np.nan), np.full((P, 4), np.nan), np.full(P, np.nan)
    theta = np.array(theta, dtype=float)
    c, F, A, g, ok = _evaluate(theta, curve, dt, vals, floor)
    # a column of J that starts at zero gets unit scale, as in MINPACK
    scale = np.sqrt(np.diagonal(A, axis1=1, axis2=2))
    scale = np.where(scale == 0.0, 1.0, scale)
    # Nielsen's initial damping tau max(diag A) with tau = 1, his choice for
    # starts far from the minimum; the scaled diagonal is 1
    mu, nu, evals = np.full(P, 1.0), np.full(P, 2.0), np.ones(P, dtype=int)
    batch = (np.arange(P), curve, theta, c, F, A, g, scale, mu, nu, evals)
    stop, failed = _gtol_met(A, g, F), ~ok
    while True:
        ids, curve, theta, c, F, A, g, scale, mu, nu, evals = batch
        done = stop & ~failed
        out_theta[ids[done]], out_c[ids[done]], out_F[ids[done]] = theta[done], c[done], F[done]
        keep = ~(stop | failed)
        if not keep.any():
            return out_theta, out_c, out_F
        if not keep.all():
            batch = tuple(x[keep] for x in batch)
            ids, curve, theta, c, F, A, g, scale, mu, nu, evals = batch
        # the damped step in scaled variables: (S^-1 A S^-1 + mu) d = -S^-1 g
        M = A / (scale[:, :, None] * scale[:, None, :]) + mu[:, None, None] * np.eye(3)
        gs = g / scale
        step = _solve_spd3(M, -gs)
        trial = theta + step / scale
        at = np.flatnonzero(np.all(np.isfinite(trial), axis=1))
        c1, F1, A1, g1 = np.empty_like(c), np.full_like(F, np.inf), np.empty_like(A), np.empty_like(g)
        ok = np.ones(len(F), dtype=bool)
        c1[at], F1[at], A1[at], g1[at], ok[at] = _evaluate(trial[at], curve[at], dt, vals, floor)
        predicted = np.einsum("rj,rj->r", step, mu[:, None] * step - gs)
        actual = F - F1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = actual / predicted
            stop = (np.abs(actual) <= _FTOL * F) & (predicted <= _FTOL * F) & (ratio <= 2.0)
            accept = ratio > 0.0
            mu = np.where(accept, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), mu * nu)
        nu = np.where(accept, 2.0, 2.0 * nu)
        theta[accept], c[accept], F[accept], A[accept], g[accept] = (
            trial[accept], c1[accept], F1[accept], A1[accept], g1[accept])
        scale = np.maximum(scale, np.sqrt(np.diagonal(A, axis1=1, axis2=2)))
        evals = evals + 1
        stop |= np.linalg.norm(step, axis=1) <= _XTOL * np.linalg.norm(scale * theta, axis=1)
        stop |= evals >= _MAX_EVALS
        # MINPACK tests the gradient at every new point
        stop |= accept & _gtol_met(A, g, F)
        failed = ~ok
        batch = (ids, curve, theta, c, F, A, g, scale, mu, nu, evals)


def _check_fittable(curve: PurityCurve) -> None:
    if curve.times.size < 50:
        raise DomainError(f"fit needs at least 50 samples, got {curve.times.size}")
    vals = curve.values
    if (vals.max() - vals.min()) <= 1e-12 * max(vals.max(), 1e-300):
        raise FitFailure("curve shows no decay to fit")


def _fit_restarts(curves: list[PurityCurve], restarts: int, seed: int):
    """Every restart of every curve in one Levenberg-Marquardt batch.

    The curves must share their sample count.  Restart 0 starts at
    log-spaced timescales over the curve's span, the others at jittered
    copies drawn from ``seed``.  Returns per curve the rms (restarts,),
    log-timescales (restarts, 3) and coefficients (restarts, 4), NaN for a
    restart whose design could not be factored.
    """
    if not curves:
        return []
    dt = np.stack([c.times - c.times[0] for c in curves])
    vals = np.stack([c.values for c in curves])
    span = dt[:, -1]
    jitter = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(restarts - 1, 3))
    starts = np.vstack([np.zeros(3), jitter])
    base = np.log(np.geomspace(span / 100.0, span, 3, axis=1))
    theta0 = (base[:, None, :] + starts).reshape(-1, 3)
    curve = np.repeat(np.arange(len(curves)), restarts)
    theta, coef, F = _levenberg_marquardt(theta0, curve, dt, vals, span * 1e-12)
    rms = np.sqrt(F / dt.shape[1])
    split = np.arange(restarts, len(theta0), restarts)
    return list(zip(np.split(rms, split), np.split(theta, split), np.split(coef, split)))


def _best_fit(t0: float, rms, theta, coef) -> PurityFit:
    """The checked fit of the restart with the smallest rms, the first on ties."""
    if np.all(np.isnan(rms)):
        raise FitFailure("no restart converged")
    best = int(np.nanargmin(rms))
    ts = _timescales(theta[best])
    order = np.argsort(ts)
    ts = tuple(float(s) for s in ts[order])
    amps = tuple(float(a) for a in coef[best, 1:][order])
    chi0 = float(coef[best, 0])
    candidate = {"chi0": chi0, "amplitudes": amps, "timescales": ts, "t0": t0, "residual": float(rms[best])}
    if not (0.0 < ts[0] < ts[1] < ts[2]):
        raise FitFailure("fitted timescales are degenerate", best=candidate)
    if chi0 <= 0.0:
        raise FitFailure("fitted baseline is not positive", best=candidate)
    return PurityFit(**candidate)


def fit_purity(curve: PurityCurve, restarts: int = DEFAULT_FIT_RESTARTS, seed: int = 0) -> PurityFit:
    """Fit a baseline plus three exponentials to a purity curve.

    The onset time is pinned to the first sample, removing its degeneracy
    with the amplitudes.  Variable projection: for each candidate triple of
    log-timescales the baseline and amplitudes come from one SVD solve of
    the linear design, and Levenberg-Marquardt refines the log-timescales
    on the projected residual with its exact Golub-Pereyra Jacobian (no
    finite differences), taken from the same SVD.  All ``restarts``, from
    jittered log-spaced initial guesses, step together as one batch, and
    the restart with the smallest rms wins.  Raises ``DomainError`` for a
    ``restarts`` count that is not an integer >= 1, and ``FitFailure``
    (best candidate attached) when no restart produces a valid, strictly
    ordered fit.
    """
    restarts = _check_count(restarts, "fit restarts", 1)
    _check_fittable(curve)
    (result,) = _fit_restarts([curve], restarts, seed)
    return _best_fit(float(curve.times[0]), *result)


def correlation_matrix(state: SpectralState) -> np.ndarray:
    """Mode-pair correlation matrix c_a c_a' (the t = 0 coherences)."""
    return np.outer(state.coeffs, state.coeffs)


def decay_time_map(cfg: CavityConfig, gamma: float, N: int = 50) -> np.ndarray:
    """Pair decay times 1 / beta_aa'; the diagonal never decays (inf).

    Independent of any input signal: only the mode energies and gamma enter.
    The rates are ``beta``'s, gamma times the exact integer beat
    |alpha'^2 - alpha^2| in units of ``_beat_unit``.
    """
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise DomainError(f"decay-time map requires gamma > 0, got {gamma!r}")
    N = _check_count(N, "mode count N", 1)
    square = np.arange(1, N + 1) ** 2
    with np.errstate(divide="ignore"):
        times = 1.0 / (gamma * _beat_unit(cfg) * np.abs(square[:, None] - square[None, :]))
    np.fill_diagonal(times, np.inf)
    return times


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry: asymptotic purity and fitted timescales at a center x0."""

    x0: float
    chi_inf: float = np.nan
    t1: float = np.nan
    t2: float = np.nan
    t3: float = np.nan
    residual: float = np.nan
    error: str | None = None


def sweep_x0(
    kind: str,
    x0_values,
    cfg: CavityConfig,
    N: int = 50,
    gamma: float | None = None,
    w: float = 10.0,
    span_tau: float = 10.0,
    samples: int = 200,
    restarts: int = DEFAULT_FIT_RESTARTS,
    seed: int = 0,
    renormalize: bool = False,
) -> list[SweepRow]:
    """Asymptotic purity and fitted decay times across signal centers.

    ``renormalize`` rescales each truncated state to unit norm, as
    ``RunConfig.renormalize`` does for the other products.  Invalid centers
    (truncated or overlapping signals) produce an error row and the sweep
    continues; a bad ``restarts`` count raises ``DomainError`` before any
    center is computed.  Deterministic for fixed inputs.
    """
    from .decoherence import DEFAULT_GAMMA

    _check_count(restarts, "fit restarts", 1)

    g = DEFAULT_GAMMA if gamma is None else float(gamma)
    params = DecoherenceParams(gamma=g)
    span = span_tau * revival_times(cfg).tau
    rows: list[SweepRow | None] = []
    pending = []
    for x0 in np.asarray(x0_values, dtype=float):
        try:
            spec = InputSignalSpec(kind=kind, x0=float(x0), w=w)
            state = decompose(spec, cfg, N)
            if renormalize:
                state = state.renormalized()
            chi_inf = purity_asymptote(state)
            curve = purity_curve(state, span, params, samples=samples)
            _check_fittable(curve)
        except (DomainError, FitFailure) as exc:
            rows.append(SweepRow(x0=float(x0), error=str(exc)))
            continue
        pending.append((len(rows), float(x0), chi_inf, curve))
        rows.append(None)
    # every restart of every valid center in one batch; a center whose fit
    # fails gets an error row
    fits = _fit_restarts([curve for *_, curve in pending], restarts, seed)
    for (i, x0, chi_inf, curve), result in zip(pending, fits):
        try:
            fit = _best_fit(float(curve.times[0]), *result)
        except FitFailure as exc:
            rows[i] = SweepRow(x0=x0, error=str(exc))
            continue
        t1, t2, t3 = fit.timescales
        rows[i] = SweepRow(x0=x0, chi_inf=chi_inf, t1=t1, t2=t2, t3=t3, residual=fit.residual)
    return rows
