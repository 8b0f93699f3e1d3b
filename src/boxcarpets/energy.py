"""Energy-domain observables: purity decay, its triple-exponential fit,
correlation matrices, and the pair decay-time map.

The purity Tr(rho^2) of a damped state decays from (sum p)^2 toward
chi_inf = sum p^2 (``purity``).  Decay curves are summarized by a
baseline plus three exponentials with distinct timescales (``fit_purity``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decoherence import DecoherenceParams, _check_params
from .errors import DomainError, FitFailure
from .spectral import (CavityConfig, InputSignalSpec, SpectralState, _beat_unit, _check_array, _check_axis,
                       _check_bool, _check_count, _check_real, _check_spec, _check_times, _is_real, decompose,
                       revival_times)

_MIN_FIT_SAMPLES = 50


@dataclass(frozen=True)
class FitSpec:
    """The fit's purity curve, ``samples`` >= 50 times over ``span_tau`` times
    tau, and its starts, all but the first jittered from ``seed``.
    ``restarts`` caps the restarts that ``_fit_restarts`` runs."""

    span_tau: float = 10.0
    samples: int = 200
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "span_tau", _check_real(self.span_tau, "fit span_tau", 0, strict=True))
        for name, least in (("samples", _MIN_FIT_SAMPLES), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_count(getattr(self, name), f"fit {name}", least))


def purity(state: SpectralState, t, params: DecoherenceParams):
    """Closed-form purity at time(s) ``t``; spatial damping does not enter.

        chi(t) = sum_a p_a^2 + 2 sum_{a<b} p_a p_b exp(-2 beta_ab t)

    With the modes in order of energy the kernel exp(-2 beta_ab t) is
    semiseparable: it is the product of the damping factors of the steps
    between neighbouring populated modes.  So one forward sweep,
    S_b = (S_{b-1} + p_{b-1}) exp(-2 gamma t omega_{b-1,b}), carries
    S_b = sum_{a<b} p_a exp(-2 beta_ab t) for all times at once, and
    chi = sum p^2 + 2 p . S in O(N) per time instead of O(N^2).  A step
    whose damping underflows to zero restarts the sum.
    """
    _check_spec(state, SpectralState, "purity state")
    t_arr = _check_times(t if np.ndim(t) else [t], "purity times")
    p = state.populations
    alpha = state.alphas[p != 0.0]
    p = p[alpha - 1]
    # damping of each step between neighbouring populated modes, one row per step
    rates = (2.0 * _check_params(params).gamma * _beat_unit(state.cfg)) * np.diff(alpha**2)
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
    _check_spec(state, SpectralState, "purity-asymptote state")
    return float(np.sum(state.populations**2))


@dataclass(frozen=True, eq=False)
class PurityCurve:
    """Sampled purity decay: strictly increasing times, nonincreasing values."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _check_axis(self.times, "purity curve times", least=2)
        v = _check_array(self.values, "purity curve values")
        if t.shape != v.shape or t[0] < 0.0:
            raise DomainError("purity curve needs nonnegative times and one value for each")
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
    the fit needs resolution.  A curve that is never fit may have fewer
    than ``FitSpec``'s 50 samples, so this takes no ``FitSpec``.  Any other
    sampling is ``PurityCurve(times, purity(state, times, params))``.
    """
    _check_spec(state, SpectralState, "purity curve state")
    t_max = _check_real(t_max, "purity curve t_max", 0, strict=True)
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
        _check_real(self.chi0, "fit baseline")
        _check_real(self.t0, "fit onset t0", 0)
        _check_real(self.residual, "fit residual", 0)
        for name in ("amplitudes", "timescales"):
            values = getattr(self, name)
            if not (isinstance(values, tuple) and len(values) == 3 and all(map(_is_real, values))):
                raise DomainError(f"fit {name} must be a tuple of three real numbers, got {values!r}")
        ts = tuple(_check_real(s, "fit timescale") for s in self.timescales)
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


# problems per stacked projection, so that a block's working set stays in
# cache.  Its temporaries grow with _BLOCK x samples.  Measured on the default
# sweep (41 centers, 200 samples) on a 2-vCPU host: blocks of 64 peaked at
# 2.4 MiB of heap, with ~9,600 minor page faults a sweep as freed blocks went
# back to the OS, in 171 ms; blocks of 16 at 1.0 MiB, with almost none, in
# 145 ms; blocks of 8 took 161 ms.  At 4,000 samples: 44 MiB and 1.55 s at 64,
# 17 MiB and 1.23 s at 16.  Problems in a stack are independent, so the size
# changes no output bit.
_BLOCK = 16
# MINPACK lmder's convergence tolerances and evaluation cap per problem
_XTOL = _FTOL = 1e-14
_GTOL = 1e-8
_MAX_EVALS = 4000
# restarts per round and relative agreement tolerance of ``_fit_restarts``
_ROUND = 2
_AGREE = 1e-9


def _timescales(theta):
    # a log-timescale past ~709 overflows to an infinite timescale, whose
    # design column is the constant one: no warning, same values
    with np.errstate(over="ignore"):
        return np.exp(theta)


def _finite_rms(rms, theta):
    """``rms`` with NaN for each restart whose timescales are not all finite:
    one that could not be factored, or whose slowest timescale overflowed and
    so has a second constant design column."""
    return np.where(np.all(np.isfinite(_timescales(theta)), axis=-1), rms, np.nan)


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
    if curve.times.size < _MIN_FIT_SAMPLES:
        raise DomainError(f"fit needs at least {_MIN_FIT_SAMPLES} samples, got {curve.times.size}")
    vals = curve.values
    if (vals.max() - vals.min()) <= 1e-12 * max(vals.max(), 1e-300):
        raise FitFailure("curve shows no decay to fit")


def _fit_restarts(curves: list[PurityCurve], restarts: int, seed: int):
    """Up to ``restarts`` restarts of every curve, in pairs.

    The curves must share their sample count.  Restart 0 starts at
    log-spaced timescales over the curve's span, the others at jittered
    copies drawn from ``seed``.  Round k runs the pair of restarts 2k and
    2k + 1, the last round what is left under the cap, as one
    Levenberg-Marquardt batch over the curves not yet finished.  A curve
    finishes after a round in which at least 2 of its restarts so far with
    finite timescales (``_finite_rms``) lie within ``_AGREE`` (relative) of
    its best rms.  Problems in a batch are independent, so a curve that runs
    every round gets the bits of one batch of all its restarts.  Returns per
    curve, for the restarts that ran, in order, the rms (n,), log-timescales
    (n, 3) and coefficients (n, 4), NaN for a restart whose design could not
    be factored.
    """
    if not curves:
        return []
    dt = np.stack([c.times - c.times[0] for c in curves])
    vals = np.stack([c.values for c in curves])
    span = dt[:, -1]
    jitter = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(restarts - 1, 3))
    starts = np.vstack([np.zeros(3), jitter])
    base = np.log(np.geomspace(span / 100.0, span, 3, axis=1))
    n = len(curves)
    rms = np.full((n, restarts), np.nan)
    theta, coef = np.full((n, restarts, 3), np.nan), np.full((n, restarts, 4), np.nan)
    ran, active = np.full(n, restarts), np.arange(n)
    for lo in range(0, restarts, _ROUND):
        hi = min(lo + _ROUND, restarts)
        theta0 = (base[active, None, :] + starts[lo:hi]).reshape(-1, 3)
        th, c, F = _levenberg_marquardt(theta0, np.repeat(active, hi - lo), dt, vals, span * 1e-12)
        rms[active, lo:hi] = np.sqrt(F / dt.shape[1]).reshape(len(active), -1)
        theta[active, lo:hi] = th.reshape(len(active), -1, 3)
        coef[active, lo:hi] = c.reshape(len(active), -1, 4)
        # NaN never agrees; fmin skips it silently
        seen = _finite_rms(rms[active, :hi], theta[active, :hi])
        best = np.fmin.reduce(seen, axis=1)
        agree = np.count_nonzero(seen - best[:, None] <= _AGREE * best[:, None], axis=1) >= 2
        ran[active[agree]] = hi
        active = active[~agree]
        if not active.size:
            break
    return [(rms[i, :k], theta[i, :k], coef[i, :k]) for i, k in enumerate(ran)]


def _best_fit(t0: float, rms, theta, coef) -> PurityFit:
    """The fit of the restart with the smallest rms, the first on ties; one that
    ``PurityFit`` rejects is a ``FitFailure`` with the candidate attached.
    Restarts without finite timescales (``_finite_rms``) are skipped."""
    rms = _finite_rms(rms, theta)
    if np.all(np.isnan(rms)):
        raise FitFailure("no restart converged")
    best = int(np.nanargmin(rms))
    ts = _timescales(theta[best])
    order = np.argsort(ts)
    ts = tuple(float(s) for s in ts[order])
    amps = tuple(float(a) for a in coef[best, 1:][order])
    chi0 = float(coef[best, 0])
    candidate = {"chi0": chi0, "amplitudes": amps, "timescales": ts, "t0": t0, "residual": float(rms[best])}
    try:
        return PurityFit(**candidate)
    except DomainError as exc:
        raise FitFailure(str(exc), best=candidate) from None


def fit_purity(curve: PurityCurve, fit: FitSpec = FitSpec()) -> PurityFit:
    """Fit a baseline plus three exponentials to a purity curve.

    The onset time is pinned to the first sample, removing its degeneracy
    with the amplitudes.  The fit is a variable projection (``_project``)
    minimized by ``_levenberg_marquardt`` from the restarts of
    ``_fit_restarts``, and ``_best_fit`` picks the winner.  Raises
    ``DomainError`` for a ``fit`` that is not a ``FitSpec``, and
    ``FitFailure`` (best candidate attached) when no restart produces a
    valid, strictly ordered fit.
    """
    _check_spec(curve, PurityCurve, "fitted curve")
    _check_spec(fit, FitSpec, "fit settings")
    _check_fittable(curve)
    (result,) = _fit_restarts([curve], fit.restarts, fit.seed)
    return _best_fit(float(curve.times[0]), *result)


def correlation_matrix(state: SpectralState) -> np.ndarray:
    """Mode-pair correlation matrix c_a c_a' (the t = 0 coherences)."""
    _check_spec(state, SpectralState, "correlation-matrix state")
    return np.outer(state.coeffs, state.coeffs)


def decay_time_map(cfg: CavityConfig, params: DecoherenceParams, N: int = 50) -> np.ndarray:
    """Pair decay times 1 / ``beta``; the diagonal never decays (inf).

    Independent of any input signal: only the mode energies and
    ``params.gamma`` enter, and gamma = 0 is a ``DomainError``.
    """
    _check_spec(cfg, CavityConfig, "decay-time map cavity")
    gamma = _check_real(_check_params(params).gamma, "decay-time map gamma", 0, strict=True)
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
    signal: InputSignalSpec,
    centers,
    cfg: CavityConfig,
    params: DecoherenceParams,
    fit: FitSpec = FitSpec(),
    N: int = 50,
    renormalize: bool = False,
) -> list[SweepRow]:
    """Asymptotic purity and fitted decay times across signal centers.

    Each row moves ``signal`` to one of the 1-D ``centers`` and fits its
    curve as ``fit_purity`` does, with the restarts of every center in one
    ``_fit_restarts`` call.  The purity depends on ``params.gamma`` alone.
    ``renormalize``, a bool, rescales each truncated state to unit norm, as
    ``RunConfig.renormalize`` does for the other products.  A truncated or
    overlapping center, or a failed fit, gets an error row and the sweep
    continues; any other bad argument raises ``DomainError`` before any
    center is computed.  Deterministic for fixed inputs.
    """
    _check_spec(signal, InputSignalSpec, "sweep signal")
    _check_spec(fit, FitSpec, "fit settings")
    _check_spec(cfg, CavityConfig, "sweep cavity")
    _check_params(params)
    N = _check_count(N, "mode count N", 1)
    renormalize = _check_bool(renormalize, "sweep renormalize")
    centers = _check_array(centers, "sweep centers")
    if centers.ndim != 1:
        raise DomainError(f"sweep centers must be a 1-D array, got shape {centers.shape}")
    span = fit.span_tau * revival_times(cfg).tau
    rows: list[SweepRow | None] = []
    pending = []
    for x0 in centers.tolist():
        try:
            state = decompose(replace(signal, x0=x0), cfg, N)
            if renormalize:
                state = state.renormalized()
            chi_inf = purity_asymptote(state)
            curve = purity_curve(state, span, params, samples=fit.samples)
            _check_fittable(curve)
        except (DomainError, FitFailure) as exc:
            rows.append(SweepRow(x0=x0, error=str(exc)))
            continue
        pending.append((len(rows), x0, chi_inf, curve))
        rows.append(None)
    # a center whose fit fails gets an error row
    fits = _fit_restarts([curve for *_, curve in pending], fit.restarts, fit.seed)
    for (i, x0, chi_inf, curve), result in zip(pending, fits):
        try:
            best = _best_fit(float(curve.times[0]), *result)
        except FitFailure as exc:
            rows[i] = SweepRow(x0=x0, error=str(exc))
            continue
        t1, t2, t3 = best.timescales
        rows[i] = SweepRow(x0=x0, chi_inf=chi_inf, t1=t1, t2=t2, t3=t3, residual=best.residual)
    return rows
