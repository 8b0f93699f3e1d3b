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
design per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

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
    spacing: str = "log",
) -> PurityCurve:
    """Sample the closed-form purity on [0, t_max].

    Log spacing (the default) concentrates samples on the initial falloff,
    which is where the fit needs resolution; t = 0 is always included.
    """
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise DomainError(f"purity curve t_max must be positive and finite, got {t_max!r}")
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 2:
        raise DomainError(f"purity curve samples must be an integer >= 2, got {samples!r}")
    if spacing == "log":
        times = np.concatenate([[0.0], np.geomspace(t_max / 1000.0, t_max, samples - 1)])
    elif spacing == "linear":
        times = np.linspace(0.0, t_max, samples)
    else:
        raise DomainError(f"spacing must be 'log' or 'linear', got {spacing!r}")
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


def _timescales(theta):
    # a log-timescale past ~709 overflows to an infinite timescale, whose
    # design column is the constant one: no warning, same values
    with np.errstate(over="ignore"):
        return np.exp(theta)


def _project(theta, dt, vals, floor):
    """Variable projection of the three-exponential fit at log-timescales ``theta``.

    The design is X = [1, E_1, E_2, E_3] with E_j = exp(-dt / s_j) and
    s_j = exp(theta_j), each s_j floored at ``floor``.  One thin SVD
    X = U S V^T, truncated at ``lstsq``'s default cutoff eps max(T, 4) s_max,
    gives the pseudo-inverse, so rank-deficient designs (an overflowed
    constant column, near-equal timescales) solve as ``lstsq`` solves them.
    Returns the coefficients c = X^+ y, the residual r = X c - y and its
    exact Jacobian in theta (Golub & Pereyra 1973),

        J_j = P_perp (D_j c_j) - (X^+)^T e_j (D_j^T r),   D_j = E_j dt / s_j,

    with P_perp = 1 - U U^T and D_j = 0 where the floor binds.
    """
    s = _timescales(theta)
    # the search may drive a timescale toward zero; floor it so the design
    # column degrades to a spike instead of NaNs, with zero derivative
    free = s >= floor
    rate = dt[:, None] / np.maximum(s, floor)
    X = np.ones((dt.size, 4))
    np.exp(-rate, out=X[:, 1:])
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    rank = np.count_nonzero(sv > np.finfo(float).eps * max(X.shape) * sv[0])
    U, Vt, inv = U[:, :rank], Vt[:rank], 1.0 / sv[:rank]
    c = Vt.T @ (inv * (U.T @ vals))
    r = X @ c - vals
    D = X[:, 1:] * rate * free
    Dc = D * c[1:]
    pinv_t = U @ (inv[:, None] * Vt[:, 1:])
    J = Dc - U @ (U.T @ Dc) - pinv_t * (r @ D)
    return c, r, J


def _check_restarts(restarts) -> int:
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise DomainError(f"fit restarts must be an integer >= 1, got {restarts!r}")
    return int(restarts)


def fit_purity(curve: PurityCurve, restarts: int = DEFAULT_FIT_RESTARTS, seed: int = 0) -> PurityFit:
    """Fit a baseline plus three exponentials to a purity curve.

    The onset time is pinned to the first sample, removing its degeneracy
    with the amplitudes.  Variable projection: for each candidate triple of
    log-timescales the baseline and amplitudes come from one SVD solve of
    the linear design, and Levenberg-Marquardt refines the log-timescales
    on the projected residual with its exact Golub-Pereyra Jacobian (no
    finite differences), restarted from jittered log-spaced initial
    guesses.  MINPACK asks for the residual and the Jacobian at the same
    point, so one cached projection serves both.  Raises ``DomainError``
    for a ``restarts`` count that is not an integer >= 1, and
    ``FitFailure`` (best candidate attached) when no restart produces a
    valid, strictly ordered fit.
    """
    restarts = _check_restarts(restarts)
    times = curve.times
    vals = curve.values
    if times.size < 50:
        raise DomainError(f"fit needs at least 50 samples, got {times.size}")
    t0 = float(times[0])
    dt = times - t0
    span = float(dt[-1])
    if (vals.max() - vals.min()) <= 1e-12 * max(vals.max(), 1e-300):
        raise FitFailure("curve shows no decay to fit")
    floor = span * 1e-12

    last = [None, None]

    def project(theta):
        if last[0] is None or not np.array_equal(theta, last[0]):
            last[:] = [theta.copy(), _project(theta, dt, vals, floor)]
        return last[1]

    rng = np.random.default_rng(seed)
    base = np.log(np.geomspace(span / 100.0, span, 3))
    best = None
    for i in range(restarts):
        theta0 = base if i == 0 else base + rng.uniform(-1.5, 1.5, size=3)
        # MINPACK's lmder, the solver and gtol of least_squares(method="lm"),
        # with the exact Jacobian; a NaN step makes the SVD fail, which ends
        # only this restart
        try:
            theta, _, info, _, _ = leastsq(
                lambda th: project(th)[1],
                theta0,
                Dfun=lambda th: project(th)[2],
                full_output=True,
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-8,
                maxfev=4000,
            )
        except np.linalg.LinAlgError:
            continue
        rms = float(np.sqrt(np.mean(info["fvec"] ** 2)))
        if best is None or rms < best[0]:
            best = (rms, theta)

    if best is None:
        raise FitFailure("no restart converged")
    rms, theta = best
    coef = project(theta)[0]
    ts = _timescales(theta)
    order = np.argsort(ts)
    ts = tuple(float(s) for s in ts[order])
    amps = tuple(float(a) for a in coef[1:][order])
    candidate = {"chi0": float(coef[0]), "amplitudes": amps, "timescales": ts, "t0": t0, "residual": rms}
    if not (0.0 < ts[0] < ts[1] < ts[2]):
        raise FitFailure("fitted timescales are degenerate", best=candidate)
    if coef[0] <= 0.0:
        raise FitFailure("fitted baseline is not positive", best=candidate)
    return PurityFit(chi0=float(coef[0]), amplitudes=amps, timescales=ts, t0=t0, residual=rms)


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
    N = _check_count(N)
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

    _check_restarts(restarts)

    g = DEFAULT_GAMMA if gamma is None else float(gamma)
    params = DecoherenceParams(gamma=g)
    span = span_tau * revival_times(cfg).tau
    rows = []
    for x0 in np.asarray(x0_values, dtype=float):
        try:
            spec = InputSignalSpec(kind=kind, x0=float(x0), w=w)
            state = decompose(spec, cfg, N)
            if renormalize:
                state = state.renormalized()
            chi_inf = purity_asymptote(state)
            fit = fit_purity(purity_curve(state, span, params, samples=samples), restarts=restarts, seed=seed)
            rows.append(
                SweepRow(
                    x0=float(x0),
                    chi_inf=chi_inf,
                    t1=fit.timescales[0],
                    t2=fit.timescales[1],
                    t3=fit.timescales[2],
                    residual=fit.residual,
                )
            )
        except (DomainError, FitFailure) as exc:
            rows.append(SweepRow(x0=float(x0), error=str(exc)))
    return rows
