"""Effective Markovian coherence damping for states evolving in the box.

Each mode pair (alpha, alpha') loses mutual coherence at a rate
beta = gamma * |E' - E| / hbar, so pairs with larger energy separation decay
faster; gamma is a dimensionless control knob.  An optional spatial term
exp(-Lambda (x - x')^2 t) additionally suppresses two-point correlations in
the position representation, with Lambda either given explicitly or set to
the standard localization rate 2 pi hbar / (m L^3).

The energy term leaves the energy populations untouched (no dissipation),
so the probability density relaxes toward the bare population mixture
``asymptotic_density`` instead of localizing.  The spatial term does not
keep the populations: it leaves the density on x = x' untouched and keeps
rho a density matrix (a Schur product with a positive definite kernel equal
to 1 on the diagonal), so its position purity is at most the energy purity;
but it adds hbar^2 Lambda t / m of energy per unit trace, because it
localizes without dissipating.

At gamma = 0, Lambda = 0 or t = 0 every damping factor of ``_PairKernel``,
``_BeatSeries`` and ``density_matrix_grid`` is exactly 1, so the damped
products give the coherent bits.  The one zero-rate path is the velocity at
fixed points (``flow._velocity_rows``): at gamma = 0 it sums psi and its
slope, not the beat series, since |psi|^2 keeps its relative accuracy where
the density is small.  So ``velocity_map`` at gamma = 0 and at 1e-300
differs, by ~1e-9 of max|v| where the density is above 1e-6 of its row
maximum.

Pairs decay faster the further apart their levels are, so a damped row of
the beat series folds only the pairs whose damping is above a rounding
cut: together the dropped ones move the density by at most one double
epsilon of its mean Sum c^2 / L (``_BeatSeries``).  A series is built for
the times of one call and forms only the pairs within the cut's horizon
at the smallest positive time; every row at t > 0 keeps the bits of the
fold over all pairs.  The t = 0 row folds no pair: it is the
autocorrelation of the coefficients, which moves the t = 0 row of the
default density carpets by at most 1.74e-20 of their CSV file's largest
magnitude (the time axis) against the pair fold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import (CavityConfig, SpectralState, _beat_unit, _check_array, _check_count, _check_positions,
                       _check_real, _check_spec, _check_times, _ModeBasis)

#: Damping control reproducing beta * tau = (alpha'^2 - alpha^2) / 10.
DEFAULT_GAMMA = 2.0 / (5.0 * np.pi)


def localization_rate(cfg: CavityConfig) -> float:
    """Standard spatial localization rate for this cavity, 2 pi hbar / (m L^3)."""
    _check_spec(cfg, CavityConfig, "localization-rate cavity")
    return 2.0 * np.pi * cfg.hbar / (cfg.m * cfg.L**3)


@dataclass(frozen=True)
class DecoherenceParams:
    """Damping controls: energy-pair rate ``gamma`` and spatial rate ``lam``.

    ``lam`` is a nonnegative real (0 disables the spatial term) or the
    string 'formula', which takes the cavity's ``localization_rate``.
    """

    gamma: float = 0.0
    lam: float | str = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _check_real(self.gamma, "gamma", 0))
        if not (isinstance(self.lam, str) and self.lam == "formula"):
            object.__setattr__(self, "lam", _check_real(self.lam, "lambda", 0))

    def effective_lambda(self, cfg: CavityConfig) -> float:
        return localization_rate(cfg) if self.lam == "formula" else self.lam


def _check_params(params) -> DecoherenceParams:
    """The damping model of a public call; anything else, None included, is a ``DomainError``."""
    if not isinstance(params, DecoherenceParams):
        raise DomainError(f"damping model must be a DecoherenceParams, got {params!r}")
    return params


def beta(alpha: int, alpha_prime: int, params: DecoherenceParams, cfg: CavityConfig) -> float:
    """Coherence decay rate of the (alpha, alpha') pair, gamma * |E' - E| / hbar."""
    a = _check_count(alpha, "mode index", 1)
    b = _check_count(alpha_prime, "mode index", 1)
    _check_spec(cfg, CavityConfig, "beta cavity")
    return _check_params(params).gamma * _beat_unit(cfg) * abs(b**2 - a**2)


# ----------------------------------------------------------------------
# Pair-sum evaluation machinery shared by densities and velocity fields
# ----------------------------------------------------------------------


#: Density below which the velocity hbar/m * flux / density is set to 0 (a node).
DENSITY_FLOOR = 1e-12


def _flux_ratio(hm: float, num: np.ndarray, den: np.ndarray):
    """Velocity hbar/m * num / den, and the mask of node-floor points where it is set to 0."""
    bad = den < DENSITY_FLOOR
    v = hm * num / np.where(bad, 1.0, den)
    v[bad] = 0.0
    return v, bad


class _PairKernel:
    """Damped pair matrix of one state over its support modes, and its reductions.

    ``kernel(t)`` returns M_ab(t) = c_a c_b exp(-i (E_a - E_b) t / hbar)
    exp(-gamma t |E_a - E_b| / hbar); the density matrix keeps the whole of
    M.  The integrators reduce M at points that move on every call, at any
    gamma.  ``velocity`` reduces Re M and Im M against the support modes
    and slopes at the points, and returns the velocities together with a
    mask of positions whose density sits below the node floor (velocity
    forced to zero there).  ``cumulative`` is the probability F(x, t) to the
    left of x and its density.  With y = x + L/2, R = Re M(t) and
    B_ab = A_ab / k_b, where A_ab = 1/(k_a - k_b) - 1/(k_a + k_b) off the
    diagonal and 0 on it,

        F = y tr(R) / L - sum_a R_aa phi_a phi'_a / (2 k_a^2) + sum_ab phi_a (R o B)_ab phi'_b

    and dF/dx = rho = phi R phi^T.  The energy damping leaves the diagonal
    of R at c^2 for every t and gamma, so F(L/2) = tr R is conserved.
    Everything that does not depend on t is formed once per state.
    """

    def __init__(self, state: SpectralState, gamma: float):
        cfg = state.cfg
        alpha = state.support
        self.c = state.coeffs[alpha - 1]
        self.basis = _ModeBasis(alpha, cfg.L)
        self.Eh = state.energies[alpha - 1] / cfg.hbar
        self.gamma = gamma
        # complex once here, so that no call casts it again
        self.W = np.outer(self.c, self.c).astype(complex)
        self.absdEh = _beat_unit(cfg) * np.abs(alpha[:, None] ** 2 - alpha[None, :] ** 2)
        self.hm = cfg.hbar / cfg.m
        k = self.basis.k
        with np.errstate(divide="ignore"):
            A = 1.0 / (k[:, None] - k[None, :]) - 1.0 / (k[:, None] + k[None, :])
        np.fill_diagonal(A, 0.0)
        self.B = A / k[None, :]
        self.diag = self.c**2 / (2.0 * k**2)
        self.total = float(np.sum(self.c**2))  # tr R, conserved
        self.half_width = cfg.half_width
        self._t = None

    def __call__(self, t: float) -> np.ndarray:
        z = np.exp(-1j * self.Eh * t)
        M = z[:, None] * z.conj()
        M *= np.exp((-self.gamma * t) * self.absdEh)
        M *= self.W
        return M

    def velocity(self, x: np.ndarray, t: float):
        phi, dphi = self.basis(x)
        M = self(t)
        den = ((phi @ np.ascontiguousarray(M.real)) * phi).sum(axis=1)
        num = ((dphi @ np.ascontiguousarray(M.imag)) * phi).sum(axis=1)
        return _flux_ratio(self.hm, num, den)

    def cumulative(self, x: np.ndarray, t: float):
        if t != self._t:
            R = self(t).real
            # one product gives both reductions: [R | R o B]
            self._RB = np.hstack([R, R * self.B])
            self._t = t
        phi, dphi = self.basis(x)
        n = self.diag.size
        P = phi @ self._RB
        rho = (P[:, :n] * phi).sum(axis=1)
        y = x + self.half_width
        F = y * (self.total / (2.0 * self.half_width)) - (phi * dphi) @ self.diag
        F += (P[:, n:] * dphi).sum(axis=1)
        return F, rho


# double epsilon: the rounding cut of ``_BeatSeries`` is this share of the mean density
_EPS = 2.0**-52


class _BeatSeries:
    """The pair matrix of one state folded onto its beat wavenumbers, for the times of one call.

    With theta = pi (x + L/2) / L every mode is
    phi_a = s_a sqrt(2/L) sin(alpha_a theta), s_a = (-1)^floor(alpha_a / 2),
    so products of two modes are cosines of the beat wavenumbers
    n = alpha_b -+ alpha_a, and

        rho = sum_n C_n(t) cos(n theta),   sum_ab phi'_a Im M_ab phi_b = sum_n S_n(t) sin(n theta)

    for n = 0 .. 2 alpha_max.  Each support pair a < b, with
    w = (2/L) s_a s_b c_a c_b and the damped phase q = exp(-gamma omega t)
    (cos omega t, sin omega t), omega = (E_b - E_a) / hbar, adds w q_cos to
    C at alpha_b - alpha_a, subtracts it at alpha_a + alpha_b, and adds
    w q_sin (k_a + k_b) / 2 to S at alpha_b - alpha_a and w q_sin (k_a - k_b) / 2
    at alpha_a + alpha_b; the populations add c_a^2 / L to C_0 and
    subtract it at 2 alpha_a.  A row costs one fold over the pairs plus one
    product with a table built once per grid (``tables``).

    The pairs are sorted by omega (``_pair_order``), so at rate = gamma t > 0
    the pairs with rate omega > ``cut`` form a tail that is skipped.  A
    skipped pair moves rho by at most 2 |w| exp(-cut), and
    sum_{a<b} |w_ab| = ((sum |c|)^2 - sum c^2) / L, so

        cut = ln(2 sum |w| / (eps base_0)),   base_0 = sum c^2 / L,

    with eps = 2^-52 keeps the sum of all skipped density terms below one
    epsilon of the mean density base_0.  A skipped pair moves the flux
    numerator by at most |w| exp(-cut) max(k_a, k_b), so the skipped flux
    terms sum to at most k_max eps base_0 / 2, k_max the largest support
    wavenumber.  A state with fewer than two populated modes has no pairs
    and an infinite cut.

    So a series is built for the ``times`` of its call: only the pairs with
    omega up to the horizon cut / (gamma t_min), t_min the smallest
    positive time, are formed (``_support_pairs``), and at gamma = 0 the
    horizon is infinite.  They are the first pairs of the one stable order
    of all pairs, so every row at t > 0 folds the same pairs in the same
    order whichever other times come with it; a row at a positive time
    below t_min would miss pairs.  At t = 0 every phase is 0, and the pair
    sums are the autocorrelation and the self-convolution of the signed
    coefficients s_a c_a on the mode-index axis (``resting``): no pair is
    folded, and the row differs from the pair fold in rounding only.
    """

    def __init__(self, state: SpectralState, gamma: float, times: np.ndarray):
        cfg = state.cfg
        alpha = state.support
        c = state.coeffs[alpha - 1]
        sc = np.where(alpha // 2 % 2 == 0, c, -c)
        self.size = 2 * int(alpha.max(initial=0)) + 1
        # s_a c_a at index alpha_a of the mode-index axis 0 .. alpha_max
        self.signed = np.zeros(self.size // 2 + 1)
        self.signed[alpha] = sc
        self.base = np.zeros(self.size)
        self.base[0] = np.sum(c**2) / cfg.L
        self.base[2 * alpha] = -(c**2) / cfg.L
        # sum |w| over a < b, as a sum of nonnegative terms: the closed form
        # ((sum |c|)^2 - sum c^2) / L cancels when one mode dominates
        s = np.abs(c)
        pair_weight = (2.0 / cfg.L) * float(s[1:] @ np.cumsum(s)[:-1])
        self.cut = float(np.log(2.0 * pair_weight / self.base[0]) - np.log(_EPS)) if pair_weight else np.inf
        self.gamma = gamma
        self.half_width = cfg.half_width
        positive = times[times > 0.0]
        if positive.size:
            rate = gamma * float(positive.min())
            horizon = self.cut / rate if rate else np.inf
        else:
            horizon = 0.0  # only t = 0 rows, which fold no pair
        unit = _beat_unit(cfg)
        a, b = _support_pairs(alpha, horizon / unit)
        beat, order = _pair_order(alpha[b] ** 2 - alpha[a] ** 2, alpha.size)
        omega = unit * beat
        p = int(np.searchsorted(omega, horizon, side="right"))
        a, b = a[order[:p]], b[order[:p]]
        self.omega = omega[:p]
        self.minus = alpha[b] - alpha[a]
        self.plus = alpha[a] + alpha[b]
        self.w = (2.0 / cfg.L) * sc[a] * sc[b]

    def coefficients(self, t: float, flux: bool = False):
        """C(t), and with ``flux`` also S(t), each of length ``size``."""
        if t == 0.0:
            C = self.resting()
            return (C, np.zeros(self.size)) if flux else C
        omega, minus, plus, w = self.omega, self.minus, self.plus, self.w
        rate = self.gamma * t
        if rate:  # the pairs past the rounding cut, rate omega > cut, are skipped
            p = int(np.searchsorted(omega, self.cut / rate, side="right"))
            omega, minus, plus = omega[:p], minus[:p], plus[:p]
            w = w[:p] * np.exp(-rate * omega)
        phase = omega * t
        q = np.cos(phase) * w
        C = self.base + np.bincount(minus, q, self.size) - np.bincount(plus, q, self.size)
        if not flux:
            return C
        q = np.sin(phase) * w
        # (k_a + k_b) / 2 = half_k (alpha_a + alpha_b), (k_a - k_b) / 2 = -half_k (alpha_b - alpha_a)
        half_k = np.pi / (4.0 * self.half_width)
        S = half_k * (np.bincount(minus, q * plus, self.size) - np.bincount(plus, q * minus, self.size))
        return C, S

    def resting(self) -> np.ndarray:
        """C(0), where every pair adds w at alpha_b - alpha_a and subtracts it at alpha_a + alpha_b.

        With v the signed coefficients on the mode-index axis, the first
        sums are (2/L) sum_i v_i v_(i+n), the autocorrelation at lag n >= 1.
        The self-convolution (v * v)_n sums the pairs a < b with
        alpha_a + alpha_b = n twice and c_a^2 at n = 2 alpha_a once, so
        -(v * v) / L is the pairs' negative terms and the populations'
        -c_a^2 / L together.
        """
        v = self.signed
        if np.count_nonzero(v) < 2:
            return self.base.copy()
        L = 2.0 * self.half_width
        C = np.convolve(v, v) / -L
        C[0] = self.base[0]
        C[1:v.size] += (2.0 / L) * np.correlate(v, v, "full")[v.size:]
        return C

    def tables(self, x: np.ndarray, flux: bool = False):
        """Tables of shape (size, len(x)): rho = C @ table, and with ``flux``
        the flux numerator is S @ sine.

        Each point is evaluated from its nearer wall, where the carpet has a
        node.  Left of the center rho = -2 sum_n C_n sin^2(n theta / 2),
        since sum_n C_n = 0.  Right of it, with theta_w = pi (L/2 - x) / L,
        cos(n theta) = (-1)^n cos(n theta_w), sum_n (-1)^n C_n = 0 and
        sin(n theta) = -(-1)^n sin(n theta_w).  So the density and flux
        near a wall are sums of small terms, not cancellations of order-one
        ones.  The sines of the multiples of theta / 2 and theta are built
        by angle addition (``_sine_rows``).
        """
        right = x > 0.0
        half = np.where(right, self.half_width - x, x + self.half_width) * (np.pi / (4.0 * self.half_width))
        table = _sine_rows(self.size, half)
        np.square(table, out=table)
        table *= -2.0
        odd = table[1::2]
        np.negative(odd, out=odd, where=right)
        if not flux:
            return table
        sine = _sine_rows(self.size, 2.0 * half)
        even = sine[0::2]
        np.negative(even, out=even, where=right)
        return table, sine


def _support_pairs(alpha: np.ndarray, limit: float):
    """Index pairs a < b of the support ``alpha`` whose beat alpha_b^2 - alpha_a^2
    is at most ``limit``, and a few rounding units past it, in the row-major
    order of ``np.triu_indices``.

    The support is increasing, so each row a takes one run of b, found by
    one ``searchsorted`` on alpha^2; no pair further out is formed.
    """
    n = alpha.size
    square = alpha**2
    rows = np.arange(n)
    bound = limit * (1.0 + 2.0**-49) + 1.0
    if n and bound < square[-1] - square[0]:
        stop = np.searchsorted(square, square + int(bound), side="right")
    else:
        stop = np.full(n, n)
    counts = stop - rows - 1
    a = np.repeat(rows, counts)
    # b = a + 1 + (position of the pair in its row's run)
    b = np.arange(a.size) - np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
    return a, b


def _pair_order(beat: np.ndarray, modes: int):
    """The pair beats in increasing order, and the permutation that sorts them.

    Ties keep their pair order, as in a stable argsort: with P = beat.size
    the keys beat * P + i, i = 0 .. P - 1, are distinct, so one sort of the
    keys gives both, order = key % P and beat = key // P.  The keys are
    formed in place: an int64 ``beat`` is overwritten by the sorted beats.
    The largest key, (max beat + 1) P - 1, must fit in int64; ``modes``
    names the populated-mode count whose keys do not.
    """
    pairs = beat.size
    if pairs and (int(beat.max()) + 1) * pairs > 2**63:
        raise DomainError(f"{modes} populated modes: the beat sort keys of their {pairs} pairs overflow int64")
    key = beat.astype(np.int64, copy=False)
    key *= pairs
    key += np.arange(pairs)
    key.sort()
    order = key % pairs
    key //= pairs
    return key, order


# multiples of an angle per block of the angle-addition sine table
_ANGLE_BLOCK = 40


def _sine_rows(size: int, h: np.ndarray) -> np.ndarray:
    """sin(n h) for n = 0 .. size - 1, one row per n, by angle addition.

    With n = B q + r, B = ``_ANGLE_BLOCK``, a = B q h and b = r h,
    sin(n h) = sin a + (cos a sin b - sin a 2 sin^2(b / 2)), so sin and cos
    run on B + size / B rows instead of sin on size rows.  Like sin(n h)
    itself, sin a carries the rounding of the product B q h; the bracket
    adds a few roundings of numbers no larger than |sin b| + b^2 / 2.  The
    first block (q = 0) is sin(r h) exactly.
    """
    b = np.arange(min(size, _ANGLE_BLOCK), dtype=float)[:, None] * h
    sin_b = np.sin(b)
    vers_b = np.sin(0.5 * b)
    np.square(vers_b, out=vers_b)
    vers_b *= 2.0
    a = np.arange(0, size, _ANGLE_BLOCK, dtype=float)[:, None] * h
    sin_a, cos_a = np.sin(a), np.cos(a)
    out = np.empty((size, h.size))
    scratch = np.empty_like(sin_b)
    for q, start in enumerate(range(0, size, _ANGLE_BLOCK)):
        rows = out[start:start + _ANGLE_BLOCK]
        m = rows.shape[0]
        np.multiply(sin_b[:m], cos_a[q], out=rows)
        np.multiply(vers_b[:m], sin_a[q], out=scratch[:m])
        rows -= scratch[:m]
        rows += sin_a[q]
    return out


# rows per matrix product of ``_row_blocks``
_ROW_BLOCK = 32


def _row_blocks(rows, tables):
    """Products of coefficient rows with per-grid tables, in fixed-shape blocks.

    ``rows`` yields, per row, one coefficient vector for each of ``tables``.
    For each block of up to ``_ROW_BLOCK`` consecutive rows this yields
    (start, stop, products), products[k] holding the rows start .. stop - 1
    of coefficients_k @ tables[k].  They are views of buffers that the next
    block overwrites.  Each block is copied into one reusable, zero-padded
    (_ROW_BLOCK, size) buffer per table, so every product has one shape and
    a row's bits do not depend on which rows, or how many, come with it.
    """
    coeffs = [np.zeros((_ROW_BLOCK, table.shape[0])) for table in tables]
    products = [np.empty((_ROW_BLOCK, table.shape[1])) for table in tables]
    rows = iter(rows)
    start = 0
    while True:
        m = 0
        for row in itertools.islice(rows, _ROW_BLOCK):
            for buffer, c in zip(coeffs, row):
                buffer[m] = c
            m += 1
        if m == 0:
            return
        for buffer, product, table in zip(coeffs, products, tables):
            buffer[m:] = 0.0
            np.matmul(buffer, table, out=product)
        yield start, start + m, [product[:m] for product in products]
        start += m


def density_map(
    state: SpectralState, x: np.ndarray, times: np.ndarray, params: DecoherenceParams = DecoherenceParams()
) -> np.ndarray:
    """Damped pair-sum density on the (t, x) grid; row j holds the profile at times[j].

    Sums populations plus all pairwise coherence terms as a beat-wavenumber
    series (``_BeatSeries``); the spatial damping rate ``params.lam`` never
    enters because the density lives on the x = x' diagonal.  The rows are
    reduced in blocks of ``_ROW_BLOCK`` (``_row_blocks``), so row j has the
    same bits whatever other times come with times[j], and in whatever order.
    """
    _check_spec(state, SpectralState, "density map state")
    xv = _check_positions(x, state.cfg)
    times = _check_times(times)
    series = _BeatSeries(state, _check_params(params).gamma, times)
    out = np.empty((times.size, xv.size))
    coefficients = ((series.coefficients(float(t)),) for t in times)
    for start, stop, (rho,) in _row_blocks(coefficients, (series.tables(xv),)):
        out[start:stop] = rho
    return _clamp_density(out)


def asymptotic_density(state: SpectralState, x):
    """Long-time density: the populations' share of the density series.

    That is the bare population-weighted sum of squared modes, the
    ``_BeatSeries.base`` coefficients alone, reduced by ``_row_blocks`` like
    a ``density_map`` row.  So every ``density_map`` row at a time where
    each pair's damping is past the rounding cut equals it bit for bit.
    """
    _check_spec(state, SpectralState, "asymptotic density state")
    xv = _check_positions(x, state.cfg)
    series = _BeatSeries(state, 0.0, np.zeros(0))
    _, _, (rho,) = next(_row_blocks([(series.base,)], (series.tables(xv),)))
    rho = _clamp_density(rho[0].copy())
    return rho if np.ndim(x) else float(rho[0])


@dataclass(frozen=True, eq=False)
class DensityMatrixGrid:
    """Position-representation density matrix sampled on an (x, x') grid."""

    x: np.ndarray
    x_prime: np.ndarray
    t: float
    values: np.ndarray

    def __post_init__(self):
        x, x_prime = _check_array(self.x, "density-matrix x"), _check_array(self.x_prime, "density-matrix x_prime")
        t = _check_real(self.t, "density-matrix t", 0)
        v = np.asarray(self.values)
        if v.shape != (x.size, x_prime.size):
            raise DomainError("density-matrix values must have shape (len(x), len(x_prime))")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_prime", x_prime)
        object.__setattr__(self, "t", t)


def density_matrix_grid(
    state: SpectralState,
    x: np.ndarray,
    x_prime: np.ndarray,
    t: float,
    params: DecoherenceParams,
) -> DensityMatrixGrid:
    """Evaluate rho(x, x'; t) on the tensor grid of the two position axes.

    The mode sum carries the pair phases and energy damping (``_PairKernel``);
    the spatial damping factorizes out as exp(-Lambda (x - x')^2 t) on the grid.
    """
    _check_spec(state, SpectralState, "density matrix state")
    t = _check_real(t, "time", 0)
    xv = _check_positions(x, state.cfg)
    xpv = _check_positions(x_prime, state.cfg)
    kernel = _PairKernel(state, _check_params(params).gamma)
    phi_x, _ = kernel.basis(xv)
    phi_xp, _ = kernel.basis(xpv)
    # a state with no nonzero coefficient has a zero-length mode axis: a zero grid
    values = phi_x @ kernel(t) @ phi_xp.T
    values *= np.exp(-params.effective_lambda(state.cfg) * t * (xv[:, None] - xpv[None, :]) ** 2)
    return DensityMatrixGrid(xv, xpv, t, values)


def _clamp_density(rho: np.ndarray) -> np.ndarray:
    low = float(rho.min()) if rho.size else 0.0
    if low < -1e-12:
        raise DomainError(f"density evaluation produced {low:.3e}; inconsistent state")
    return np.maximum(rho, 0.0, out=rho)
