"""Mode basis of a 1-D box cavity and spectral decomposition of input signals.

The cavity is an infinite square well of width L centered at x = 0.  Its
stationary modes are sinusoids indexed by a positive integer alpha; modes
with odd alpha are even about the center, modes with even alpha are odd.
An input signal released inside the cavity is represented by the vector of
its real projection coefficients onto that basis (a ``SpectralState``).

A signal is a weighted list of half-cosine lobes of width w
(``InputSignalSpec.lobes``): one lobe centered at x0, or the even mirror
pair at -x0 and +x0.  ``decompose`` sums one closed form over the lobes;
``decompose_numeric`` provides the quadrature route used to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import simpson_weights

# Relative detuning below which a mode is treated as exactly resonant with
# the signal wavenumber (removable singularity of the closed forms).
RESONANCE_RTOL = 1e-9

_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class CavityConfig:
    """Physical constants of the box: mass, action quantum, and width."""

    m: float = 1.0
    hbar: float = 1.0
    L: float = 50.0

    def __post_init__(self):
        for name in ("m", "hbar", "L"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise DomainError(f"CavityConfig.{name} must be positive and finite, got {value!r}")

    @property
    def half_width(self) -> float:
        return self.L / 2.0


@dataclass(frozen=True)
class Mode:
    """One stationary box mode: index, parity, wavenumber, and energy."""

    alpha: int
    parity: str
    k: float
    E: float


def mode(alpha: int, cfg: CavityConfig) -> Mode:
    """Build the mode with index ``alpha`` (1-based) for the given cavity."""
    alpha = _check_count(alpha, "mode index", 1)
    k = alpha * np.pi / cfg.L
    E = (cfg.hbar * k) ** 2 / (2.0 * cfg.m)
    parity = "even" if alpha % 2 == 1 else "odd"
    return Mode(alpha=alpha, parity=parity, k=k, E=E)


def eigenenergy(alpha: int, cfg: CavityConfig) -> float:
    """Energy of mode ``alpha``: (hbar * pi * alpha)^2 / (2 m L^2)."""
    alpha = _check_count(alpha, "mode index", 1)
    return (cfg.hbar * np.pi * alpha / cfg.L) ** 2 / (2.0 * cfg.m)


def eigenmode(md: Mode, x, cfg: CavityConfig):
    """Evaluate a normalized box mode at position(s) ``x``.

    Even-parity modes are sqrt(2/L) cos(kx), odd-parity sqrt(2/L) sin(kx).
    Positions outside [-L/2, L/2] raise ``DomainError``.
    """
    xv = _check_positions(x, cfg)
    amp = np.sqrt(2.0 / cfg.L)
    if md.parity == "even":
        out = amp * np.cos(md.k * xv)
    else:
        out = amp * np.sin(md.k * xv)
    return out if np.ndim(x) else float(out)


def mode_values(alphas: np.ndarray, x, cfg: CavityConfig) -> np.ndarray:
    """Matrix of mode amplitudes, shape (len(x), len(alphas))."""
    xv = np.atleast_1d(_check_positions(x, cfg))
    phi, _ = _ModeBasis(alphas, cfg.L)(xv)
    return phi


def mode_slopes(alphas: np.ndarray, x, cfg: CavityConfig) -> np.ndarray:
    """Matrix of spatial derivatives of the modes, same shape as mode_values."""
    xv = np.atleast_1d(_check_positions(x, cfg))
    _, dphi = _ModeBasis(alphas, cfg.L)(xv)
    return dphi


class _ModeBasis:
    """Sin/cos evaluator of a fixed set of modes and their slopes.

    The parity case (all even, all odd or mixed) and the amplitudes are
    resolved once here, because evaluation sits on the hot path of every
    density, density-matrix and velocity sum.
    """

    def __init__(self, alphas: np.ndarray, L: float):
        alphas = np.asarray(alphas, dtype=int)
        self.k = alphas * (np.pi / L)
        even = alphas % 2 == 1
        self.amp = np.sqrt(2.0 / L)
        if even.all():
            self.parity = "even"
            self.slope = -self.amp * self.k
        else:
            self.parity = "odd" if not even.any() else "mixed"
            self.slope = self.amp * self.k
        self.even = even

    def __call__(self, xv: np.ndarray):
        # Hot path: no validation, callers guarantee positions inside the box.
        arg = xv[:, None] * self.k[None, :]
        s = np.sin(arg)
        c = np.cos(arg)
        if self.parity == "even":
            return self.amp * c, self.slope * s
        if self.parity == "odd":
            return self.amp * s, self.slope * c
        return self.amp * np.where(self.even, c, s), np.where(self.even, -s, c) * self.slope


@dataclass(frozen=True)
class InputSignalSpec:
    """Shape of the injected signal: half-cosine lobes of width w.

    ``single``: one lobe centered at x0.
    ``double``: the even superposition of lobes centered at -x0 and +x0.
    Everything kind-specific follows from the lobe list ``lobes``.
    """

    kind: str = "single"
    x0: float = 0.0
    w: float = 10.0

    def __post_init__(self):
        if self.kind not in ("single", "double"):
            raise DomainError(f"signal kind must be 'single' or 'double', got {self.kind!r}")
        if not np.isfinite(self.w) or self.w <= 0.0:
            raise DomainError(f"signal width w must be positive, got {self.w!r}")
        if not np.isfinite(self.x0):
            raise DomainError(f"signal center x0 must be finite, got {self.x0!r}")

    @property
    def k0(self) -> float:
        """Internal wavenumber of the half-cosine profile, pi / w."""
        return np.pi / self.w

    @property
    def lobes(self) -> tuple[tuple[float, float], ...]:
        """(center, weight) of each lobe; the weights keep the signal normalized."""
        if self.kind == "single":
            return ((self.x0, 1.0),)
        return ((-self.x0, _SQRT_HALF), (self.x0, _SQRT_HALF))

    def center_range(self, cfg: CavityConfig) -> tuple[float, float]:
        """Smallest and largest valid nonnegative x0 for this kind and width."""
        # mirror lobes at -x0 and +x0 sit 2 x0 apart
        smallest = 0.0 if len(self.lobes) == 1 else self.w / 2.0
        return smallest, cfg.half_width - self.w / 2.0

    def validate(self, cfg: CavityConfig) -> None:
        """Check that every lobe fits inside the box and neighbouring lobes do not overlap."""
        limit = self.center_range(cfg)[1]
        centers = [c for c, _ in self.lobes]
        for c in centers:
            if abs(c) > limit:
                raise DomainError(
                    f"{self.kind} signal truncated by the walls: a lobe at {c} needs "
                    f"|center| <= L/2 - w/2 = {limit} (x0={self.x0})"
                )
        for left, right in zip(centers, centers[1:]):
            if right - left < self.w:
                raise DomainError(
                    f"{self.kind} signal lobes overlap: centers {left} and {right} are closer "
                    f"than w = {self.w} (x0={self.x0})"
                )

    def support(self) -> tuple[tuple[float, float], ...]:
        """Intervals where the signal is nonzero, one per lobe."""
        h = self.w / 2.0
        return tuple((c - h, c + h) for c, _ in self.lobes)


def input_signal(spec: InputSignalSpec, x) -> np.ndarray:
    """Sample the signal profile at positions ``x`` (zero outside its support)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xv)
    amp = np.sqrt(2.0 / spec.w)
    for c, weight in spec.lobes:
        mask = np.abs(xv - c) <= spec.w / 2.0
        out[mask] += weight * amp * np.cos(np.pi * (xv[mask] - c) / spec.w)
    return out if np.ndim(x) else float(out)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Real mode coefficients of a signal over a truncated basis.

    Coefficients are signed reals (relative phases of 0 or pi are absorbed
    into the sign); the array is frozen after construction.  ``signal``
    records the originating profile when one is known.
    """

    cfg: CavityConfig
    coeffs: np.ndarray
    signal: InputSignalSpec | None = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("coefficients must form a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def N(self) -> int:
        return self.coeffs.size

    @property
    def alphas(self) -> np.ndarray:
        return np.arange(1, self.N + 1)

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.alphas * (np.pi / self.cfg.L)

    @property
    def energies(self) -> np.ndarray:
        return (self.cfg.hbar * self.wavenumbers) ** 2 / (2.0 * self.cfg.m)

    @property
    def populations(self) -> np.ndarray:
        return self.coeffs**2

    def renormalized(self) -> "SpectralState":
        """Rescale the retained coefficients to unit norm."""
        norm2 = float(np.sum(self.coeffs**2))
        if norm2 <= 0.0:
            raise DomainError("cannot renormalize a state with zero norm")
        return SpectralState(self.cfg, self.coeffs / np.sqrt(norm2), self.signal)


def norm_deficit(state: SpectralState) -> float:
    """Probability lost to truncation: 1 - sum of populations, in [0, 1]."""
    deficit = 1.0 - float(np.sum(state.populations))
    if deficit < -1e-12:
        raise DomainError(f"state norm exceeds unity by {-deficit:.3e}")
    return max(deficit, 0.0)


def decompose(spec: InputSignalSpec, cfg: CavityConfig, N: int = 50) -> SpectralState:
    """Closed-form coefficients of a signal: the weighted sum of its lobes.

    A lobe centered at c projects onto mode alpha as
    4 / sqrt(w L) * k0 / (k0^2 - k_alpha^2) * trig(k_alpha c) * cos(k_alpha w / 2),
    with k0 = pi/w and trig the mode's cos (even parity) or sin (odd parity).
    Modes resonant with the lobe (alpha * w equal to L) take the limit
    sqrt(w/L) * trig(k0 c) instead.
    """
    spec.validate(cfg)
    N = _check_count(N, "mode count N", 1)
    alphas = np.arange(1, N + 1)
    even = alphas % 2 == 1
    ka = alphas * np.pi / cfg.L
    k0 = spec.k0
    resonant = np.abs(alphas * spec.w - cfg.L) < RESONANCE_RTOL * cfg.L
    # the resonant entries of the detuned form are discarded; 1 avoids 0/0
    detuning = np.where(resonant, 1.0, k0**2 - ka**2)
    terms = []
    for c, weight in spec.lobes:
        trig = np.where(even, np.cos(ka * c), np.sin(ka * c))
        detuned = 4.0 / np.sqrt(spec.w * cfg.L) * k0 / detuning * trig * np.cos(ka * spec.w / 2.0)
        at_resonance = np.sqrt(spec.w / cfg.L) * np.where(even, np.cos(k0 * c), np.sin(k0 * c))
        terms.append(weight * np.where(resonant, at_resonance, detuned))
    # starting from the first term (not from zeros) keeps the sign of -0.0
    return SpectralState(cfg, sum(terms[1:], terms[0]), spec)


def decompose_numeric(x: np.ndarray, signal: np.ndarray, cfg: CavityConfig, N: int = 50) -> SpectralState:
    """Project sampled signal values onto the mode basis by Simpson quadrature.

    This is the oracle route: it never touches the closed forms.  The samples
    must lie on a uniform grid inside the box with at least 3 points; the
    signal is taken as zero outside the sampled range.
    """
    x = np.asarray(x, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.shape != signal.shape:
        raise DomainError("positions and signal samples must be matching 1-D arrays")
    if x.size < 3:
        raise DomainError("numeric decomposition needs at least 3 sample points")
    _check_positions(x, cfg)
    N = _check_count(N, "mode count N", 1)
    weights = simpson_weights(x)
    phi = mode_values(np.arange(1, N + 1), x, cfg)
    coeffs = phi.T @ (weights * signal)
    return SpectralState(cfg, coeffs, None)


def oracle_grid(cfg: CavityConfig, points: int = 4001) -> np.ndarray:
    """Uniform box-spanning grid used for quadrature cross-checks."""
    if points < 3:
        raise DomainError("oracle grid needs at least 3 points")
    return np.linspace(-cfg.half_width, cfg.half_width, points)


def _check_count(value, what: str, least: int) -> int:
    """``value`` as a Python int, once it is checked to be an integer >= ``least``.

    Python and numpy integers pass; a bool, a float (also 3.0) or a string
    does not.  ``what`` names the value in the error message.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value!r}")
    return int(value)


def _check_positions(x, cfg: CavityConfig):
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)):
        raise DomainError("positions must be finite")
    if np.any(np.abs(xv) > cfg.half_width):
        worst = float(np.max(np.abs(xv)))
        raise DomainError(f"position outside the box: |x| = {worst} exceeds L/2 = {cfg.half_width}")
    return xv
