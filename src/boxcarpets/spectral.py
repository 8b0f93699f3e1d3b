"""Mode basis of a 1-D box cavity and spectral decomposition of input signals.

The cavity is an infinite square well of width L centered at x = 0.  Its
stationary modes are sinusoids indexed by a positive integer alpha; modes
with odd alpha are even about the center, modes with even alpha are odd.
Their energies fix the beat unit ``_beat_unit`` and the revival times.
An input signal released inside the cavity is represented by the vector of
its real projection coefficients onto that basis (a ``SpectralState``).

A signal is a weighted list of half-cosine lobes of width w
(``InputSignalSpec.lobes``): one lobe centered at x0, or the even mirror
pair at -x0 and +x0.  ``decompose`` sums one closed form over the lobes.

Every real argument of the package is checked here: scalars by
``_check_real``, arrays by ``_check_array`` (positions and times build on
it), integer counts by ``_check_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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
            object.__setattr__(self, name, _check_real(getattr(self, name), f"CavityConfig.{name}", 0, strict=True))

    @property
    def half_width(self) -> float:
        return self.L / 2.0


@dataclass(frozen=True)
class RevivalTimes:
    """Full revival period and the single-parity recurrence time tau."""

    t_revival: float
    tau: float


def revival_times(cfg: CavityConfig) -> RevivalTimes:
    """T_rev = 4 m L^2 / (pi hbar) and tau = T_rev / 8."""
    _check_spec(cfg, CavityConfig, "revival-times cavity")
    t_rev = 4.0 * cfg.m * cfg.L**2 / (np.pi * cfg.hbar)
    return RevivalTimes(t_revival=t_rev, tau=t_rev / 8.0)


def _coherent_period(state: SpectralState) -> float:
    """Period T_p = T_rev / g of the coherent (gamma = 0) state, 0.0 if it is stationary.

    Every beat is the integer alpha_b^2 - alpha_a^2 times ``_beat_unit``,
    and ``_beat_unit`` times T_rev is 2 pi, so the state repeats after
    T_rev / g, with g the gcd of alpha^2 - alpha_0^2 over the populated
    modes (8 for one parity class, where T_p = tau).  With one populated
    mode g is 0: no beat, and every time is a period.
    """
    square = state.support**2
    g = math.gcd(*(square - square[:1]).tolist())
    return revival_times(state.cfg).t_revival / g if g else 0.0


def _beat_unit(cfg: CavityConfig) -> float:
    """(E_alpha' - E_alpha) / hbar per unit of alpha'^2 - alpha^2.

    Every beat and pair damping rate of the package is this unit times the
    exact integer alpha'^2 - alpha^2, so that each route (``beta``, the pair
    kernel, the beat series, the purity and ``decay_time_map``) gets the
    same rates.
    """
    return cfg.hbar * np.pi**2 / (2.0 * cfg.m * cfg.L**2)


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
    _check_spec(cfg, CavityConfig, "mode cavity")
    k = alpha * np.pi / cfg.L
    E = (cfg.hbar * k) ** 2 / (2.0 * cfg.m)
    parity = "even" if alpha % 2 == 1 else "odd"
    return Mode(alpha=alpha, parity=parity, k=k, E=E)


def mode_values(alphas: np.ndarray, x, cfg: CavityConfig) -> np.ndarray:
    """Matrix of mode amplitudes, shape (len(x), len(alphas))."""
    _check_spec(cfg, CavityConfig, "mode-values cavity")
    phi, _ = _ModeBasis(alphas, cfg.L)(_check_positions(x, cfg))
    return phi


class _ModeBasis:
    """Sin/cos evaluator of a fixed set of modes and their slopes.

    The parity case (all even or mixed) and the amplitudes are resolved
    once here, because evaluation sits on the hot path of every density,
    density-matrix and velocity sum.
    """

    def __init__(self, alphas: np.ndarray, L: float):
        alphas = np.asarray(alphas, dtype=int)
        self.k = alphas * (np.pi / L)
        self.even = alphas % 2 == 1
        self.amp = np.sqrt(2.0 / L)
        self.all_even = bool(self.even.all())
        self.slope = (-self.amp if self.all_even else self.amp) * self.k

    def __call__(self, xv: np.ndarray):
        # Hot path: no validation, callers guarantee positions inside the box.
        arg = xv[:, None] * self.k[None, :]
        s = np.sin(arg)
        c = np.cos(arg)
        if self.all_even:
            return self.amp * c, self.slope * s
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
        object.__setattr__(self, "x0", _check_real(self.x0, "signal center x0"))
        object.__setattr__(self, "w", _check_real(self.w, "signal width w", 0, strict=True))

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
        _check_spec(self.cfg, CavityConfig, "spectral state cavity")
        if self.signal is not None:
            _check_spec(self.signal, InputSignalSpec, "spectral state signal")
        arr = _check_array(self.coeffs, "coefficients").copy()
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("coefficients must form a non-empty 1-D array")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def N(self) -> int:
        return self.coeffs.size

    @property
    def alphas(self) -> np.ndarray:
        return np.arange(1, self.N + 1)

    @property
    def support(self) -> np.ndarray:
        """Indices alpha of the populated modes (nonzero coefficients), increasing."""
        return self.alphas[self.coeffs != 0.0]

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
    _check_spec(state, SpectralState, "norm-deficit state")
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
    _check_spec(spec, InputSignalSpec, "signal")
    _check_spec(cfg, CavityConfig, "cavity")
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


def _check_bool(value, what: str) -> bool:
    """``value`` as a Python bool, once it is checked to be a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{what} must be a bool, got {value!r}")
    return bool(value)


def _check_spec(value, spec: type, what: str) -> None:
    """Raise a ``DomainError`` naming ``value`` unless it is a ``spec``."""
    if not isinstance(value, spec):
        raise DomainError(f"{what} must be an instance of {spec.__name__}, got {value!r}")


def _is_real(value) -> bool:
    """A Python or numpy integer or float; not a bool, string, None, complex number or array."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _check_real(value, what: str, least=None, strict: bool = False) -> float:
    """``value`` as a Python float, once it is checked to be a finite real number
    >= ``least`` (> ``least`` with ``strict``; no bound when ``least`` is None).

    Python and numpy integers and floats pass; a bool, a string, None, a
    complex number or an array does not.  ``what`` names the value in the
    error message.
    """
    if not _is_real(value):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")
    if least is not None and (value <= least if strict else value < least):
        raise DomainError(f"{what} must be {'>' if strict else '>='} {least}, got {value!r}")
    return value


def _check_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, once every entry is checked to be a finite real number.

    Only integer and float dtypes pass; bool, string, object and complex
    arrays do not.  A list or tuple passes only if it is rectangular and
    every entry passes ``_is_real``, since numpy would turn ``[True, 2.0]``
    into numbers; an array is checked by its dtype alone.  A float64 array
    comes back as itself, not a copy.
    """
    if isinstance(values, (list, tuple)):
        try:
            entries = np.asarray(values, dtype=object)
        except ValueError:  # arrays of different shapes
            raise DomainError(f"{what} must be a rectangular array of real numbers") from None
        bad = [v for v in entries.flat if not _is_real(v)]
        if bad:
            raise DomainError(f"{what} must be a real number in every entry, got {bad[0]!r}")
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        got = repr(values) if arr.ndim == 0 else f"an array of dtype {arr.dtype}"
        raise DomainError(f"{what} must be real numbers, got {got}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr


def _check_axis(values, what: str, least: int = 1) -> np.ndarray:
    """``values`` as a 1-D float array (``_check_array``) of at least ``least``
    strictly increasing entries."""
    arr = _check_array(values, what)
    if arr.ndim != 1 or arr.size < least or np.any(np.diff(arr) <= 0.0):
        need = "non-empty, " if least == 1 else ""
        more = f" of {least} or more entries" if least > 1 else ""
        raise DomainError(f"{what} must be a {need}strictly increasing 1-D array{more}")
    return arr


def _check_times(times, what: str = "times") -> np.ndarray:
    """``times`` as a 1-D float array of finite, nonnegative entries (``_check_array``)."""
    tv = _check_array(times, what)
    if tv.ndim != 1 or (tv < 0.0).any():
        raise DomainError(f"{what} must be a nonnegative 1-D array")
    return tv


def _check_positions(x, cfg: CavityConfig) -> np.ndarray:
    """``x`` as a 1-D float array (a scalar gives one entry) of positions inside the box."""
    xv = _check_array(x, "positions")
    if xv.ndim > 1:
        raise DomainError(f"positions must be a scalar or a 1-D array, got shape {xv.shape}")
    xv = np.atleast_1d(xv)
    if np.any(np.abs(xv) > cfg.half_width):
        worst = float(np.max(np.abs(xv)))
        raise DomainError(f"position outside the box: |x| = {worst} exceeds L/2 = {cfg.half_width}")
    return xv
