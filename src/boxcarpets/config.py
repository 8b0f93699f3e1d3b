"""Run configuration: INI-style text with [section] headers and key = value lines.

An empty document yields the reference setup (m = 1, hbar = 1, L = 50,
single signal of width 10 at the center, 50 modes, gamma = 2/(5 pi), spatial
damping from the cavity formula).  Unknown sections or keys are rejected,
and every value is validated against the invariants of the type it feeds.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .decoherence import DEFAULT_GAMMA, DecoherenceParams
from .errors import ConfigError, DomainError
from .flow import EnsembleSpec
from .spectral import CavityConfig, InputSignalSpec, _check_count

PRODUCT_NAMES = ("carpet", "trajectories", "densmat", "purity", "sweep", "fit", "decaymap")


def _set_count(spec, section: str, name: str, least: int) -> None:
    """Store field ``name`` of ``spec`` as a Python int, once ``_check_count`` passes it."""
    object.__setattr__(spec, name, _check_count(getattr(spec, name), f"{section} {name}", least))


@dataclass(frozen=True)
class GridSpec:
    """Render-grid shape: axis point counts and the time span in tau units."""

    x_points: int = 1001
    t_points: int = 1001
    t_max_tau: float = 8.0
    snapshots_tau: tuple[float, ...] = (0.0, 0.5, 1.0, 20.0)

    def __post_init__(self):
        _set_count(self, "grid", "x_points", 2)
        _set_count(self, "grid", "t_points", 2)
        if not 0.0 < self.t_max_tau < np.inf:
            raise DomainError(f"grid t_max_tau must be positive and finite, got {self.t_max_tau!r}")
        if not all(0.0 <= s < np.inf for s in self.snapshots_tau):
            raise DomainError(f"grid snapshots_tau must be nonnegative and finite, got {self.snapshots_tau!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Signal-center range for sweeps; unset bounds span the signal's valid centers."""

    start: float | None = None
    stop: float | None = None
    step: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.step < np.inf:
            raise DomainError(f"sweep step must be positive and finite, got {self.step!r}")
        for name in ("start", "stop"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise DomainError(f"sweep {name} must be finite, got {value!r}")

    def values(self, signal: InputSignalSpec | str, cavity: CavityConfig | None = None) -> np.ndarray:
        """Centers from start to stop in steps, never past stop.

        ``signal`` may be a bare kind, which stands for that kind at the
        default width; ``cavity`` defaults to the reference box.
        """
        if isinstance(signal, str):
            signal = InputSignalSpec(kind=signal)
        lo, hi = signal.center_range(cavity or CavityConfig())
        start = lo if self.start is None else self.start
        stop = hi if self.stop is None else self.stop
        if stop < start:
            raise DomainError("sweep stop must not precede start")
        n = int(np.floor((stop - start) / self.step * (1.0 + 1e-9))) + 1
        return np.minimum(start + self.step * np.arange(n), stop)


@dataclass(frozen=True)
class FitSpec:
    """Purity-curve sampling and fit-restart controls."""

    span_tau: float = 10.0
    samples: int = 200
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.span_tau < np.inf:
            raise DomainError(f"fit span_tau must be positive and finite, got {self.span_tau!r}")
        _set_count(self, "fit", "samples", 50)
        _set_count(self, "fit", "restarts", 1)
        _set_count(self, "fit", "seed", 0)


@dataclass(frozen=True)
class OutputSpec:
    products: tuple[str, ...] = ()
    directory: str = "out"
    quantity: str = "density"

    def __post_init__(self):
        object.__setattr__(self, "products", tuple(self.products))
        for p in self.products:
            if p not in PRODUCT_NAMES:
                raise DomainError(f"unknown product {p!r}; expected one of {PRODUCT_NAMES}")
        if self.quantity not in ("density", "velocity"):
            raise DomainError(f"carpet quantity must be 'density' or 'velocity', got {self.quantity!r}")


@dataclass(frozen=True)
class RunConfig:
    cavity: CavityConfig = field(default_factory=CavityConfig)
    signal: InputSignalSpec = field(default_factory=InputSignalSpec)
    n_modes: int = 50
    renormalize: bool = False
    deco: DecoherenceParams = field(default_factory=lambda: DecoherenceParams(gamma=DEFAULT_GAMMA, lambda_mode="formula"))
    grid: GridSpec = field(default_factory=GridSpec)
    ensemble: EnsembleSpec = field(default_factory=lambda: EnsembleSpec(count=20))
    sweep: SweepSpec = field(default_factory=SweepSpec)
    fit: FitSpec = field(default_factory=FitSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self):
        self.signal.validate(self.cavity)
        object.__setattr__(self, "n_modes", _check_count(self.n_modes, "modes count", 1))


_DEFAULT = RunConfig()


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _as_name_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _as_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _as_name_list(text))


# One row per config key: section, key as written, dotted RunConfig attribute,
# value parser.  Parsing, serialization and overrides all walk this table, and
# the rows' order is the order of the serialized text.
_FIELDS = (
    ("cavity", "m", "cavity.m", float),
    ("cavity", "hbar", "cavity.hbar", float),
    ("cavity", "L", "cavity.L", float),
    ("signal", "kind", "signal.kind", str),
    ("signal", "x0", "signal.x0", float),
    ("signal", "w", "signal.w", float),
    ("modes", "count", "n_modes", int),
    ("modes", "renormalize", "renormalize", _as_bool),
    ("deco", "gamma", "deco.gamma", float),
    ("deco", "lambda", "deco.lam", str),  # resolved by parse_lambda in _update
    ("grid", "x_points", "grid.x_points", int),
    ("grid", "t_points", "grid.t_points", int),
    ("grid", "tmax_tau", "grid.t_max_tau", float),
    ("grid", "snapshots_tau", "grid.snapshots_tau", _as_float_list),
    ("ensemble", "count", "ensemble.count", int),
    ("ensemble", "seeding", "ensemble.seeding", str),
    ("ensemble", "seeds", "ensemble.seeds", _as_float_list),
    ("sweep", "start", "sweep.start", float),
    ("sweep", "stop", "sweep.stop", float),
    ("sweep", "step", "sweep.step", float),
    ("fit", "span_tau", "fit.span_tau", float),
    ("fit", "samples", "fit.samples", int),
    ("fit", "restarts", "fit.restarts", int),
    ("fit", "seed", "fit.seed", int),
    ("output", "products", "output.products", _as_name_list),
    ("output", "dir", "output.directory", str),
    ("output", "quantity", "output.quantity", str),
)
# configparser lowercases keys as it reads them
_KEYS = {(section, key.lower()): (attr, parse) for section, key, attr, parse in _FIELDS}
_SECTIONS = {section for section, *_ in _FIELDS}

# apply_overrides keyword -> table attribute
_OVERRIDES = {
    "x0": "signal.x0",
    "kind": "signal.kind",
    "gamma": "deco.gamma",
    "lam": "deco.lam",
    "tmax_tau": "grid.t_max_tau",
    "seed_count": "ensemble.count",
    "out_dir": "output.directory",
    "quantity": "output.quantity",
    "products": "output.products",
    "renormalize": "renormalize",
}


def _get(config: RunConfig, attr: str):
    return reduce(getattr, attr.split("."), config)


def parse_lambda(text: str) -> tuple[float, str]:
    """Resolve a spatial-damping setting: 'formula', or a nonnegative number."""
    t = text.strip().lower()
    if t == "formula":
        return 0.0, "formula"
    try:
        value = float(t)
    except ValueError:
        raise ConfigError(f"deco.lambda must be 'formula' or a number, got {text!r}") from None
    return value, "off"


def _update(config: RunConfig, values: dict[str, object]) -> RunConfig:
    """Set each dotted attribute of ``values`` on ``config``; every touched spec
    is rebuilt once, so its own invariants are checked again."""
    values = dict(values)
    if "deco.lam" in values:
        values["deco.lam"], values["deco.lambda_mode"] = parse_lambda(str(values["deco.lam"]))
    if "ensemble.seeds" in values or "ensemble.count" in values:
        # a seed list implies explicit seeding; a bare count (or an empty
        # list) replaces any explicit seed list
        seeds = values["ensemble.seeds"] = values.get("ensemble.seeds") or None
        values.setdefault("ensemble.seeding", "explicit" if seeds else "uniform")
    specs: dict[str, dict[str, object]] = {}
    for attr, value in values.items():
        spec, _, name = attr.rpartition(".")
        specs.setdefault(spec, {})[name] = value
    top = specs.pop("", {})
    try:
        for spec, fields in specs.items():
            top[spec] = replace(getattr(config, spec), **fields)
        return replace(config, **top)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated ``RunConfig``.

    Raises ``ConfigError`` with a line number for syntax problems and with
    the offending field name for unknown keys or invariant violations.
    """
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",), strict=True
    )
    try:
        parser.read_file(io.StringIO(text))
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("key outside of any [section]", line=exc.lineno) from None
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigError("malformed line", line=line) from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key {exc.option!r} in [{exc.section}]", line=exc.lineno) from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"duplicate section [{exc.section}]", line=exc.lineno) from None
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    # configparser would copy [DEFAULT] keys into every section
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")

    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            attr, parse = _KEYS[section, key]
            try:
                values[attr] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {section}.{key}: {exc}") from None
    return _update(_DEFAULT, values)


def parse_config_file(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _text(value) -> str:
    # numpy scalars are written as the Python numbers they hold
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Emit configuration text that parses back to an equal ``RunConfig``."""
    blocks: dict[str, list[str]] = {}
    for section, key, attr, _ in _FIELDS:
        block = blocks.setdefault(section, [f"[{section}]"])
        value = _get(config, attr)
        if attr == "deco.lam" and config.deco.lambda_mode == "formula":
            value = "formula"
        # a missing key parses to the default, so an empty default is left out
        if value is None or (isinstance(value, tuple) and not value and not _get(_DEFAULT, attr)):
            continue
        block.append(f"{key} = {_text(value)}")
    return "\n\n".join("\n".join(block) for block in blocks.values()) + "\n"


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply CLI-style overrides, revalidating the affected pieces."""
    unknown = sorted(set(overrides) - set(_OVERRIDES))
    if unknown:
        raise ConfigError(f"unknown override {', '.join(unknown)}; expected one of {', '.join(_OVERRIDES)}")
    values = {_OVERRIDES[name]: value for name, value in overrides.items()}
    kind = values.get("signal.kind", config.signal.kind)
    if kind != config.signal.kind and "signal.x0" not in values:
        # a bare kind switch keeps x0 only when it stays valid;
        # otherwise fall back to the smallest admissible center
        switched = replace(config.signal, kind=kind)
        try:
            switched.validate(config.cavity)
        except DomainError:
            values["signal.x0"] = switched.center_range(config.cavity)[0]
    return _update(config, values)
