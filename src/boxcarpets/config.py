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

from .decoherence import DEFAULT_GAMMA, DecoherenceParams, _check_params
from .energy import FitSpec
from .errors import ConfigError, DomainError
from .flow import EnsembleSpec
from .spectral import CavityConfig, InputSignalSpec, _check_bool, _check_count, _check_real, _check_spec, _check_times

PRODUCT_NAMES = ("carpet", "trajectories", "densmat", "purity", "sweep", "fit", "decaymap")


def _set_count(spec, section: str, name: str, least: int) -> None:
    """Store field ``name`` of ``spec`` as a Python int, once ``_check_count`` passes it."""
    object.__setattr__(spec, name, _check_count(getattr(spec, name), f"{section} {name}", least))


def _set_real(spec, section: str, name: str, least=None, strict: bool = False) -> None:
    """Store field ``name`` of ``spec`` as a Python float, once ``_check_real`` passes it."""
    object.__setattr__(spec, name, _check_real(getattr(spec, name), f"{section} {name}", least, strict))


@dataclass(frozen=True)
class GridSpec:
    """Render-grid shape: axis point counts, the time span and the distinct
    density-matrix snapshot times, both in tau units."""

    x_points: int = 1001
    t_points: int = 1001
    t_max_tau: float = 8.0
    snapshots_tau: tuple[float, ...] = (0.0, 0.5, 1.0, 20.0)

    def __post_init__(self):
        _set_count(self, "grid", "x_points", 2)
        _set_count(self, "grid", "t_points", 2)
        _set_real(self, "grid", "t_max_tau", 0, strict=True)
        snapshots = _check_times(self.snapshots_tau, "grid snapshots_tau").tolist()
        if len(set(snapshots)) < len(snapshots):
            raise DomainError("grid snapshots_tau must not repeat a value")  # each names its own files
        object.__setattr__(self, "snapshots_tau", tuple(snapshots))


@dataclass(frozen=True)
class SweepSpec:
    """Signal-center range for sweeps; unset bounds span the signal's valid centers."""

    start: float | None = None
    stop: float | None = None
    step: float = 0.5

    def __post_init__(self):
        _set_real(self, "sweep", "step", 0, strict=True)
        for name in ("start", "stop"):
            if getattr(self, name) is not None:
                _set_real(self, "sweep", name)

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
    deco: DecoherenceParams = field(default_factory=lambda: DecoherenceParams(gamma=DEFAULT_GAMMA, lam="formula"))
    grid: GridSpec = field(default_factory=GridSpec)
    ensemble: EnsembleSpec = field(default_factory=lambda: EnsembleSpec(count=20))
    sweep: SweepSpec = field(default_factory=SweepSpec)
    fit: FitSpec = field(default_factory=FitSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self):
        _check_spec(self.cavity, CavityConfig, "run configuration cavity")
        _check_spec(self.signal, InputSignalSpec, "run configuration signal")
        _check_params(self.deco)
        _check_spec(self.grid, GridSpec, "run configuration grid")
        _check_spec(self.ensemble, EnsembleSpec, "run configuration ensemble")
        _check_spec(self.sweep, SweepSpec, "run configuration sweep")
        _check_spec(self.fit, FitSpec, "run configuration fit")
        _check_spec(self.output, OutputSpec, "run configuration output")
        self.signal.validate(self.cavity)
        object.__setattr__(self, "n_modes", _check_count(self.n_modes, "modes count", 1))
        object.__setattr__(self, "renormalize", _check_bool(self.renormalize, "modes renormalize"))


_DEFAULT = RunConfig()


def _as_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _as_name_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _as_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _as_name_list(text))


def parse_lambda(text: str) -> float | str:
    """A spatial-damping setting as ``DecoherenceParams.lam`` takes it: 'formula' or a number."""
    t = text.strip().lower()
    if t == "formula":
        return t
    try:
        return float(t)
    except ValueError:
        raise ValueError(f"expected 'formula' or a number, got {text!r}") from None


# One row per config key: section, key as written, dotted RunConfig attribute,
# value parser, and the apply_overrides keyword (None for a key with no
# override).  Parsing, serialization and overrides all walk this table, and
# the rows' order is the order of the serialized text.
_FIELDS = (
    ("cavity", "m", "cavity.m", float, None),
    ("cavity", "hbar", "cavity.hbar", float, None),
    ("cavity", "L", "cavity.L", float, None),
    ("signal", "kind", "signal.kind", str, "kind"),
    ("signal", "x0", "signal.x0", float, "x0"),
    ("signal", "w", "signal.w", float, None),
    ("modes", "count", "n_modes", int, None),
    ("modes", "renormalize", "renormalize", _as_bool, "renormalize"),
    ("deco", "gamma", "deco.gamma", float, "gamma"),
    ("deco", "lambda", "deco.lam", parse_lambda, "lam"),
    ("grid", "x_points", "grid.x_points", int, None),
    ("grid", "t_points", "grid.t_points", int, None),
    ("grid", "tmax_tau", "grid.t_max_tau", float, "tmax_tau"),
    ("grid", "snapshots_tau", "grid.snapshots_tau", _as_float_list, None),
    ("ensemble", "count", "ensemble.count", int, "seed_count"),
    ("ensemble", "seeds", "ensemble.seeds", _as_float_list, None),
    ("sweep", "start", "sweep.start", float, None),
    ("sweep", "stop", "sweep.stop", float, None),
    ("sweep", "step", "sweep.step", float, None),
    ("fit", "span_tau", "fit.span_tau", float, None),
    ("fit", "samples", "fit.samples", int, None),
    ("fit", "restarts", "fit.restarts", int, None),
    ("fit", "seed", "fit.seed", int, None),
    ("output", "products", "output.products", _as_name_list, "products"),
    ("output", "dir", "output.directory", str, "out_dir"),
    ("output", "quantity", "output.quantity", str, "quantity"),
)
# configparser lowercases keys as it reads them
_KEYS = {(section, key.lower()): (attr, parse) for section, key, attr, parse, _ in _FIELDS}
_SECTIONS = {section for section, *_ in _FIELDS}
# apply_overrides keyword -> table attribute
_OVERRIDES = {name: attr for _, _, attr, _, name in _FIELDS if name}


def _get(config: RunConfig, attr: str):
    return reduce(getattr, attr.split("."), config)


def _update(config: RunConfig, values: dict[str, object]) -> RunConfig:
    """Set each dotted attribute of ``values`` on ``config``; every touched spec
    is rebuilt once, so its own invariants are checked again."""
    values = dict(values)
    if "ensemble.seeds" in values or "ensemble.count" in values:
        # a bare count (or an empty seed list) clears any explicit seed list
        values["ensemble.seeds"] = values.get("ensemble.seeds") or None
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
    # the specs store counts as Python ints and real numbers as Python floats
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Emit configuration text that parses back to an equal ``RunConfig``."""
    _check_spec(config, RunConfig, "run configuration")
    blocks: dict[str, list[str]] = {}
    for section, key, attr, *_ in _FIELDS:
        block = blocks.setdefault(section, [f"[{section}]"])
        value = _get(config, attr)
        # a missing key parses to the default, so an empty default is left out
        if value is None or (isinstance(value, tuple) and not value and not _get(_DEFAULT, attr)):
            continue
        block.append(f"{key} = {_text(value)}")
    return "\n\n".join("\n".join(block) for block in blocks.values()) + "\n"


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply CLI-style overrides, revalidating the affected pieces."""
    _check_spec(config, RunConfig, "run configuration")
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
