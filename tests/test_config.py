import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxcarpets as bc
from boxcarpets.config import FitSpec, GridSpec, OutputSpec, SweepSpec
from boxcarpets.errors import ConfigError, DomainError

REFERENCE_TEXT = """\
[cavity]
m = 1.0
hbar = 1.0
L = 50.0

[signal]
kind = single
x0 = 0.0
w = 10.0

[modes]
count = 50
renormalize = false

[deco]
gamma = 0.12732395447351627
lambda = formula

[grid]
x_points = 1001
t_points = 1001
tmax_tau = 8.0
snapshots_tau = 0.0,0.5,1.0,20.0

[ensemble]
count = 20

[sweep]
step = 0.5

[fit]
span_tau = 10.0
samples = 200
restarts = 20
seed = 0

[output]
dir = out
quantity = density
"""


def test_empty_text_yields_reference_defaults():
    config = bc.parse_config("")
    assert config.cavity == bc.CavityConfig(m=1.0, hbar=1.0, L=50.0)
    assert config.signal == bc.InputSignalSpec("single", 0.0, 10.0)
    assert config.n_modes == 50
    assert config.deco.gamma == pytest.approx(2.0 / (5.0 * np.pi), rel=1e-15)
    assert config.deco.lam == "formula"
    assert config.deco.effective_lambda(config.cavity) == bc.localization_rate(config.cavity)
    assert config.grid.x_points == config.grid.t_points == 1001


def test_overlap_error_names_field():
    with pytest.raises(ConfigError) as err:
        bc.parse_config("[signal]\nkind = double\nx0 = 3\n")
    assert "x0" in str(err.value)


def test_zero_gamma_is_a_valid_coherent_run():
    config = bc.parse_config("[deco]\ngamma = 0\nlambda = 0\n")
    assert config.deco.gamma == 0.0
    assert config.deco.effective_lambda(config.cavity) == 0.0


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError):
        bc.parse_config("[signal]\ncolor = red\n")
    with pytest.raises(ConfigError):
        bc.parse_config("[paint]\nkind = single\n")
    # configparser would otherwise copy [DEFAULT] keys into every section
    with pytest.raises(ConfigError) as err:
        bc.parse_config("[DEFAULT]\nm = 2\n\n[cavity]\n")
    assert "[DEFAULT]" in str(err.value)


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError) as err:
        bc.parse_config("[signal]\nkind = single\nwhat even is this\n")
    assert err.value.line == 3
    with pytest.raises(ConfigError) as err:
        bc.parse_config("kind = single\n")
    assert err.value.line == 1


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError) as err:
        bc.parse_config("[signal]\nx0 = fast\n")
    assert "signal.x0" in str(err.value)
    with pytest.raises(ConfigError) as err:
        bc.parse_config("[deco]\nlambda = sometimes\n")
    assert "lambda" in str(err.value)
    with pytest.raises(ConfigError):
        bc.parse_config("[output]\nproducts = carpet,frieze\n")
    # non-finite or out-of-range values are configuration errors, not product failures
    for section, key, value, name in [
        ("grid", "tmax_tau", "inf", "t_max_tau"),
        ("grid", "tmax_tau", "nan", "t_max_tau"),
        ("grid", "snapshots_tau", "0, nan", "snapshots_tau"),
        ("grid", "snapshots_tau", "0, inf", "snapshots_tau"),
        ("sweep", "start", "-inf", "start"),
        ("sweep", "stop", "nan", "stop"),
        ("sweep", "step", "nan", "step"),
        ("sweep", "step", "inf", "step"),
        ("fit", "span_tau", "inf", "span_tau"),
        ("fit", "seed", "-1", "seed"),
        ("ensemble", "seeds", "-1, nan", "seeds"),
        ("ensemble", "seeds", "-1, inf", "seeds"),
    ]:
        with pytest.raises(ConfigError) as err:
            bc.parse_config(f"[{section}]\n{key} = {value}\n")
        assert name in str(err.value), (section, key, value)


def test_lambda_forms():
    assert bc.parse_config("[deco]\nlambda = Formula\n").deco.lam == "formula"
    numeric = bc.parse_config("[deco]\nlambda = 0.25\n")
    assert numeric.deco.lam == 0.25
    assert "\n[deco]\ngamma = 0.12732395447351627\nlambda = 0.25\n" in bc.serialize_config(numeric)
    with pytest.raises(ConfigError, match="never"):
        bc.parse_config("[deco]\nlambda = never\n")


def test_explicit_seeds():
    config = bc.parse_config("[ensemble]\nseeds = -2.0, 0.5, 3.25\n")
    assert config.ensemble.seeds == (-2.0, 0.5, 3.25)
    assert config.ensemble.count == 3


def test_round_trip_of_defaults():
    config = bc.parse_config("")
    assert config == bc.RunConfig()
    # this text goes into every manifest.json
    assert bc.serialize_config(config) == REFERENCE_TEXT
    assert bc.parse_config(bc.serialize_config(config)) == config


def test_readme_example_config_is_the_reference():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert bc.parse_config(block) == bc.parse_config("")


@settings(max_examples=25, deadline=None)
@given(
    x0=st.sampled_from([0.0, 5.0, 12.5, 18.0]),
    kind=st.sampled_from(["single", "double"]),
    gamma=st.floats(min_value=0.0, max_value=2.0),
    nx=st.integers(min_value=2, max_value=500),
    products=st.lists(st.sampled_from(["carpet", "purity", "fit"]), unique=True),
    lam=st.one_of(st.just("formula"), st.floats(min_value=0.0, max_value=1.0)),
    renormalize=st.booleans(),
    seeds=st.one_of(st.none(), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4, unique=True)),
    bounds=st.tuples(st.one_of(st.none(), st.floats(0.0, 5.0)), st.one_of(st.none(), st.floats(5.0, 20.0))),
    snapshots=st.lists(st.floats(0.0, 30.0), max_size=3, unique=True),
    count=st.integers(min_value=1, max_value=40),
    numpy_scalars=st.booleans(),
)
def test_round_trip_property(
    x0, kind, gamma, nx, products, lam, renormalize, seeds, bounds, snapshots, count, numpy_scalars
):
    if kind == "double" and x0 < 5.0:
        x0 = 5.0
    if numpy_scalars:
        # numpy scalars are written as the Python numbers they hold
        x0, gamma, count, renormalize = np.float64(x0), np.float64(gamma), np.int64(count), np.bool_(renormalize)
    base = bc.parse_config("")
    config = bc.apply_overrides(
        base,
        x0=x0,
        kind=kind,
        gamma=gamma,
        lam=lam,
        renormalize=renormalize,
        products=tuple(products),
        seed_count=count,
    )
    ensemble = config.ensemble if seeds is None else bc.EnsembleSpec(seeds=tuple(sorted(seeds)))
    config = dataclasses.replace(
        config,
        grid=dataclasses.replace(config.grid, x_points=nx, snapshots_tau=tuple(snapshots)),
        ensemble=ensemble,
        sweep=bc.SweepSpec(start=bounds[0], stop=bounds[1]),
    )
    assert bc.parse_config(bc.serialize_config(config)) == config


def test_apply_overrides_validates():
    base = bc.parse_config("")
    with pytest.raises(ConfigError):
        bc.apply_overrides(base, x0=30.0)
    with pytest.raises(ConfigError):
        bc.apply_overrides(base, kind="double", x0=2.0)
    # a bare kind switch falls back to the smallest admissible center
    switched = bc.apply_overrides(base, kind="double")
    assert switched.signal == bc.InputSignalSpec("double", 5.0, 10.0)
    kept = bc.apply_overrides(bc.apply_overrides(base, x0=18.0), kind="double")
    assert kept.signal.x0 == 18.0
    with pytest.raises(ConfigError):
        bc.apply_overrides(base, lam="never")
    cfg2 = bc.apply_overrides(base, gamma=0.0, lam=0, tmax_tau=4.0, seed_count=12)
    assert cfg2.deco.gamma == 0.0 and cfg2.deco.lam == 0.0
    assert cfg2.grid.t_max_tau == 4.0
    assert cfg2.ensemble.count == 12
    # a bare count replaces an explicit seed list
    seeded = bc.parse_config("[ensemble]\nseeds = -2.0, 0.5, 3.25\n")
    assert bc.apply_overrides(seeded, seed_count=5).ensemble == bc.EnsembleSpec(count=5)
    with pytest.raises(ConfigError) as err:
        bc.apply_overrides(base, tmax=4.0)
    assert "tmax" in str(err.value)
    with pytest.raises(ConfigError):
        bc.apply_overrides(base, tmax_tau=float("inf"))


def test_repeated_snapshot_is_rejected():
    # each snapshot names its own density-matrix files
    with pytest.raises(DomainError):
        GridSpec(snapshots_tau=(0.5, 1.0, 0.5))
    with pytest.raises(ConfigError, match="snapshots_tau"):
        bc.parse_config("[grid]\nsnapshots_tau = 1, 1.0\n")


def test_spec_dataclass_validation():
    with pytest.raises(DomainError):
        GridSpec(x_points=1)
    with pytest.raises(DomainError):
        GridSpec(t_max_tau=0.0)
    for bad in [
        lambda: GridSpec(t_max_tau=np.inf),
        lambda: GridSpec(t_max_tau=np.nan),
        lambda: GridSpec(snapshots_tau=(0.0, np.nan)),
        lambda: GridSpec(snapshots_tau=(np.inf,)),
        lambda: SweepSpec(step=np.nan),
        lambda: SweepSpec(step=np.inf),
        lambda: SweepSpec(start=np.nan),
        lambda: SweepSpec(stop=np.inf),
        lambda: FitSpec(span_tau=np.inf),
        lambda: FitSpec(span_tau=np.nan),
        lambda: FitSpec(seed=-1),
        lambda: bc.EnsembleSpec(seeds=(0.0, np.nan)),
        lambda: bc.EnsembleSpec(seeds=(0.0, np.inf)),
    ]:
        with pytest.raises(DomainError):
            bad()
    with pytest.raises(DomainError):
        SweepSpec(step=0.0)
    with pytest.raises(DomainError):
        FitSpec(samples=10)
    with pytest.raises(DomainError):
        OutputSpec(products=("mosaic",))
    assert SweepSpec().values("single")[0] == 0.0
    assert SweepSpec().values("double")[0] == 5.0
    assert SweepSpec(start=0.0, stop=20.0, step=0.5).values("single").size == 41


# every real-valued spec field: how to build a spec with value v, and the attribute
# that stores it (the last entry, for a tuple)
_REAL_FIELDS = {
    "CavityConfig.m": (lambda v: bc.CavityConfig(m=v), "m"),
    "CavityConfig.hbar": (lambda v: bc.CavityConfig(hbar=v), "hbar"),
    "CavityConfig.L": (lambda v: bc.CavityConfig(L=v), "L"),
    "signal center x0": (lambda v: bc.InputSignalSpec(x0=v), "x0"),
    "signal width w": (lambda v: bc.InputSignalSpec(w=v), "w"),
    "gamma": (lambda v: bc.DecoherenceParams(gamma=v), "gamma"),
    "lambda": (lambda v: bc.DecoherenceParams(lam=v), "lam"),
    "grid t_max_tau": (lambda v: GridSpec(t_max_tau=v), "t_max_tau"),
    "grid snapshots_tau": (lambda v: GridSpec(snapshots_tau=(0.0, v)), "snapshots_tau"),
    "sweep start": (lambda v: SweepSpec(start=v), "start"),
    "sweep stop": (lambda v: SweepSpec(stop=v), "stop"),
    "sweep step": (lambda v: SweepSpec(step=v), "step"),
    "fit span_tau": (lambda v: FitSpec(span_tau=v), "span_tau"),
    "explicit seeds": (lambda v: bc.EnsembleSpec(seeds=(-1.0, v)), "seeds"),
}

_NOT_REAL = {
    "bool": True,
    "numpy-bool": np.bool_(False),
    "str": "2",
    "None": None,
    "complex": 2j,
    "array": np.array([2.0]),
    "0-d-array": np.array(2.0),
}
# None leaves these unset
_OPTIONAL = ("sweep start", "sweep stop")


@pytest.mark.parametrize(
    "field, bad",
    [
        pytest.param(field, bad, id=f"{field}-{name}")
        for field in _REAL_FIELDS
        for name, bad in _NOT_REAL.items()
        if not (bad is None and field in _OPTIONAL)
    ],
)
def test_spec_reals_must_be_real_numbers(field, bad):
    # a bool used to be stored and serialized as "true", text parse_config rejects;
    # None, strings and complex numbers used to raise TypeError
    with pytest.raises(DomainError, match=f"{field} must be a real number"):
        _REAL_FIELDS[field][0](bad)


@pytest.mark.parametrize("field", list(_REAL_FIELDS))
@pytest.mark.parametrize("good", [np.float32(2.5), np.int64(2), 2], ids=["float32", "int64", "int"])
def test_spec_reals_are_stored_as_python_floats(field, good):
    make, attr = _REAL_FIELDS[field]
    stored = getattr(make(good), attr)
    if isinstance(stored, tuple):
        stored = stored[-1]
    assert type(stored) is float and stored == float(good)


def test_real_overrides_are_config_errors_and_round_trip():
    base = bc.parse_config("")
    for name, bad in [("x0", True), ("x0", "abc"), ("gamma", None), ("tmax_tau", "2"), ("gamma", 1j), ("lam", "0")]:
        with pytest.raises(ConfigError, match="must be a real number"):
            bc.apply_overrides(base, **{name: bad})
    cfg = bc.apply_overrides(base, x0=np.float32(2.5), gamma=np.int64(1), tmax_tau=3)
    assert (cfg.signal.x0, cfg.deco.gamma, cfg.grid.t_max_tau) == (2.5, 1.0, 3.0)
    assert all(type(v) is float for v in (cfg.signal.x0, cfg.deco.gamma, cfg.grid.t_max_tau))
    assert bc.parse_config(bc.serialize_config(cfg)) == cfg
    cfg = bc.RunConfig(
        cavity=bc.CavityConfig(m=np.float32(2.0), hbar=1, L=np.int64(60)),
        signal=bc.InputSignalSpec("single", np.float32(2.5), 3),
        deco=bc.DecoherenceParams(gamma=np.int32(1), lam=np.float16(0.5)),
        grid=GridSpec(t_max_tau=2, snapshots_tau=(0, np.float32(0.5))),
        ensemble=bc.EnsembleSpec(seeds=(1, np.float32(1.5))),
        sweep=SweepSpec(start=np.int64(1), stop=4, step=np.float32(0.25)),
        fit=FitSpec(span_tau=np.int64(5)),
    )
    text = bc.serialize_config(cfg)
    assert "L = 60.0\n" in text and "seeds = 1.0,1.5\n" in text
    assert bc.parse_config(text) == cfg


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: FitSpec(restarts=2.5), "fit restarts"),
        (lambda: FitSpec(restarts=True), "fit restarts"),
        (lambda: FitSpec(seed=1.5), "fit seed"),
        (lambda: FitSpec(samples=60.5), "fit samples"),
        (lambda: FitSpec(samples="60"), "fit samples"),
        (lambda: GridSpec(x_points=10.5), "grid x_points"),
        (lambda: GridSpec(t_points=False), "grid t_points"),
    ],
)
def test_spec_counts_must_be_integers(make, field):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        make()


def test_mode_count_must_be_an_integer():
    # a float or bool count used to serialize as "count = 3.0" or "count = true",
    # text that parse_config rejects
    for bad in (3.0, True, "3"):
        with pytest.raises(DomainError, match="modes count must be an integer"):
            bc.RunConfig(n_modes=bad)
    with pytest.raises(DomainError, match="modes count must be >= 1"):
        bc.RunConfig(n_modes=0)
    cfg = bc.RunConfig(n_modes=np.int64(3))
    assert type(cfg.n_modes) is int
    assert bc.parse_config(bc.serialize_config(cfg)) == cfg


def test_renormalize_must_be_a_bool(cfg, ref_params):
    # "no" used to renormalize the state and serialize as "renormalize = no",
    # which parses back as False
    with pytest.raises(DomainError, match="modes renormalize must be a bool, got 'no'"):
        bc.RunConfig(renormalize="no")
    with pytest.raises(ConfigError, match="modes renormalize must be a bool, got 'no'"):
        bc.apply_overrides(bc.parse_config(""), renormalize="no")
    with pytest.raises(DomainError, match="sweep renormalize must be a bool, got 1"):
        bc.sweep_x0(bc.InputSignalSpec(), [0.0], cfg, ref_params, renormalize=1)
    config = bc.RunConfig(renormalize=np.bool_(True))
    assert config.renormalize is True
    assert bc.parse_config(bc.serialize_config(config)) == config


def test_spec_counts_accept_numpy_integers():
    fit = FitSpec(samples=np.int64(60), restarts=np.int32(3), seed=np.int64(7))
    grid = GridSpec(x_points=np.int64(11), t_points=np.uint16(5))
    assert (fit.samples, fit.restarts, fit.seed, grid.x_points, grid.t_points) == (60, 3, 7, 11, 5)
    assert all(type(v) is int for v in (fit.samples, fit.restarts, fit.seed, grid.x_points, grid.t_points))
    cfg = bc.parse_config("[fit]\nrestarts = 3\nseed = 2\n[grid]\nx_points = 11\n")
    assert (cfg.fit.restarts, cfg.fit.seed, cfg.grid.x_points) == (3, 2, 11)
    assert bc.parse_config(bc.serialize_config(cfg)) == cfg
    with pytest.raises(ConfigError, match="fit restarts must be >= 1"):
        bc.parse_config("[fit]\nrestarts = 0\n")
    with pytest.raises(ConfigError, match="invalid value for fit.restarts"):
        bc.parse_config("[fit]\nrestarts = 2.5\n")


@pytest.mark.parametrize(
    "kind, w, L",
    [
        ("single", 10.0, 50.0),
        ("double", 10.0, 50.0),
        ("double", 12.0, 50.0),
        ("single", 2.0, 50.0),
        ("double", 2.0, 50.0),
        ("double", 3.7, 37.3),
        ("single", 0.7, 10.1),
    ],
)
def test_default_sweep_spans_the_valid_centers(kind, w, L):
    cavity = bc.CavityConfig(L=L)
    signal = bc.InputSignalSpec(kind, 0.0, w)
    lo, hi = signal.center_range(cavity)
    values = SweepSpec().values(signal, cavity)
    assert values[0] == lo
    assert 0.0 <= hi - values[-1] < 0.5
    for x0 in values:
        dataclasses.replace(signal, x0=float(x0)).validate(cavity)


def test_sweep_values_never_pass_stop():
    assert SweepSpec().values("single").size == 41
    assert SweepSpec().values("double").size == 31
    assert list(SweepSpec(start=0.0, stop=0.8, step=0.5).values("single")) == [0.0, 0.5]
    tenths = SweepSpec(start=0.0, stop=0.3, step=0.1).values("single")
    assert tenths.size == 4 and tenths[-1] == 0.3
