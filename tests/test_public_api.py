"""One spelling per setting in the public signatures: the damping model is
always a ``DecoherenceParams`` (its default is the coherent model, never
None), the fit settings always a ``FitSpec``, and an ensemble is seeded
explicitly exactly when it has seeds.  A cavity, signal, state or curve
argument, or a spec field, of the wrong type is a ``DomainError``, as a bad
damping model is."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import typing

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets import csvio, decoherence

# settings with one spelling: a field of this spec, and no parameter elsewhere
SPEC_FIELDS = {
    "gamma": "boxcarpets.decoherence.DecoherenceParams",
    "restarts": "boxcarpets.energy.FitSpec",
    "seed": "boxcarpets.energy.FitSpec",
    "span_tau": "boxcarpets.energy.FitSpec",
}


def _public_callables():
    """Public functions and classes of the package and of each of its modules."""
    namespaces = [bc] + [importlib.import_module(f"boxcarpets.{m.name}") for m in pkgutil.iter_modules(bc.__path__)]
    found = {}
    for namespace in namespaces:
        for name, obj in vars(namespace).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__.startswith("boxcarpets"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_public_signatures_have_one_spelling_per_setting():
    callables = _public_callables()
    assert {"boxcarpets.flow.velocity", "boxcarpets.flow.EnsembleSpec", "boxcarpets.decoherence.density_map"} <= set(
        callables
    )
    offenders = []
    for name, obj in callables.items():
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # a class without an inspectable constructor
            continue
        for parameter in parameters.values():
            if parameter.name == "params" and parameter.default is None:
                offenders.append(f"{name}(params=None)")
            if parameter.name == "seeding":
                offenders.append(f"{name}(seeding)")
            if SPEC_FIELDS.get(parameter.name, name) != name:
                offenders.append(f"{name}({parameter.name})")
    assert not offenders, f"second spellings of a setting: {offenders}"


def _damping_model_calls():
    """One call per public callable that takes the damping model, with ``params`` substituted."""
    cfg = bc.CavityConfig()
    signal = bc.InputSignalSpec("single", 0.0, 10.0)
    state = bc.decompose(signal, cfg, 8)
    x = np.array([0.0, 1.0])
    grid = bc.SpaceTimeGrid(x, [0.0, 1.0])
    return {
        "boxcarpets.decoherence.beta": lambda p: bc.beta(1, 3, p, cfg),
        "boxcarpets.decoherence.density_map": lambda p: decoherence.density_map(state, x, [1.0], p),
        "boxcarpets.decoherence.density_matrix_grid": lambda p: bc.density_matrix_grid(state, x, x, 1.0, p),
        "boxcarpets.energy.purity": lambda p: bc.purity(state, 1.0, p),
        "boxcarpets.energy.purity_curve": lambda p: bc.purity_curve(state, 1.0, p),
        "boxcarpets.energy.decay_time_map": lambda p: bc.decay_time_map(cfg, p, 8),
        "boxcarpets.energy.sweep_x0": lambda p: bc.sweep_x0(signal, [0.0], cfg, p, N=8),
        "boxcarpets.evolution.carpet": lambda p: bc.carpet(state, grid, params=p),
        "boxcarpets.evolution.probability_density": lambda p: bc.probability_density(state, 0.0, 1.0, p),
        "boxcarpets.flow.integrate_ensemble": lambda p: bc.integrate_ensemble(
            state, bc.EnsembleSpec(count=2), 1.0, params=p
        ),
        "boxcarpets.flow.integrate_trajectory": lambda p: bc.integrate_trajectory(state, 0.0, 1.0, params=p),
        "boxcarpets.flow.velocity": lambda p: bc.velocity(state, 0.0, 1.0, p),
        "boxcarpets.flow.velocity_map": lambda p: bc.velocity_map(state, x, [1.0], p),
        "boxcarpets.csvio.standard_meta": lambda p: csvio.standard_meta(cfg, signal, 8, p),
    }


def test_every_damping_model_entry_point_is_probed():
    taking = set()
    for name, obj in _public_callables().items():
        try:
            if "params" in inspect.signature(obj).parameters:
                taking.add(name)
        except ValueError:
            continue
    assert taking == set(_damping_model_calls())


@pytest.mark.parametrize("bad", [0.1, None, "coherent"])
@pytest.mark.parametrize("name", sorted(_damping_model_calls()))
def test_a_bad_damping_model_is_a_domain_error(name, bad):
    call = _damping_model_calls()[name]
    call(bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA))  # the call itself is valid
    expected = f"damping model must be a DecoherenceParams, got {re.escape(repr(bad))}"
    with pytest.raises(bc.DomainError, match=expected):
        call(bad)


def _typed_argument_calls():
    """One call per entry point whose cavity, signal, state, curve or run-configuration argument is ``bad``."""
    cfg = bc.CavityConfig()
    signal = bc.InputSignalSpec("single", 0.0, 10.0)
    params = bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA)
    return {
        "decompose-cfg": lambda bad: bc.decompose(signal, bad, 8),
        "decompose-spec": lambda bad: bc.decompose(bad, cfg, 8),
        "decay_time_map-cfg": lambda bad: bc.decay_time_map(bad, params, 8),
        "sweep_x0-cfg": lambda bad: bc.sweep_x0(signal, [0.0], bad, params, N=8),
        "purity_curve-state": lambda bad: bc.purity_curve(bad, 1.0, params),
        "fit_purity-curve": lambda bad: bc.fit_purity(bad),
        "SpectralState-cfg": lambda bad: bc.SpectralState(bad, [1.0]),
        "velocity-state": lambda bad: bc.velocity(bad, 0.0, 1.0),
        "velocity_map-state": lambda bad: bc.velocity_map(bad, [0.0], [1.0]),
        "carpet-state": lambda bad: bc.carpet(bad, bc.SpaceTimeGrid([0.0, 1.0], [0.0, 1.0])),
        "density_map-state": lambda bad: decoherence.density_map(bad, [0.0], [0.0]),
        "integrate_ensemble-state": lambda bad: bc.integrate_ensemble(bad, bc.EnsembleSpec(count=2), 1.0),
        "purity-state": lambda bad: bc.purity(bad, 0.0, params),
        "wavefunction-state": lambda bad: bc.wavefunction(bad, [0.0], 0.0),
        "density_matrix_grid-state": lambda bad: bc.density_matrix_grid(bad, [0.0], [0.0], 0.0, params),
        "integrate_trajectory-state": lambda bad: bc.integrate_trajectory(bad, 0.0, 1.0),
        "asymptotic_density-state": lambda bad: bc.asymptotic_density(bad, [0.0]),
        "run-config": lambda bad: bc.run(bad),
    }


@pytest.mark.parametrize("bad", [None, [1.0, 2.0]], ids=["None", "list"])
@pytest.mark.parametrize("name", sorted(_typed_argument_calls()))
def test_a_wrongly_typed_argument_is_a_domain_error(name, bad):
    # each of these used to raise AttributeError from inside the call
    with pytest.raises(bc.DomainError, match=f"must be an instance of .*, got {re.escape(repr(bad))}$"):
        _typed_argument_calls()[name](bad)


def _spec_arguments():
    """(function, parameter name, class) of every parameter of a public function
    of the package or of one of its modules whose annotation is one of the
    package's classes."""
    found = []
    for _, obj in sorted(_public_callables().items()):
        if not inspect.isfunction(obj):
            continue
        for argument, hint in typing.get_type_hints(obj).items():
            if argument != "return" and inspect.isclass(hint) and hint.__module__.startswith("boxcarpets"):
                found.append((obj, argument, hint))
    return found


# a valid value for each required argument that is not a spec, by name; an
# argument annotated float takes the first entry
_PLAIN_ARGUMENTS = {
    "alpha": 1, "alpha_prime": 3, "alphas": [1, 2, 3], "x": [-1.0, 0.0, 1.0], "x_prime": [-1.0, 0.0, 1.0],
    "x0": 0.0, "t": 1.0, "t_end": 1.0, "t_max": 1.0, "times": [1.0], "centers": [0.0],
    "coeffs": [1.0], "values": [[0.0, 0.0], [0.0, 0.0]], "quantity": "density", "N": 8, "path": os.devnull,
}


def _valid_specs():
    cfg = bc.CavityConfig()
    signal = bc.InputSignalSpec("single", 0.0, 10.0)
    params = bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA)
    state = bc.decompose(signal, cfg, 8)
    return {
        bc.CavityConfig: cfg,
        bc.InputSignalSpec: signal,
        bc.SpectralState: state,
        bc.DecoherenceParams: params,
        bc.EnsembleSpec: bc.EnsembleSpec(count=2),
        bc.RunConfig: bc.RunConfig(),
        bc.FitSpec: bc.FitSpec(),
        bc.PurityCurve: bc.purity_curve(state, 1.0, params, 50),
        bc.SpaceTimeGrid: bc.SpaceTimeGrid([0.0, 1.0], [0.0, 1.0]),
    }


@pytest.mark.parametrize("function, argument, spec", _spec_arguments(), ids=lambda v: getattr(v, "__name__", v))
def test_every_spec_argument_of_the_api_is_type_checked(function, argument, spec):
    # found from the signatures, so a function added later is covered too;
    # 28 of these used to raise AttributeError given None
    hints, valid = typing.get_type_hints(function), _valid_specs()
    kwargs = {}
    for parameter in inspect.signature(function).parameters.values():
        hint = hints.get(parameter.name)
        if parameter.name == argument:
            kwargs[argument] = None
        elif parameter.kind is parameter.VAR_KEYWORD or parameter.default is not parameter.empty:
            continue
        elif hint in valid:
            kwargs[parameter.name] = valid[hint]
        else:
            value = _PLAIN_ARGUMENTS[parameter.name]
            kwargs[parameter.name] = np.ravel(value)[0].item() if hint is float else value
    with pytest.raises(bc.DomainError, match=f"{spec.__name__}, got None$"):
        function(**kwargs)


def _spec_fields():
    """(class name, field name, class, optional) of every field of a dataclass
    that ``boxcarpets`` exports whose annotation is one of the package's
    classes, or, with ``optional``, one of them or None."""
    found = []
    for name, obj in sorted(vars(bc).items()):
        if name.startswith("_") or not (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
            continue
        hints = typing.get_type_hints(obj)
        for field in dataclasses.fields(obj):
            options = typing.get_args(hints[field.name]) or (hints[field.name],)
            specs = [o for o in options if inspect.isclass(o) and o.__module__.startswith("boxcarpets")]
            if len(specs) == 1 and set(options) <= {specs[0], type(None)}:
                found.append((name, field.name, specs[0], type(None) in options))
    return found


@pytest.mark.parametrize(
    "name, field, spec, optional", _spec_fields(), ids=lambda v: v.__name__ if inspect.isclass(v) else str(v)
)
def test_every_spec_field_of_the_api_is_type_checked(name, field, spec, optional):
    # found from the annotations, so a field added later is covered too; 9 of
    # these used to construct, or raise AttributeError, given None
    cls, valid = getattr(bc, name), _valid_specs()
    hints = typing.get_type_hints(cls)
    kwargs = {field: None}
    for f in dataclasses.fields(cls):
        if f.name != field and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            hint = hints[f.name]
            kwargs[f.name] = valid[hint] if hint in valid else _PLAIN_ARGUMENTS[f.name]
    if optional:
        assert getattr(cls(**kwargs), field) is None
    else:
        with pytest.raises(bc.DomainError, match=f"{spec.__name__}, got None$"):
            cls(**kwargs)


@pytest.mark.parametrize("bad", ["x", bc.CavityConfig()], ids=["str", "cavity"])
def test_a_spectral_state_signal_is_a_signal_spec_or_none(bad):
    # None records no signal; anything else used to construct, and every later call failed
    signal = bc.InputSignalSpec("single", 0.0, 10.0)
    assert bc.SpectralState(bc.CavityConfig(), [1.0], signal).signal == signal
    assert bc.SpectralState(bc.CavityConfig(), [1.0]).signal is None
    expected = f"signal must be an instance of InputSignalSpec, got {re.escape(repr(bad))}$"
    with pytest.raises(bc.DomainError, match=expected):
        bc.SpectralState(bc.CavityConfig(), [1.0], signal=bad)
