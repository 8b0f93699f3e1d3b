"""One spelling per setting in the public signatures: the damping model is
always a ``DecoherenceParams`` (its default is the coherent model, never
None), and an ensemble is seeded explicitly exactly when it has seeds."""

import importlib
import inspect
import pkgutil

import boxcarpets as bc


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
    assert not offenders, f"second spellings of a setting: {offenders}"
