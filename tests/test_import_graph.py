"""Module structure of the package: relative imports sit at module level, the
modules import each other without a cycle, and no definition lacks a caller.
The tests' oracles import numpy and the standard library only."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boxcarpets"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported(node: ast.ImportFrom) -> set[str]:
    """Package modules named by a relative import: ``from .a import x`` or ``from . import a``."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def test_no_relative_import_inside_a_function():
    local = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{name}.{func.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level
                ]
    assert not local, f"relative imports inside functions: {local}"


def test_module_level_imports_form_no_cycle():
    graph = {
        name: set().union(*(_imported(n) for n in tree.body if isinstance(n, ast.ImportFrom) and n.level))
        for name, tree in _modules().items()
    }
    assert {"spectral", "flow", "evolution", "energy"} <= graph.keys()
    # peel off modules whose imports are all peeled already; a cycle never peels
    while graph:
        leaves = {name for name, deps in graph.items() if not deps & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}"
        graph = {name: deps for name, deps in graph.items() if name not in leaves}


def test_every_module_level_definition_is_named_somewhere():
    # a top-level function or class must be imported by __init__.py or named in
    # some package module; its own def or class line is no Name node
    modules = _modules()
    named = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert not unused, f"definitions with no caller: {unused}"


def test_the_oracles_import_numpy_and_the_standard_library_only():
    # a reference that ran through the package's evaluators would share their faults
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert "numpy" in imported
    foreign = sorted(imported - {"numpy"} - sys.stdlib_module_names)
    assert not foreign, f"tests/oracles.py imports {foreign}"
