"""Module structure of the package: relative imports sit at module level and
the modules import each other without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boxcarpets"


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
