"""Import layout of the package: every import sits at module level, and the
modules of the package import each other without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdp_stability"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree):
    """Names of the package modules that ``tree`` imports (``__init__``
    for a name the package itself defines)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            dotted = ([f"mdp_stability.{node.module}"] if node.module else
                      [f"mdp_stability.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            dotted = [node.module]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == "mdp_stability":
                module = parts[1] if len(parts) > 1 else "__init__"
                found.add(module if module in MODULES else "__init__")
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    nested = [f"{func.name}:{node.lineno}"
              for func in ast.walk(MODULES[name])
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_package_import_graph_is_acyclic():
    graph = {name: package_imports(tree) for name, tree in MODULES.items()}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle between package modules: {exc.args[1]}")
