"""Layout of the package: every import sits at module level, the modules of
the package import each other without a cycle, the package and its command
line load no scipy, no module imports warnings or reads the environment,
every exception the package raises is one that the command line maps to an
exit code, no module asserts, one check validates what the package builds,
the command line takes no private name from another module, the
package exports only what a command, a demo or an acceptance criterion
uses, with the types those calls return, only ``mdp`` builds induced
chains, and one scan reads the policy table."""

import ast
import builtins
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdp_stability"
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


def imported_roots(tree):
    """Top-level names of the modules outside the package that ``tree``
    imports."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_scipy_import(name):
    # numpy is the package's only runtime dependency; scipy serves the
    # tests' oracles alone.
    assert "scipy" not in imported_roots(MODULES[name])


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_warnings_import(name):
    # The package issues no warnings: an input it cannot answer for is
    # rejected, and every numerical answer it returns is certified.
    assert "warnings" not in imported_roots(MODULES[name])


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_environment_read(name):
    # Every setting of the package is an argument or a constant, such as
    # safety.BLOCK_BYTES; none hides in the environment.
    tree = MODULES[name]
    reads = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             and node.attr in ENVIRONMENT_READS]
    reads += [f"from os import {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in ENVIRONMENT_READS]
    assert reads == []


def test_cli_import_leaves_scipy_optimize_out():
    # Every command pays the import of the command line; the package's own
    # transportation simplex and dense pair solve need no scipy module.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mdp_stability.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# Raised exceptions that signal a programming error, not an input or a
# numerical outcome: (module, function, class).
UNMAPPED_BY_DESIGN = {("cli", "render_json", "TypeError")}


def raised_classes():
    """(module, innermost function, class name) of every ``raise`` of a
    class in the package; a bare re-raise names no class."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            found.add((module, function, ast.unparse(exc)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for name, tree in MODULES.items():
        visit(tree, name, None)
    return found


def ancestors(name, classes):
    """``name`` and the names of its base classes, from the package's own
    class definitions and from the builtins."""
    if name in classes:
        return {name}.union(*(ancestors(base, classes)
                              for base in classes[name]))
    cls = getattr(builtins, name, None)
    assert isinstance(cls, type) and issubclass(cls, BaseException), name
    return {c.__name__ for c in cls.__mro__}


def test_every_raised_exception_maps_to_an_exit_code():
    classes = {node.name: [ast.unparse(base) for base in node.bases]
               for tree in MODULES.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    main = next(node for node in ast.walk(MODULES["cli"])
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = {ast.unparse(handler.type).split(".")[-1]
               for handler in ast.walk(main)
               if isinstance(handler, ast.ExceptHandler)}
    assert {"ValueError", "NonConvergence", "RuntimeError"} <= handled
    unmapped = sorted(
        (module, function, name)
        for module, function, name in raised_classes()
        if not ancestors(name, classes) & handled
        and (module, function, name) not in UNMAPPED_BY_DESIGN)
    assert unmapped == []


def test_main_maps_unusable_paths_and_instances_to_input_errors():
    # A path that cannot be read or written (OSError) and an instance too
    # large to allocate (MemoryError) or to draw (OverflowError).
    main = next(node for node in ast.walk(MODULES["cli"])
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = {ast.unparse(name) for handler in ast.walk(main)
               if isinstance(handler, ast.ExceptHandler)
               for name in (handler.type.elts
                            if isinstance(handler.type, ast.Tuple)
                            else [handler.type])}
    assert {"OSError", "OverflowError", "MemoryError"} <= handled


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_assert(name):
    # python -O strips an assert; every check of the package raises.
    lines = [node.lineno for node in ast.walk(MODULES[name])
             if isinstance(node, ast.Assert)]
    assert lines == []


def test_one_check_validates_what_the_package_builds():
    # mdp.checked raises with the report; the validate command prints it.
    callers = sorted(f"{name}.{func.name}" for name, tree in MODULES.items()
                     for func in ast.walk(tree)
                     if isinstance(func, ast.FunctionDef)
                     for node in ast.walk(func)
                     if isinstance(node, ast.Call)
                     and ast.unparse(node.func).split(".")[-1] == "validate")
    assert callers == ["cli.cmd_validate", "mdp.checked"]


def package_names(tree):
    """(module, name) of every name that ``tree`` imports from the package
    or one of its modules; the module is None for the package itself."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level:
            module = parts[0] or None
        elif parts[0] == "mdp_stability":
            module = parts[1] if len(parts) > 1 else None
        else:
            continue
        found.update((module, alias.name) for alias in node.names)
    return found


def test_cli_imports_no_private_name():
    private = sorted(f"{module}.{name}"
                     for module, name in package_names(MODULES["cli"])
                     if module and name.startswith("_"))
    assert private == []


# The users of the package's public surface: the command line, the demos,
# the acceptance criteria and the benchmark driver.
USERS = [MODULES["cli"]] + [
    ast.parse(path.read_text(), filename=str(path))
    for path in sorted((ROOT / "demos").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "run.py"]]
# Exported names that no user imports, each with its reason.
UNUSED_BY_DESIGN = {
    "AlignmentResult": "returned by align_reward_scale",
    "CrossMetric": "returned by cross_bisim_metric",
    "IsolationResult": "returned by isolation_check",
    "QuotientResult": "returned by bisim_quotient",
    "ValidationReport": "returned by validate",
    "ValueFunction": "returned by value_iteration",
    "DiffPolicy": "returned by make_toy_policy",
    "OnPolicyAnalysis": "returned by analyze_chain",
    "PerturbationBoundReport": "returned by chain_perturbation_bound",
    "RateReport": "returned by rate_of_decrease_check",
    "SafetyCertificate": "returned by certify_safety",
    "StabilityReport": "returned by verify_stability_instance",
    "TransportSolution": "returned by solve_transport",
}


def exported():
    """{name: module} of the names that ``__init__`` re-exports."""
    return {name: module
            for module, name in package_names(MODULES["__init__"])}


def referenced(tree):
    """The names that ``tree`` reads outside its imports, as plain names
    or as attributes."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def used():
    """The names that a user imports from the package and then refers to
    outside the import."""
    return {name for tree in USERS for _, name in package_names(tree)
            if name in referenced(tree)}


def test_every_export_has_a_user():
    unused = set(exported()) - used()
    assert sorted(unused - set(UNUSED_BY_DESIGN)) == []
    # An entry whose name is gone or has found a user goes too.
    assert sorted(set(UNUSED_BY_DESIGN) - unused) == []


@pytest.mark.parametrize("name", sorted(UNUSED_BY_DESIGN))
def test_an_unused_export_is_returned_by_a_used_one(name):
    function = UNUSED_BY_DESIGN[name].removeprefix("returned by ")
    assert function in used() and function in exported()
    [definition] = [node for node in ast.walk(MODULES[exported()[function]])
                    if isinstance(node, ast.FunctionDef)
                    and node.name == function]
    assert ast.unparse(definition.returns) == name


@pytest.mark.parametrize("module", sorted(set(exported().values())))
def test_module_all_lists_what_the_package_exports(module):
    [listed] = [node.value for node in MODULES[module].body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["__all__"]]
    assert sorted(ast.literal_eval(listed)) \
        == sorted(name for name, m in exported().items() if m == module)


def test_only_mdp_constructs_induced_chains():
    # One chain builder: induce_chain and the certificates' blocks share
    # mdp._chains.
    builders = sorted(name for name, tree in MODULES.items()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1]
                      == "InducedChain")
    assert builders == ["mdp"]


def test_one_member_scan_reads_the_policy_table():
    # certify_safety and safety_frontier share safety._scan, the one loop
    # over the policy table's members.
    callers = sorted(f"{name}.{func.name}" for name, tree in MODULES.items()
                     for func in ast.walk(tree)
                     if isinstance(func, ast.FunctionDef)
                     for node in ast.walk(func)
                     if isinstance(node, ast.Call)
                     and ast.unparse(node.func).split(".")[-1]
                     == "_policy_table")
    assert callers == ["safety._scan"]
