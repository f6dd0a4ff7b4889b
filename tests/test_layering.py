"""Each module of the package imports only from the layers below it."""

import ast
import re
import types
from pathlib import Path

import pytest

import lwrfem

PACKAGE = Path(lwrfem.__file__).parent

# module -> the package modules it may import from
ALLOWED = {
    "linalg": set(),
    "mesh": set(),
    "scenarios": set(),
    "operators": {"mesh", "linalg"},
    "filtering": {"operators", "linalg"},
    "stepping": {"filtering", "linalg", "mesh", "operators", "scenarios"},
    "analysis": {"mesh", "stepping"},
    "cli": {"analysis", "mesh", "scenarios", "stepping"},
}


def syntax_tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """Names of the package modules that `from .x import ...` lines read."""
    found = set()
    for node in ast.walk(syntax_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_every_module_has_an_entry():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == ALLOWED.keys()


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_follow_the_layers(module):
    assert package_imports(module) <= ALLOWED[module]


def test_stepping_reads_no_filter_context():
    # the filter's Newton blocks come from filtering, not from its context
    attributes = {node.attr for node in ast.walk(syntax_tree("stepping"))
                  if isinstance(node, ast.Attribute)}
    assert "ctx" not in attributes


# The package's own names: what the README example and perfbench/worker.py
# import from it, the two exceptions a caller catches, and the scenarios.
SURFACE = {
    "ModelParams", "TimeGrid", "run_time_filtered", "NoConvergenceError",
    "SingularMatrixError", "build_mesh", "assemble", "l2_project",
    "build_filter_context", "run_error_inf", "SCENARIOS", "manufactured",
    "rarefaction", "shock",
}
ROOT = PACKAGE.parents[1]


def names_imported_from_the_package(source: str) -> set[str]:
    """Names that `from lwrfem import ...` lines of source read, submodules excluded."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "lwrfem"
            for alias in node.names} - set(ALLOWED)


def test_package_exports_its_surface():
    public = {name for name, value in vars(lwrfem).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == SURFACE


def test_readme_example_imports_from_the_surface():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    names = names_imported_from_the_package(block)
    assert names and names <= SURFACE


def test_benchmark_worker_imports_from_the_surface():
    names = names_imported_from_the_package(
        (ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    assert names and names <= SURFACE
