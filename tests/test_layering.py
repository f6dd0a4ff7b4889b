"""Each module of the package imports only from the layers below it."""

import ast
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
