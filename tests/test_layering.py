"""Module layering of the package, read from its source with ast.

The exact layer (phases, reporting, algebra, operators) and the Landau
checker stay apart from the floating-point spectral module and the CLI,
and every import sits at module top, where the dependency graph shows it.
"""

import ast
from pathlib import Path

import pytest

import fluxlattice

PACKAGE = Path(fluxlattice.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
BELOW_SPECTRAL = ["phases", "reporting", "algebra", "operators", "landau"]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules `tree` imports anywhere, by their short names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["fluxlattice" if node.level else "", node.module]))
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(d.split(".")[1] for d in dotted if d.startswith("fluxlattice."))
    return names


@pytest.mark.parametrize("name", BELOW_SPECTRAL)
def test_module_imports_neither_spectral_nor_cli(name):
    assert package_imports(parse(PACKAGE / f"{name}.py")) & {"spectral", "cli"} == set()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_function_imports_inside_its_body(path):
    nested = [f"{fn.name} line {node.lineno}"
              for fn in ast.walk(parse(path))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_the_scan_sees_relative_and_absolute_imports():
    tree = ast.parse("from . import spectral\nfrom .cli import main\n"
                     "import fluxlattice.phases\nfrom fluxlattice import algebra\n")
    assert package_imports(tree) == {"spectral", "cli", "phases", "algebra"}
