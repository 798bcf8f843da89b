"""Module layering of the package, read from its source with ast.

The exact layer (phases, reporting, algebra, operators) and the Landau
checker stay apart from the floating-point spectral module and the CLI,
and every import sits at module top, where the dependency graph shows it.
The package namespace is exactly the union of the modules' `__all__`, and
every function and class in it has a docstring in the source.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import fluxlattice

PACKAGE = Path(fluxlattice.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
BELOW_SPECTRAL = ["phases", "reporting", "algebra", "operators", "landau"]
# operators still imports numpy for truncate alone; moving truncate into the
# floating-point layer (ROADMAP item 11) would add it here
WITHOUT_NUMPY = ["phases", "reporting", "algebra"]
EXPORTING = ["phases", "algebra", "operators", "reporting", "spectral", "landau"]
# the 55 names the package has exported all along; none may be dropped
EXPORTED_BEFORE = {
    "Classification", "DualCharacter", "ExactPhase", "Flux", "RationalFluxError",
    "bicharacter", "classify", "coboundary", "cocycle", "mu", "wedge",
    "AlgebraElement", "Monomial", "adjoint", "conjugate_by_translation",
    "conjugate_by_zeta", "derive_invariant_basis", "generator", "harper_element",
    "is_invariant", "multiply", "one", "scalar",
    "BasisMapOperator", "CommutantReport", "DistinguishedRep", "IntForm", "PhaseForm",
    "SiteMap", "TruncatedOperator", "WavefunctionRep", "build_distinguished",
    "build_wavefunction", "commutant_monomial_check", "commutator",
    "gauge_intertwiner", "gauge_report", "truncate", "verify_relations",
    "RelationCheck", "RelationReport",
    "ApproximantSequence", "ButterflyDataset", "SpectrumEstimate",
    "approximant_spectra", "butterfly", "flux_values", "hausdorff_distance", "spectrum",
    "LandauOperators", "bracket_report", "build_landau", "hamiltonian_spectrum",
    "level_degeneracies", "lorentz_check",
}


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


@pytest.mark.parametrize("name", WITHOUT_NUMPY)
def test_exact_module_never_imports_numpy(name):
    imported = set()
    for node in ast.walk(parse(PACKAGE / f"{name}.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "numpy"} == set()


def test_init_only_reexports_each_module():
    stars = []
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and [a.name for a in node.names] == ["*"]
            stars.append(node.module)
        elif isinstance(node, ast.Assign):
            assert [t.id for t in node.targets] == ["__version__"]
        else:
            assert isinstance(node, ast.Expr)  # the docstring
    assert stars == EXPORTING


def exported_without_docstring(tree: ast.Module) -> list[str]:
    """Functions and classes named in the module's `__all__` that have no
    docstring in the source; a dataclass's generated one does not count."""
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
                for elt in node.value.elts}
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in exported and ast.get_docstring(node) is None]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_function_and_class_has_a_docstring(name):
    assert exported_without_docstring(parse(PACKAGE / f"{name}.py")) == []


def test_the_docstring_scan_ignores_private_and_generated_docstrings():
    tree = ast.parse('__all__ = ["Bare", "bare", "kept"]\n'
                     "@dataclass\nclass Bare:\n    x: int\n"
                     "def bare():\n    return 1\n"
                     'def kept():\n    """Doc."""\n'
                     "def _private():\n    return 2\n")
    assert exported_without_docstring(tree) == ["Bare", "bare"]


def test_package_exports_exactly_the_union_of_all():
    modules = [importlib.import_module(f"fluxlattice.{name}") for name in EXPORTING]
    union = set()
    for module in modules:
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], module.__name__
        union.update(module.__all__)
    public = {name for name, value in vars(fluxlattice).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == union
    assert EXPORTED_BEFORE <= public
