"""The numeric and exact routes share no code with library eigensolvers,
and the three routes import nothing of each other."""

import ast
from pathlib import Path

import pytest

import distspec

FORBIDDEN = {"linalg", "eigh", "eigvalsh", "eigvals", "scipy"}


def referenced_names(path):
    """Every name, attribute and imported module part in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    return names


@pytest.mark.parametrize("module", ["jacobi.py", "exact.py", "distances.py",
                                    "bounds.py"])
def test_no_library_eigensolver(module):
    path = Path(distspec.__file__).parent / module
    assert not referenced_names(path) & FORBIDDEN


# What each route may import from the package: only the shared value types.
ROUTE_IMPORTS = {"closedforms.py": {"spectra"}, "srg.py": {"spectra"},
                 "exact.py": {"spectra"}, "jacobi.py": set()}


def package_imports(path):
    """The package modules a source file imports, by relative or absolute
    import."""
    mods = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "distspec":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                mods.add(parts[0])
            else:
                mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            mods.update(alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("distspec."))
    return mods


@pytest.mark.parametrize("module", sorted(ROUTE_IMPORTS))
def test_routes_import_only_shared_types(module):
    path = Path(distspec.__file__).parent / module
    assert package_imports(path) <= ROUTE_IMPORTS[module]


def test_import_guard_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from .exact import Inertia\nfrom . import jacobi\n"
                   "from distspec.graphs import path\nimport distspec.srg\n"
                   "from math import comb\n")
    assert package_imports(src) == {"exact", "jacobi", "graphs", "srg"}


def test_guard_sees_a_library_call(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import numpy as np\nnp.linalg.eigvalsh([[1.0]])\n")
    assert referenced_names(src) & FORBIDDEN == {"linalg", "eigvalsh"}
