"""The numeric and exact routes share no code with library eigensolvers."""

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


@pytest.mark.parametrize("module", ["jacobi.py", "exact.py", "distances.py"])
def test_no_library_eigensolver(module):
    path = Path(distspec.__file__).parent / module
    assert not referenced_names(path) & FORBIDDEN


def test_guard_sees_a_library_call(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import numpy as np\nnp.linalg.eigvalsh([[1.0]])\n")
    assert referenced_names(src) & FORBIDDEN == {"linalg", "eigvalsh"}
