"""Every public function, class and method of the package has a user, and
every module-level import is referenced in its file."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "distspec"


def public_definitions(path):
    """Public top-level functions and classes, and the public methods of
    top-level classes, defined in one source file."""
    defs = []
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for n in [node, *members]:
            if (isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and not n.name.startswith("_")):
                defs.append(n.name)
    return defs


def test_every_public_name_is_used():
    defs = [name for path in sorted(SRC.glob("*.py"))
            for name in public_definitions(path)]
    # every word in the sources, so that names in strings count too
    words = Counter(word for d in ("src", "tests", "bench")
                    for p in (ROOT / d).rglob("*.py")
                    for word in re.findall(r"\w+", p.read_text()))
    dead = sorted(name for name in set(defs) if words[name] <= defs.count(name))
    assert dead == []


def unused_imports(path):
    """Names imported at module level and never referenced in the file."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_every_import_is_used():
    # __init__.py imports in order to re-export
    unused = sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                    if path.name != "__init__.py"
                    for name in unused_imports(path))
    assert unused == []


def test_import_guard_sees_an_unused_name(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from __future__ import annotations\nimport os.path\n"
                   "from math import comb, pi\nimport numpy as np\n"
                   "x = np.zeros(pi)\n")
    assert unused_imports(src) == {"os", "comb"}
