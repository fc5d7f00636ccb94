"""Every public function, class and method of the package has a user."""

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
