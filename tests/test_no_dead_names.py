"""Every public function, class and method of the package has a user,
every public top-level function and class is named in code outside the
tests, every module-level import of the package and the tests is
referenced in its file, and every optional parameter is set by some call."""

import ast
import re
from collections import Counter, defaultdict
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


def code_names(path):
    """Names and attributes read, and imported names, in the code of one
    file; names assigned to, and words in strings, comments and docstrings,
    do not count."""
    names = Counter()
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def unused_outside_tests(sources, users):
    """Public top-level functions and classes of the sources, and public
    methods and properties of their top-level classes, that the code of no
    user file names.  Members go by name alone, so a member shares its
    reader with any attribute of the same name."""
    defs = {name for path in sources for name in public_definitions(path)}
    names = sum((code_names(p) for p in users), Counter())
    return sorted(name for name in defs if not names[name])


# Names kept for routes that ROADMAP plans but no command has yet.
RESERVED = {
    "symplectic_params",  # item 7: symplectic graphs as a family
    "orthogonal_params",  # item 7: orthogonal graphs as a family
}


def test_no_public_name_serves_only_tests():
    # helpers that only tests call belong in tests/; __init__.py only
    # re-exports, so it does not count as a user
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users = sources + sorted((ROOT / "bench").rglob("*.py"))
    assert sorted(set(unused_outside_tests(sources, users)) - RESERVED) == []


def test_test_only_guard_sees_a_test_only_name(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def used():\n    pass\n\n\ndef only_tested():\n"
                   "    pass\n\n\nclass Kept:\n    def method(self):\n"
                   "        pass\n\n\ndef _private():\n    pass\n\n\n"
                   "def only_named_in_words():\n    \"\"\"Not "
                   "only_named_in_words.\"\"\"\n\n\nx = used()\n")
    bench = tmp_path / "bench.py"
    bench.write_text("Kept().method()\n"
                     "y = {'only_named_in_words': 1}  # only_named_in_words\n")
    assert unused_outside_tests([src], [src, bench]) == [
        "only_named_in_words", "only_tested"]


def test_test_only_guard_sees_a_test_only_member(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("class Box:\n    def read(self):\n        pass\n\n"
                   "    @property\n    def size(self):\n        return 0\n\n"
                   "    def _private(self):\n        pass\n\n\nBox().read()\n")
    assert unused_outside_tests([src], [src]) == ["size"]


def test_test_only_guard_sees_past_a_field_of_the_same_name(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def width(x):\n    return x\n\n\nclass Report:\n"
                   "    width: int\n\n\nr = Report()\nr.width = 4\n")
    assert unused_outside_tests([src], [src]) == ["width"]


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
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = sorted(f"{path.stem}.{name}" for path in paths
                    for name in unused_imports(path))
    assert unused == []


def test_import_guard_sees_an_unused_name(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from __future__ import annotations\nimport os.path\n"
                   "from math import comb, pi\nimport numpy as np\n"
                   "x = np.zeros(pi)\n")
    assert unused_imports(src) == {"os", "comb"}


def optional_parameters(path):
    """(callee, parameter, index) for each optional parameter of each def
    in one source file.  The callee is the name calls use: the class for
    `__init__`.  The index counts positional parameters after self, and is
    None for a keyword-only one."""
    found = []

    def visit(node, cls):
        for n in ast.iter_child_nodes(node):
            if isinstance(n, ast.ClassDef):
                visit(n, n.name)
                continue
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = n.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in n.decorator_list)
                if cls and not static:
                    positional = positional[1:]
                callee = cls if n.name == "__init__" else n.name
                first = len(positional) - len(a.defaults)
                found.extend((callee, arg.arg, i) for i, arg in
                             enumerate(positional) if i >= first)
                found.extend((callee, arg.arg, None) for arg, d in
                             zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            visit(n, None)

    visit(ast.parse(path.read_text()), None)
    return found


def calls_by_name(paths):
    """Every call in the files, keyed by the called name or attribute."""
    calls = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                calls[name].append(node)
    return calls


def sets_parameter(call, name, index):
    """True when the call passes the parameter: by keyword, by position,
    or through ** (any parameter) or * (a positional one)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def inert_parameters(sources, callers):
    """`file.callee(parameter)` for each optional parameter of the sources
    that no call in the callers sets."""
    calls = calls_by_name(callers)
    return sorted(f"{path.stem}.{callee}({name})" for path in sources
                  for callee, name, index in optional_parameters(path)
                  if not any(sets_parameter(c, name, index)
                             for c in calls[callee]))


def test_every_optional_parameter_is_set():
    callers = [p for d in ("src", "tests", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert inert_parameters(sorted(SRC.glob("*.py")), callers) == []


def test_parameter_guard_sees_an_unset_parameter(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def f(x, y=1, *, z=2, w=3):\n    pass\n"
                   "class C:\n    def __init__(self, a=0, b=0):\n        pass\n"
                   "    def m(self, c=0):\n        pass\n")
    use = tmp_path / "use.py"
    use.write_text("f(0, w=1)\nC(5)\nC().m(*[1])\n")
    assert inert_parameters([src], [src, use]) == [
        "probe.C(b)", "probe.f(y)", "probe.f(z)"]
