"""Spans around the public functions of every distspec module.

The tracer times the package from outside.  `Tracer.install` wraps each
public function defined in a distspec module and rebinds the wrapper
wherever callers look the function up: module globals (so
`distspec.cli.sym_eigenvalues` is wrapped as well as
`distspec.jacobi.sym_eigenvalues`) and the function tables that hold
references (`cli.FAMILIES`, `cli.DET_FORMULAS`).  No file of the package
changes, and `Tracer.uninstall` puts every original back.

A span records its name, start, end, parent span and request id, plus the
work counters the benchmark reports (matrix orders, vertices built, ...).
Spans are only recorded while a request is open, so the benchmark's own
reference checks never show up.  A module's self time is the sum over its
spans of the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import Counter

MODULES = ("graphs", "distances", "closedforms", "srg", "exact", "jacobi",
           "spectra", "bounds", "cli")

# exact routines reported one by one, keyed by their metric prefix
EXACT_SPLIT = {"det_exact": "exact.det", "inertia_exact": "exact.inertia",
               "distinct_eigenvalue_count": "exact.distinct"}

# counts that must repeat exactly between two runs with the same seed
COUNT_KEYS = tuple(f"{m}.calls" for m in MODULES) + tuple(
    f"{p}.calls" for p in EXACT_SPLIT.values()) + (
    "jacobi.order3_sum", "exact.order3_sum", "graphs.vertices_built",
    "distances.pairs", "bounds.trees_enumerated")

# every per-module metric of a traced run, with its unit
PER_LAYER = (
    [(f"{m}.{k}", u) for m in MODULES for k, u in (("calls", "count"),
                                                  ("busy_s", "s"))]
    + [(f"{p}.{k}", u) for p in EXACT_SPLIT.values()
       for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("jacobi.order3_sum", "count"), ("jacobi.max_abs_error", "1"),
       ("jacobi.errors", "count"), ("exact.order3_sum", "count"),
       ("exact.errors", "count"), ("graphs.vertices_built", "count"),
       ("graphs.edges_built", "count"), ("graphs.useful_ratio", "1"),
       ("graphs.errors", "count"), ("distances.pairs", "count"),
       ("distances.errors", "count"), ("bounds.trees_enumerated", "count"),
       ("trace.overhead_ratio", "1"), ("trace.spans", "count")])


def _probe(module: str, name: str, args, result) -> dict | None:
    """Work counters of one finished call, or None."""
    if module == "jacobi" and name == "sym_eigenvalues":
        return {"jacobi.order3_sum": len(args[0]) ** 3}
    if module == "exact" and name in EXACT_SPLIT:
        return {"exact.order3_sum": len(args[0]) ** 3}
    if module == "distances" and name == "distance_matrix":
        return {"distances.pairs": len(result) ** 2}
    if module == "bounds" and name in ("enumerate_trees", "trees_from_pruefer"):
        return {"bounds.trees_enumerated": len(result)}
    return None


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self, package):
        self.package = package
        self.graph_type = package.graphs.Graph
        # span: [name, module, start, end, parent, request, child_s, failed, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self._built: dict[int, object] = {}   # graphs built in this request
        self._useful: set[int] = set()
        self.graphs_built = 0
        self.graphs_useful = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrapped = {}
        for mname, mod in mods.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(mname, name, fn)
        for mod in (self.package, *mods.values()):
            for name, value in list(vars(mod).items()):
                new = _rebind(value, wrapped)
                if new is not value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()

    def _wrap(self, module: str, name: str, fn):
        span_name = f"{module}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            rec = [span_name, module, 0.0, 0.0, parent, self.request, 0.0,
                   False, None]
            idx = len(self.spans)
            self.spans.append(rec)
            self._stack.append(idx)
            if module == "distances" and args and id(args[0]) in self._built:
                self._useful.add(id(args[0]))
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[7] = True
                raise
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][6] += rec[3] - rec[2]
            rec[8] = _probe(module, name, args, result)
            if (module == "graphs" and isinstance(result, self.graph_type)
                    and not self._inside(parent, "graphs")):
                self._built[id(result)] = result
                counts = {"graphs.vertices_built": result.n,
                          "graphs.edges_built": result.m}
                rec[8] = {**(rec[8] or {}), **counts}
            return result

        return traced

    def _inside(self, idx, module: str) -> bool:
        return idx is not None and self.spans[idx][1] == module

    # -- requests -----------------------------------------------------------

    def begin(self, request_id) -> None:
        self.request = request_id

    def end(self) -> None:
        self.request = None
        self.graphs_built += len(self._built)
        self.graphs_useful += len(self._useful)
        self._built.clear()
        self._useful.clear()

    # -- results ------------------------------------------------------------

    def counts(self, request_ids=None) -> Counter:
        """Work counters, over all spans or over the given requests."""
        out: Counter = Counter()
        for name, module, _s, _e, parent, req, _c, failed, probe in self.spans:
            if request_ids is not None and req not in request_ids:
                continue
            entry = not self._inside(parent, module)
            if entry:
                out[f"{module}.calls"] += 1
                if failed:
                    out[f"{module}.errors"] += 1
            fname = name.split(".", 1)[1]
            if module == "exact" and fname in EXACT_SPLIT:
                out[f"{EXACT_SPLIT[fname]}.calls"] += 1
            if probe:
                out.update(probe)
        return out

    def busy(self, request_ids=None) -> Counter:
        """Self time in seconds per module and per split exact routine."""
        out: Counter = Counter()
        for name, module, start, end, _p, req, child, _f, _c in self.spans:
            if request_ids is not None and req not in request_ids:
                continue
            own = (end - start) - child
            out[f"{module}.busy_s"] += own
            fname = name.split(".", 1)[1]
            if module == "exact" and fname in EXACT_SPLIT:
                out[f"{EXACT_SPLIT[fname]}.busy_s"] += own
        return out

    def useful_ratio(self) -> float:
        return self.graphs_useful / self.graphs_built if self.graphs_built else 0.0

    def span_dicts(self) -> list[dict]:
        return [{"id": i, "name": s[0], "start": s[2], "end": s[3],
                 "parent": s[4], "request": s[5], "failed": s[7]}
                for i, s in enumerate(self.spans)]


def _rebind(value, wrapped: dict):
    """`value` with every wrapped function swapped in, or `value` itself."""
    if inspect.isfunction(value):
        return wrapped.get(value, value)
    if isinstance(value, dict):
        items = {k: _rebind(v, wrapped) for k, v in value.items()}
        changed = any(items[k] is not v for k, v in value.items())
        return items if changed else value
    if isinstance(value, tuple):
        items = tuple(_rebind(v, wrapped) for v in value)
        changed = any(a is not b for a, b in zip(items, value))
        return items if changed else value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)}
        new = {k: _rebind(v, wrapped) for k, v in fields.items()}
        if any(new[k] is not fields[k] for k in fields):
            return dataclasses.replace(value, **new)
    return value
