"""The four benchmark workloads: inputs, requests and their references.

Every input comes from the workload seed.  A workload is a sequence of
passes; pass k is a list of requests drawn from `random.Random` seeded by
(workload, seed, k), and every pass of a workload has the same size and the
same mix of request kinds, so metrics taken over whole passes do not depend
on how many passes fit in a run.

A request's `run` is the timed part and calls the package only through
module attributes (`graphs.make_graph`, never a name bound at import), so
the tracer's wrappers see every call.  Its `check` is the untimed reference
and returns (ok, worst numeric deviation); `corrupt` damages an answer, for
the self-check that a wrong answer is counted as a failure.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from distspec import (cli, closedforms, distances, exact, graphs, jacobi,
                      spectra, srg)

MATCH_TOL = 1e-8


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, float]]
    corrupt: Callable[[object], object]


def _rng(workload: str, seed: int, k) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


# ---------------------------------------------------------------------------
# closed-form families (the `verify` default grids)

def _fam(gen, closed, order, grid=None, admissible=None):
    return {"gen": gen, "closed": closed, "order": order,
            "grid": grid or {}, "admissible": admissible}


# name -> generator in `graphs`, closed form over `closedforms`, order, grid.
# A copy of the `verify` default grids (`cli.DEFAULT_GRIDS`), so that the
# workload stays the same when the package reorganises its family tables.
FAMILIES = {
    "complete": _fam("complete", lambda cf, n: cf.complete_spectrum(n),
                     lambda n: n, {"n": range(2, 26)}),
    "cycle": _fam("cycle", lambda cf, n: cf.cycle_spectrum(n),
                  lambda n: n, {"n": range(3, 41)}),
    "hypercube": _fam("hypercube", lambda cf, d: cf.hamming_spectrum(d, 2),
                      lambda d: 2 ** d, {"d": range(1, 9)}),
    "hamming": _fam("hamming", lambda cf, d, n: cf.hamming_spectrum(d, n),
                    lambda d, n: n ** d, {"d": range(1, 5), "n": range(2, 5)}),
    "shrikhande": _fam("shrikhande",
                       lambda cf: cf.shrikhande_power_spectrum(1), lambda: 16),
    "doob": _fam("doob", lambda cf, m, d: cf.doob_spectrum(m, d),
                 lambda m, d: 4 ** (2 * m + d), {"m": range(1, 3), "d": range(0, 2)}),
    "johnson": _fam("johnson", lambda cf, n, r: cf.johnson_spectrum(n, r),
                    comb, {"n": range(2, 10), "r": range(1, 9)},
                    lambda n, r: 1 <= r <= n - 1),
    "kneser": _fam("kneser", lambda cf, n, r: cf.kneser_spectrum(n, r),
                   comb, {"n": range(3, 10), "r": range(1, 5)},
                   lambda n, r: n > 2 * r),
    "odd": _fam("odd_graph", lambda cf, r: cf.kneser_spectrum(2 * r + 1, r),
                lambda r: comb(2 * r + 1, r), {"r": range(2, 5)}),
    "double-odd": _fam("double_odd", lambda cf, r: cf.double_odd_spectrum(r),
                       lambda r: 2 * comb(2 * r + 1, r), {"r": range(2, 4)}),
    "halved-cube": _fam("halved_cube", lambda cf, d: cf.halved_cube_spectrum(d),
                        lambda d: 2 ** (d - 1), {"d": range(4, 10)}),
    "cocktail-party": _fam("cocktail_party",
                           lambda cf, m: cf.cocktail_party_spectrum(m),
                           lambda m: 2 * m, {"m": range(2, 9)}),
    "petersen": _fam("petersen", lambda cf: cf.kneser_spectrum(5, 2), lambda: 10),
    "icosahedron": _fam("icosahedron", lambda cf: cf.icosahedron_spectrum(),
                        lambda: 12),
    "dodecahedron": _fam("dodecahedron", lambda cf: cf.dodecahedron_spectrum(),
                         lambda: 20),
}


def family_instances(max_order: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(family, params, order) over every default grid, up to max_order."""
    out = []
    for name, fam in FAMILIES.items():
        points = [()]
        for axis in fam["grid"].values():
            points = [p + (v,) for p in points for v in axis]
        for p in points:
            if fam["admissible"] and not fam["admissible"](*p):
                continue
            n = fam["order"](*p)
            if n <= max_order:
                out.append((name, p, n))
    return out


def _build(name: str, params) -> graphs.Graph:
    return getattr(graphs, FAMILIES[name]["gen"])(*params)


def _closed(name: str, params):
    return FAMILIES[name]["closed"](closedforms, *params)


def _label(name: str, params) -> str:
    return f"{name}({','.join(map(str, params))})"


def _expanded(spec) -> list[float]:
    """Eigenvalues of a Spectrum as floats, repeated, descending."""
    out = []
    for value, mult in spec.entries:
        out += [float(value)] * mult
    return sorted(out, reverse=True)


def _deviation(a: list[float], b: list[float]) -> float:
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _same_spectrum(a, b, tol: float) -> bool:
    """Same multiplicity pattern, values within tol; the benchmark's own
    comparison, independent of `spectra.spectra_match`."""
    if len(a.entries) != len(b.entries):
        return False
    return all(ma == mb and abs(float(va) - float(vb)) < tol
               for (va, ma), (vb, mb) in zip(a.entries, b.entries))


def _shift_first(values: list[float]) -> list[float]:
    return [values[0] + 1e-3] + list(values[1:])


# ---------------------------------------------------------------------------
# family-spectra: closed form against the numeric route, each instance once

class FamilySpectra:
    """Every default-grid instance with a closed form and order <= 256."""

    name = "family-spectra"
    max_order = 256

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = family_instances(self.max_order)
        self.pass_size = len(self.instances)

    def _request(self, name, params, n) -> Request:
        def run():
            g = _build(name, params)
            dm = distances.distance_matrix(g)
            cf = _closed(name, params)
            vals = jacobi.sym_eigenvalues(dm)
            num = spectra.cluster_to_spectrum(vals)
            return cf.spectrum, num, vals, spectra.spectra_match(
                cf.spectrum, num, tol=MATCH_TOL)

        def check(ans):
            closed, num, vals, match = ans
            err = _deviation(_expanded(closed), list(vals))
            ok = (match and len(vals) == n and num.dimension == n
                  and err < MATCH_TOL and _same_spectrum(closed, num, MATCH_TOL))
            return ok, err

        def corrupt(ans):
            closed, num, vals, match = ans
            return closed, num, _shift_first(vals), match

        return Request(f"{_label(name, params)} n={n}", run, check, corrupt)

    def warmup(self) -> list[Request]:
        # outside the grids, so the timed pass still sees each instance once
        return [self._request("complete", (26,), 26),
                self._request("cycle", (41,), 41)]

    def pass_requests(self, k: int) -> list[Request]:
        order = list(self.instances)
        _rng(self.name, self.seed, k).shuffle(order)
        return [self._request(*inst) for inst in order]


# ---------------------------------------------------------------------------
# random-spectra: unstructured distance matrices through the numeric route

def random_connected(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random recursive spanning tree on shuffled labels plus G(n, p) edges."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = set()
    for i in range(1, n):
        u, v = labels[rng.randrange(i)], labels[i]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


class RandomSpectra:
    """Seeded random connected graphs of order 40-150 and four densities.

    Request i of a pass has order 40 + 110 u^4 at the midpoint u of the
    i-th of `pass_size` equal strata, and density i mod 4 of `densities`,
    so every pass holds the same sizes, weighted towards the small end;
    the seed draws the graphs and the request order.
    """

    name = "random-spectra"
    pass_size = 40
    densities = (0.02, 0.1, 0.3, 0.6)

    def __init__(self, seed: int):
        self.seed = seed

    def _request(self, label, n, edges) -> Request:
        def run():
            g = graphs.make_graph(n, edges)
            dm = distances.distance_matrix(g)
            vals = jacobi.sym_eigenvalues(dm)
            return dm, vals, spectra.cluster_to_spectrum(vals)

        def check(ans):
            dm, vals, spec = ans
            ref = sorted(np.linalg.eigvalsh(np.array(dm, dtype=float)).tolist(),
                         reverse=True)
            err = _deviation(ref, list(vals))
            ref_spec = spectra.cluster_to_spectrum(ref)
            ok = (len(vals) == n and spec.dimension == n and err < MATCH_TOL
                  and _same_spectrum(spec, ref_spec, MATCH_TOL))
            return ok, err

        def corrupt(ans):
            dm, vals, spec = ans
            return dm, _shift_first(vals), spec

        return Request(label, run, check, corrupt)

    def warmup(self) -> list[Request]:
        rng = _rng(self.name, self.seed, "warmup")
        return [self._request("warmup n=12", 12, random_connected(rng, 12, 0.2))]

    def pass_requests(self, k: int) -> list[Request]:
        rng = _rng(self.name, self.seed, k)
        reqs = []
        for i in range(self.pass_size):
            n = round(40 + 110 * ((i + 0.5) / self.pass_size) ** 4)
            p = self.densities[i % len(self.densities)]
            reqs.append(self._request(f"random n={n} p={p}", n,
                                      random_connected(rng, n, p)))
        rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# exact-invariants: det, inertia and distinct count on three input kinds

def pruefer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of the tree decoded from a uniform random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def clique_paths() -> list[tuple[str, tuple[int, ...]]]:
    """The barbell/lollipop grid of acceptance criterion 05, by order."""
    out = [("barbell", (k, m, l)) for k in range(2, 9) for m in range(2, 9)
           for l in range(0, 9)]
    out += [("lollipop", (k, l)) for k in range(2, 9) for l in range(0, 9)]
    return sorted(out, key=lambda c: (sum(c[1]), c))


def _stratified(rng: random.Random, items: list, count: int) -> list:
    """One random item from each of `count` equal consecutive strata."""
    width = len(items) / count
    return [items[rng.randrange(int(i * width), int((i + 1) * width))]
            for i in range(count)]


def _clique_graph(kind: str, params):
    if kind == "barbell":
        return graphs.generalized_barbell(*params)
    return graphs.lollipop(*params)


def _clique_formulas(kind: str, params):
    if kind == "barbell":
        return (closedforms.barbell_determinant(*params),
                closedforms.barbell_inertia(*params))
    return (closedforms.lollipop_determinant(*params),
            closedforms.lollipop_inertia(*params))


def _spectrum_det(spec):
    """Product of the eigenvalues: exact, or a float if a value is a float."""
    prod = 1
    for value, mult in spec.entries:
        for _ in range(mult):
            prod = prod * value
    if isinstance(prod, spectra.QuadraticNumber):
        prod = prod.as_fraction()
    return prod


def _distinct_numeric(dm) -> int:
    vals = sorted(np.linalg.eigvalsh(np.array(dm, dtype=float)).tolist(),
                  reverse=True)
    return len(spectra.cluster_to_spectrum(vals).entries)


class ExactInvariants:
    """Prufer trees of order 10-16, clique paths, and closed-form families
    of order <= 64; never touches the numeric solver."""

    name = "exact-invariants"
    trees_per_order = 8
    tree_orders = range(10, 17)
    clique_count = 28
    family_max_order = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.families = family_instances(self.family_max_order)
        self.cliques = clique_paths()
        self.pass_size = (self.trees_per_order * len(self.tree_orders)
                          + self.clique_count + len(self.families))

    def _request(self, label, build, reference) -> Request:
        def run():
            dm = distances.distance_matrix(build())
            return (dm, exact.det_exact(dm), exact.inertia_exact(dm),
                    exact.distinct_eigenvalue_count(dm))

        def check(ans):
            return reference(ans), 0.0

        def corrupt(ans):
            dm, det, inertia, q = ans
            return dm, det + 1, inertia, q

        return Request(label, run, check, corrupt)

    def _tree(self, n, edges) -> Request:
        def reference(ans):
            dm, det, inertia, q = ans
            diam = max(max(row) for row in dm)
            return (det == closedforms.tree_determinant(n)
                    and inertia == closedforms.tree_inertia(n)
                    and diam + 1 <= q == _distinct_numeric(dm))

        return self._request(f"tree n={n}", lambda: graphs.make_graph(n, edges),
                             reference)

    def _clique(self, kind, params) -> Request:
        def reference(ans):
            dm, det, inertia, q = ans
            return ((det, inertia) == _clique_formulas(kind, params)
                    and q == _distinct_numeric(dm))

        return self._request(_label(kind, params),
                             lambda: _clique_graph(kind, params), reference)

    def _family(self, name, params, n) -> Request:
        def reference(ans):
            dm, det, inertia, q = ans
            spec = _closed(name, params).spectrum
            ref_det = _spectrum_det(spec)
            det_ok = (abs(det - ref_det) <= 1e-9 * max(1.0, abs(ref_det))
                      if isinstance(ref_det, float) else det == ref_det)
            return (len(dm) == n and det_ok and q == len(spec.entries)
                    and inertia.as_tuple() == spec.inertia_counts())

        return self._request(f"{_label(name, params)} n={n}",
                             lambda: _build(name, params), reference)

    def warmup(self) -> list[Request]:
        rng = _rng(self.name, self.seed, "warmup")
        return [self._tree(8, pruefer_tree(rng, 8)),
                self._request("complete(3)", lambda: graphs.complete(3),
                              lambda ans: ans[1] == 2)]

    def pass_requests(self, k: int) -> list[Request]:
        rng = _rng(self.name, self.seed, k)
        reqs = [self._tree(n, pruefer_tree(rng, n)) for n in self.tree_orders
                for _ in range(self.trees_per_order)]
        reqs += [self._clique(*c)
                 for c in _stratified(rng, self.cliques, self.clique_count)]
        reqs += [self._family(*inst) for inst in self.families]
        rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# cli-mixed: the commands users type, in process

TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}

# In every pass.  The costliest requests are fixed, so the tail percentile
# falls on the same commands whatever the seed.
LARGE_CLOSED = [("hamming", (6, 6)), ("halved-cube", (12,)), ("johnson", (12, 6))]
MATRICES = [("hamming", (4, 4)), ("hamming", (3, 8)), ("hypercube", (10,))]
FIXED_VERIFY = [("cycle", (30,)), ("johnson", (7, 3)), ("hypercube", (5,))]
FIXED_ZF = [("hypercube", (4,)), ("johnson", (6, 2)), ("cycle", (12,))]
MALFORMED_FIXED = ["spectrum johnson 4 7", "det barbell 1 2 3"]

# Drawn by the seed.  Small `spectrum --verify` instances come in three
# classes of similar cost, two from each per pass.
SMALL_VERIFY = [
    [("petersen", ()), ("complete", (12,)), ("hamming", (2, 3)),
     ("johnson", (5, 2)), ("cocktail-party", (6,)), ("complete", (8,))],
    [("cycle", (12,)), ("johnson", (6, 2)), ("shrikhande", ()),
     ("icosahedron", ()), ("kneser", (6, 2)), ("hypercube", (4,))],
    [("hamming", (2, 4)), ("cycle", (16,)), ("kneser", (7, 2)),
     ("dodecahedron", ())],
]
SMALL_ZF = [("petersen", ()), ("cycle", (8,)), ("lollipop", (5, 2)),
            ("lollipop", (4, 3)), ("barbell", (3, 3, 2)), ("johnson", (5, 2)),
            ("complete", (6,)), ("cocktail-party", (4,))]
MALFORMED_EXTRA = ["spectrum hamming 0 2", "matrix kneser 4 2",
                   "spectrum nosuch 3", "zf-bound cycle 2"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`distspec.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_order(name: str, params) -> int:
    if name in ("lollipop", "barbell"):
        return sum(params)
    return FAMILIES[name]["order"](*params)


def _mults(spec_json: dict) -> int:
    return sum(e["mult"] for e in spec_json["eigs"])


class CliMixed:
    """A seeded mix of `distspec` commands through `cli.main`."""

    name = "cli-mixed"

    def __init__(self, seed: int):
        self.seed = seed
        self.srg_sets = [p.as_tuple() for p in srg.feasible_parameter_sets(150)]
        self.cliques = clique_paths()
        self.pass_size = len(self.pass_requests(0))

    def _request(self, argv: str, expect_code: int, check_out) -> Request:
        args = argv.split()

        def check(ans):
            code, out, err = ans
            if code != expect_code:
                return False, 0.0
            try:
                return check_out(out, err)
            except (ValueError, KeyError, TypeError, IndexError):
                return False, 0.0

        def corrupt(ans):
            code, out, err = ans
            return code + 1, out, err

        return Request(argv, lambda: run_cli(args), check, corrupt)

    def spectrum(self, name, params, verify: bool) -> Request:
        n = _cli_order(name, params)

        def check_out(out, err):
            doc = json.loads(out)
            ok = doc["n"] == n and _mults(doc["closed_form"]) == n
            if not verify:
                return ok and "numeric" not in doc, 0.0
            dev = doc["max_deviation"]
            return (ok and doc["match"] is True and _mults(doc["numeric"]) == n
                    and dev < MATCH_TOL), dev

        argv = " ".join(["spectrum", name, *map(str, params)]
                        + (["--verify"] if verify else []))
        return self._request(argv, 0, check_out)

    def matrix(self, name, params) -> Request:
        n = _cli_order(name, params)

        def check_out(out, err):
            mat = distances.parse_matrix(out)
            ok = (len(mat) == n and all(mat[i][i] == 0 for i in range(n))
                  and all(mat[i][j] == mat[j][i] > 0 for i in range(n)
                          for j in range(i)))
            return ok, 0.0

        return self._request(" ".join(["matrix", name, *map(str, params)]),
                             0, check_out)

    def det(self, kind, params) -> Request:
        det_f, inertia_f = _clique_formulas(kind, params)

        def check_out(out, err):
            doc = json.loads(out)
            return (doc["match"] is True and doc["det"] == det_f
                    and doc["inertia"] == list(inertia_f.as_tuple())), 0.0

        return self._request(" ".join(["det", kind, *map(str, params)]),
                             0, check_out)

    def srg(self, n, k, lam, mu) -> Request:
        def check_out(out, err):
            doc = json.loads(out)
            adj = doc["adjacency"]
            return (doc["feasible"] is True
                    and _mults(doc["distance"]["spectrum"]) == n
                    and adj["m_theta"] + adj["m_tau"] + 1 == n
                    and doc["complement"] == [n, n - k - 1, n - 2 - 2 * k + mu,
                                              n - 2 * k + lam]), 0.0

        return self._request(f"srg {n} {k} {lam} {mu}", 0, check_out)

    def zf_bound(self, name, params) -> Request:
        n = _cli_order(name, params)

        def check_out(out, err):
            doc = json.loads(out)
            q, z = doc["distinct_distance_eigenvalues"], doc["zero_forcing_complement"]
            return (doc["n"] == n and doc["holds"] is True and 1 <= z <= n
                    and -(-(n - 1) // (z + 1)) + 1 == doc["bound_ceiling"] <= q
                    ), 0.0

        return self._request(" ".join(["zf-bound", name, *map(str, params)]),
                             0, check_out)

    def verify_trees(self, max_order: int) -> Request:
        def check_out(out, err):
            rows = [json.loads(line) for line in out.splitlines()]
            return ([r["order"] for r in rows] == list(range(2, max_order + 1))
                    and all(r["trees"] == TREE_COUNTS[r["order"]]
                            and r["strong_violations"] == 0
                            and r["weak_violations"] == 0 for r in rows)), 0.0

        return self._request(f"verify-trees --max-order {max_order}", 0, check_out)

    def lemma(self, top: int) -> Request:
        max_b = 10
        expected = 5 * top - 5 + (top - 1) * (max_b + 1)

        def check_out(out, err):
            last = out.splitlines()[-1]
            return last == f"{expected} instance(s), 0 failure(s)", 0.0

        return self._request(f"verify lemma-identities --max {top}", 0, check_out)

    def malformed(self, argv: str) -> Request:
        def check_out(out, err):
            return out == "" and "error:" in err and "Traceback" not in err, 0.0

        return self._request(argv, 2, check_out)

    def warmup(self) -> list[Request]:
        return [self.spectrum("complete", (5,), True),
                self.det("lollipop", (3, 1)), self.srg(5, 2, 0, 1),
                self.malformed("spectrum johnson 3 5")]

    def pass_requests(self, k: int) -> list[Request]:
        rng = _rng(self.name, self.seed, k)
        reqs = [self.spectrum(name, p, False) for name, p in LARGE_CLOSED]
        reqs += [self.matrix(name, p) for name, p in MATRICES]
        reqs += [self.spectrum(name, p, True) for name, p in FIXED_VERIFY]
        reqs += [self.zf_bound(name, p) for name, p in FIXED_ZF]
        reqs.append(self.verify_trees(8))
        reqs += [self.malformed(a) for a in MALFORMED_FIXED]
        for group in SMALL_VERIFY:
            reqs += [self.spectrum(name, p, True) for name, p in rng.sample(group, 2)]
        reqs += [self.zf_bound(name, p) for name, p in rng.sample(SMALL_ZF, 2)]
        reqs += [self.det(*c) for c in _stratified(rng, self.cliques, 6)]
        reqs += [self.srg(*p) for p in rng.sample(self.srg_sets, 6)]
        reqs.append(self.lemma(rng.randrange(10, 21)))
        reqs.append(self.malformed(rng.choice(MALFORMED_EXTRA)))
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {w.name: w for w in (FamilySpectra, RandomSpectra,
                                 ExactInvariants, CliMixed)}
