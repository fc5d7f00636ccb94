"""Shared helpers for the test suite.

Three independent routes to a distance spectrum are used throughout:

  1. closed-form constructors (exact values),
  2. the package's own eigensolver (`distspec.jacobi`: Householder
     tridiagonalization and Sturm counts) on the integer distance matrix,
  3. numpy.linalg.eigvalsh as a third-party cross-check.

Tests compare routes pairwise so a bug in any one of them shows up.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from distspec import (Graph, Spectrum, cluster_to_spectrum, distance_matrix,
                      sym_eigenvalues)
from distspec.bounds import (TreeBoundReport, check_trees_bounds,
                             trees_by_order)
from distspec.graphs import make_graph
from distspec.spectra import Value


def degrees(g: Graph) -> list[int]:
    return [g.degree(v) for v in range(g.n)]


def adjacency_matrix(g: Graph) -> list[list[int]]:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    return a


# ---------------------------------------------------------------------------
# referee for the family generators: every pair of vertices tested

def pair_scan(verts: Sequence, adjacent: Callable[..., bool]) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, where adjacent(verts[i], verts[j]) holds."""
    return [(i, j) for (i, s), (j, t) in combinations(enumerate(verts), 2)
            if adjacent(s, t)]


def _subsets(n: int, r: int) -> list[int]:
    return sorted(sum(1 << i for i in c) for c in combinations(range(n), r))


def _one_apart(s: tuple, t: tuple) -> bool:
    return sum(a != b for a, b in zip(s, t)) == 1


_SHRIKHANDE = [(a, b) for a in range(4) for b in range(4)]
_SHRIKHANDE_STEPS = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}


def _shrikhande_adjacent(s: tuple, t: tuple) -> bool:
    return ((t[0] - s[0]) % 4, (t[1] - s[1]) % 4) in _SHRIKHANDE_STEPS


def _doob(m: int, d: int):
    """Words of m Shrikhande coordinates and one Hamming word, adjacent
    when exactly one coordinate differs, by its factor's rule."""
    rules = [_shrikhande_adjacent] * m + [_one_apart]

    def adjacent(s, t):
        diff = [k for k in range(m + 1) if s[k] != t[k]]
        return len(diff) == 1 and rules[diff[0]](s[diff[0]], t[diff[0]])

    words = list(product(range(4), repeat=d))
    return list(product(*[_SHRIKHANDE] * m, words)), adjacent


def _kneser(n: int, r: int):
    return _subsets(n, r), lambda s, t: not s & t


def _barbell(k: int, m: int, length: int):
    base = k + m
    joins = ({(k - 1, base - 1)} if length == 0
             else {(k - 1, base), (base - 1, base + length - 1)})
    return range(base + length), lambda u, v: (
        v < k or k <= u < v < base or (u >= base and v == u + 1)
        or (u, v) in joins)


# CLI family name -> (vertex list, adjacency rule) of the generator at the
# given parameters, in the generator's vertex numbering.  The sporadic
# icosahedron and dodecahedron are frozen edge lists, not rules.
REFEREES: dict[str, Callable] = {
    "complete": lambda n: (range(n), lambda u, v: True),
    "path": lambda n: (range(n), lambda u, v: v == u + 1),
    "cycle": lambda n: (range(n), lambda u, v: (v - u) % n in (1, n - 1)),
    "hypercube": lambda d: (range(1 << d),
                            lambda u, v: (u ^ v).bit_count() == 1),
    "hamming": lambda d, n: (list(product(range(n), repeat=d)), _one_apart),
    "shrikhande": lambda: (_SHRIKHANDE, _shrikhande_adjacent),
    "doob": _doob,
    "johnson": lambda n, r: (_subsets(n, r),
                             lambda s, t: (s & t).bit_count() == r - 1),
    "kneser": _kneser,
    "odd": lambda r: _kneser(2 * r + 1, r),
    "double-odd": lambda r: (
        list(product(_subsets(2 * r + 1, r), range(2))),
        lambda s, t: not s[0] & t[0] and s[1] != t[1]),
    "halved-cube": lambda d: (
        [s for s in range(1 << d) if s.bit_count() % 2 == 0],
        lambda s, t: (s ^ t).bit_count() == 2),
    "cocktail-party": lambda m: (range(2 * m), lambda u, v: u // 2 != v // 2),
    "petersen": lambda: _kneser(5, 2),
    "lollipop": lambda k, length: (range(k + length), lambda u, v: (
        v < k or (u, v) == (k - 1, k) or (u >= k and v == u + 1))),
    "barbell": _barbell,
    "hypercube-leaf": lambda d: (
        range((1 << d) + 1), lambda u, v: (
            (v < 1 << d and (u ^ v).bit_count() == 1) or (u, v) == (0, 1 << d))),
}


def referee_graph(name: str, params: Sequence[int]) -> Graph:
    """The family's graph by the pair scan, built by `make_graph`."""
    verts, adjacent = REFEREES[name](*params)
    return make_graph(len(verts), pair_scan(verts, adjacent))


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n >= 2
    vertices, built from the level sequences `bounds.trees_by_order`
    yields, in its order: each vertex v > 0 joined to its parent, the last
    earlier vertex one level up."""
    *_, last = trees_by_order(n)
    return [make_graph(n, [(v - 1 - lv[v - 1::-1].index(lv[v] - 1), v)
                           for v in range(1, n)]) for lv in last.tolist()]


def tree_canonical_code(n: int, edges: list[tuple[int, int]]) -> str:
    """Referee for the tree enumeration: a canonical string for a free
    tree, the smaller nested-parenthesis code rooted at its one or two
    centres.  Equal codes mean isomorphic trees."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # peel leaves until one or two vertices, the centres, are left
    deg = [len(nbrs) for nbrs in adj]
    layer = [v for v, k in enumerate(deg) if k <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt

    def rooted(v: int, parent: int) -> str:
        return "(" + "".join(sorted(rooted(w, v) for w in adj[v]
                                    if w != parent)) + ")"
    return min(rooted(c, -1) for c in layer)


def check_tree_bounds(t: Graph) -> TreeBoundReport:
    """`bounds.check_trees_bounds` of one tree, from its BFS distances."""
    return check_trees_bounds([distance_matrix(t)])[0]


def largest(s: Spectrum) -> Value:
    return s.entries[0][0]


def smallest(s: Spectrum) -> Value:
    return s.entries[-1][0]


def multiplicity(s: Spectrum, value: Value, tol: float = 0.0) -> int:
    """Multiplicity of the entry equal to value, or within tol of it."""
    for v, m in s.entries:
        if v == value or abs(float(v) - float(value)) <= tol:
            return m
    return 0


def trace(s: Spectrum) -> float:
    return sum(float(v) * m for v, m in s.entries)


def numeric_spectrum(g: Graph) -> Spectrum:
    """Distance spectrum via the in-package solver, clustered within twice
    its error bound as the CLI does."""
    dm = distance_matrix(g)
    return cluster_to_spectrum(sym_eigenvalues(dm))


def numpy_eigs(g: Graph) -> list[float]:
    """Distance eigenvalues via numpy, sorted descending."""
    arr = np.array(distance_matrix(g), dtype=float)
    return sorted((float(x) for x in np.linalg.eigvalsh(arr)), reverse=True)


def assert_spectrum_close(spec: Spectrum, eigs: list[float],
                          tol: float = 1e-8) -> None:
    """Entrywise comparison of a (possibly exact) spectrum with a float list."""
    flat = []
    for value, mult in spec.entries:
        flat.extend([float(value)] * mult)
    assert len(flat) == len(eigs), (len(flat), len(eigs))
    worst = max((abs(a - b) for a, b in zip(flat, eigs)), default=0.0)
    assert worst < tol, f"max deviation {worst}"
