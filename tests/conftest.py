"""Shared helpers for the test suite.

Three independent routes to a distance spectrum are used throughout:

  1. closed-form constructors (exact values),
  2. the package's own eigensolver (`distspec.jacobi`: Householder
     tridiagonalization and Sturm counts) on the integer distance matrix,
  3. numpy.linalg.eigvalsh as a third-party cross-check.

Tests compare routes pairwise so a bug in any one of them shows up.
"""

from __future__ import annotations

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
