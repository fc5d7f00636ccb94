"""Zero forcing numbers and distance-spectrum lower bounds.

The color-change rule: a blue vertex with exactly one white neighbor forces
that neighbor blue.  Z(G) is the smallest seed whose closure is everything;
the search is exhaustive over bitmask subsets in ascending size order, so
results are exact but the order budget is deliberately small.

The spectral connection: the number of distinct distance eigenvalues q_D(g)
is at least (n-1)/(Z(complement) + 1) + 1, and each eigenvalue multiplicity
is at most Z(complement) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .distances import distance_matrix
from .exact import distinct_eigenvalue_count
from .graphs import Graph, complement, make_graph

ZF_ORDER_CAP = 24


def _adj_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _closure_mask(adj: list[int], full: int, blue: int) -> int:
    white = full & ~blue
    changed = True
    while changed and white:
        changed = False
        b = blue
        while b:
            vb = b & -b
            b ^= vb
            wn = adj[vb.bit_length() - 1] & white
            if wn and wn & (wn - 1) == 0:
                blue |= wn
                white ^= wn
                changed = True
    return blue


def forcing_closure(g: Graph, blue: Iterable[int]) -> frozenset[int]:
    """All vertices eventually forced blue from the given seed set."""
    mask = 0
    for v in blue:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    out = _closure_mask(_adj_masks(g), (1 << g.n) - 1, mask)
    return frozenset(v for v in range(g.n) if out >> v & 1)


def zero_forcing_number(g: Graph) -> int:
    """Exact Z(g) by exhaustive search in ascending seed size.

    Guarded at order 24; beyond that the subset space is out of desk range
    and no approximation is offered.
    """
    n = g.n
    if n > ZF_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the zero forcing search cap {ZF_ORDER_CAP}")
    adj = _adj_masks(g)
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for comb in combinations(range(n), size):
            seed = 0
            for v in comb:
                seed |= 1 << v
            if _closure_mask(adj, full, seed) == full:
                return size
    raise AssertionError("the full vertex set always forces")


def zf_eigenvalue_bound(g: Graph) -> Fraction:
    """Lower bound (n-1)/(Z(complement(g)) + 1) + 1 on the number of
    distinct distance eigenvalues of a connected graph g."""
    z = zero_forcing_number(complement(g))
    return Fraction(g.n - 1, z + 1) + 1


def distance_eigenvalue_count(g: Graph) -> int:
    """q_D(g): distinct distance eigenvalues, computed exactly."""
    return distinct_eigenvalue_count(distance_matrix(g))


# ---------------------------------------------------------------------------
# isomorph-free tree enumeration

def _tree_centers(n: int, edges: list[tuple[int, int]]) -> list[int]:
    if n == 1:
        return [0]
    deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    layer = [v for v in range(n) if deg[v] == 1]
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
    return sorted(layer)


def _rooted_code(adj: list[list[int]], root: int) -> str:
    def rec(v: int, parent: int) -> str:
        kids = sorted(rec(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(kids) + ")"
    return rec(root, -1)


def tree_canonical_code(n: int, edges: list[tuple[int, int]]) -> str:
    """Canonical string for a free tree: the smaller rooted code over its
    one or two centers.  Equal codes mean isomorphic trees."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return min(_rooted_code(adj, c) for c in _tree_centers(n, edges))


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grows trees by attaching a leaf to every vertex of every smaller class
    and deduplicating by canonical code; every tree arises from a leaf
    deletion, so the sweep is exhaustive.
    """
    if n < 2:
        raise ValueError("tree enumeration starts at n = 2")
    reps: list[list[tuple[int, int]]] = [[(0, 1)]]
    for order in range(3, n + 1):
        seen: dict[str, list[tuple[int, int]]] = {}
        for edges in reps:
            for v in range(order - 1):
                grown = edges + [(v, order - 1)]
                code = tree_canonical_code(order, grown)
                if code not in seen:
                    seen[code] = grown
        reps = [seen[c] for c in sorted(seen)]
    return [make_graph(n, edges) for edges in reps]


@dataclass(frozen=True)
class TreeBoundReport:
    order: int
    diameter: int
    distinct_count: int
    strong_holds: bool       # q_D >= diam + 1
    half_floor_holds: bool   # q_D >= floor(diam / 2)
    half_ceil_holds: bool    # q_D >= ceil(diam / 2), reported but unasserted


def check_tree_bounds(t: Graph) -> TreeBoundReport:
    """Evaluate the diameter-based lower bounds on q_D for one tree.

    The strong form q_D >= diam + 1 is the conjectured one; the halved
    forms are the proven floor statement and its ceiling variant, which is
    tracked separately.
    """
    d = distance_matrix(t)
    diam = max(max(row) for row in d)
    q = distinct_eigenvalue_count(d)
    return TreeBoundReport(
        order=t.n,
        diameter=diam,
        distinct_count=q,
        strong_holds=q >= diam + 1,
        half_floor_holds=q >= diam // 2,
        half_ceil_holds=q >= (diam + 1) // 2,
    )
