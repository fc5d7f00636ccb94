"""Zero forcing numbers and distance-spectrum lower bounds.

The color-change rule: a blue vertex with exactly one white neighbor forces
that neighbor blue.  Z(G) is the smallest seed whose closure is everything.
Forces stay inside a connected component, so Z(G) is the sum of Z over the
components.  Each component is searched exhaustively over bitmask subsets in
ascending size order, starting at its minimum degree, so results are exact
but the order budget is deliberately small.

The spectral connection: the number of distinct distance eigenvalues q_D(g)
is at least (n-1)/(Z(complement) + 1) + 1, and each eigenvalue multiplicity
is at most Z(complement) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .distances import distance_matrix
from .exact import distinct_eigenvalue_count
from .graphs import Graph, make_graph

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


def _components(adj: list[int]) -> list[int]:
    """The connected components, as vertex masks."""
    comps = []
    left = (1 << len(adj)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                vb = frontier & -frontier
                frontier ^= vb
                reach |= adj[vb.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def _component_forcing_number(adj: list[int], comp: int) -> int:
    """Z of one connected component, by exhaustive search in ascending seed
    size.  No seed smaller than the minimum degree forces: the first force
    from u needs u and all of its neighbors but one blue already."""
    verts = [v for v in range(len(adj)) if comp >> v & 1]
    start = max(1, min(adj[v].bit_count() for v in verts))
    for size in range(start, len(verts) + 1):
        for comb in combinations(verts, size):
            seed = 0
            for v in comb:
                seed |= 1 << v
            if _closure_mask(adj, comp, seed) == comp:
                return size
    raise AssertionError("the full vertex set always forces")


def zero_forcing_number(g: Graph) -> int:
    """Exact Z(g), the sum of exhaustive searches over its components.

    Guarded at order 24; beyond that the subset space is out of desk range
    and no approximation is offered.
    """
    n = g.n
    if n > ZF_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the zero forcing search cap {ZF_ORDER_CAP}")
    adj = _adj_masks(g)
    return sum(_component_forcing_number(adj, comp) for comp in _components(adj))


def forcing_bound(n: int, z: int) -> Fraction:
    """Lower bound (n-1)/(z + 1) + 1 on the number of distinct distance
    eigenvalues of a connected graph of order n whose complement has zero
    forcing number z."""
    return Fraction(n - 1, z + 1) + 1


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


def check_tree_bounds(t: Graph) -> TreeBoundReport:
    """Evaluate the diameter-based lower bounds on q_D for one tree.

    The strong form q_D >= diam + 1 is the conjectured one; the halved
    form q_D >= floor(diam / 2) is the proven statement.
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
    )
