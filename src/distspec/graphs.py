"""Graph type and family generators.

Vertices are always 0..n-1.  Graphs are simple, undirected, and immutable
after construction; connectivity is only required once distances are taken.
Families given by a vertex list and an adjacency rule (Johnson, Kneser,
halved cube, cocktail party) are built by one helper, `_graph_on`: vertex i
stands for the i-th item of the list.  Subset-valued families encode each
subset as a bitmask and list the masks in increasing order, so vertex
numbering is reproducible across runs.  Product graphs index vertex (u, v)
as u*n_h + v.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Sequence


class GraphError(ValueError):
    pass


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]],
                 adj: tuple[tuple[int, ...], ...]):
        self.n = n
        self.edges = edges
        self._adj = adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def make_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph, normalizing edges to (min, max) and rejecting junk.

    Requires n >= 2.  Loops, out-of-range endpoints, and duplicate edges are
    rejected rather than silently cleaned up.
    """
    if n < 2:
        raise GraphError(f"graph order must be at least 2, got {n}")
    norm: set[tuple[int, int]] = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e!r} out of range for n={n}")
        if u == v:
            raise GraphError(f"loop at vertex {u} not allowed")
        if u > v:
            u, v = v, u
        if (u, v) in norm:
            raise GraphError(f"duplicate edge ({u}, {v})")
        norm.add((u, v))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, frozenset(norm), tuple(tuple(sorted(a)) for a in adj))


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    return make_graph(g.n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; (u,v) ~ (u',v') iff equal in one slot, adjacent in the other."""
    nh = h.n
    edges = []
    for u in range(g.n):
        for v, w in h.edges:
            edges.append((u * nh + v, u * nh + w))
    for u, w in g.edges:
        for v in range(nh):
            edges.append((u * nh + v, w * nh + v))
    return make_graph(g.n * nh, edges)


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product; adjacent iff adjacent in both slots."""
    nh = h.n
    edges = set()
    for u, w in g.edges:
        for v, x in h.edges:
            edges.add((u * nh + v, w * nh + x))
            edges.add((u * nh + x, w * nh + v))
    return make_graph(g.n * nh, edges)


# ---------------------------------------------------------------------------
# subset helpers

def r_subsets(n: int, r: int) -> list[int]:
    """All r-subsets of {0..n-1} as bitmasks, ascending."""
    return sorted(sum(1 << i for i in c) for c in combinations(range(n), r))


def even_subsets(d: int) -> list[int]:
    """All even-cardinality subsets of {0..d-1} as bitmasks, ascending."""
    return [s for s in range(1 << d) if s.bit_count() % 2 == 0]


def _graph_on(verts: Sequence, adjacent: Callable[..., bool]) -> Graph:
    """Vertex i stands for verts[i]; i < j are adjacent when
    adjacent(verts[i], verts[j]) holds."""
    return make_graph(len(verts), [(i, j) for (i, s), (j, t)
                                   in combinations(enumerate(verts), 2)
                                   if adjacent(s, t)])


# ---------------------------------------------------------------------------
# families

def complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return make_graph(n, combinations(range(n), 2))


def path(n: int) -> Graph:
    if n < 2:
        raise GraphError("path needs n >= 2")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(d: int) -> Graph:
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(v, v | (1 << b)) for v in range(n) for b in range(d)
             if not v & (1 << b)]
    return make_graph(n, edges)


def hamming(d: int, n: int) -> Graph:
    """Hamming graph H(d, n): words of length d over n letters, adjacency at
    Hamming distance one.  Vertex index reads the word as a base-n number."""
    if d < 1 or n < 2:
        raise GraphError("hamming needs d >= 1 and n >= 2")
    total = n ** d
    edges = []
    for v in range(total):
        scale = 1
        for _ in range(d):
            digit = (v // scale) % n
            for other in range(digit + 1, n):
                edges.append((v, v + (other - digit) * scale))
            scale *= n
    return make_graph(total, edges)


_SHRIKHANDE_STEPS = ((0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3))


def shrikhande() -> Graph:
    """Shrikhande graph as the Cayley graph of Z4 x Z4 with connection set
    {+-(0,1), +-(1,0), +-(1,1)}.  Vertex (a,b) has index 4a+b."""
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in _SHRIKHANDE_STEPS:
                u, v = 4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4
                edges.add((min(u, v), max(u, v)))
    return make_graph(16, edges)


def doob(m: int, d: int) -> Graph:
    """Doob graph: product of m Shrikhande copies with H(d, 4)."""
    if m < 1 or d < 0:
        raise GraphError("doob needs m >= 1 and d >= 0")
    g = shrikhande()
    for _ in range(m - 1):
        g = cartesian_product(g, shrikhande())
    if d > 0:
        g = cartesian_product(g, hamming(d, 4))
    return g


def johnson(n: int, r: int) -> Graph:
    """Johnson graph J(n, r): r-subsets, adjacent when the intersection has
    size r-1."""
    if not 1 <= r <= n - 1:
        raise GraphError("johnson needs 1 <= r <= n-1")
    return _graph_on(r_subsets(n, r), lambda s, t: (s & t).bit_count() == r - 1)


def kneser(n: int, r: int) -> Graph:
    """Kneser graph K(n, r): r-subsets, adjacent when disjoint.

    Disconnected cases (n <= 2r) are legal graph objects here; distance
    computations reject them downstream.
    """
    if not 1 <= r <= n - 1:
        raise GraphError("kneser needs 1 <= r <= n-1")
    return _graph_on(r_subsets(n, r), lambda s, t: not s & t)


def odd_graph(r: int) -> Graph:
    """Odd graph O(r) = K(2r+1, r)."""
    if r < 2:
        raise GraphError("odd graph needs r >= 2")
    return kneser(2 * r + 1, r)


def double_odd(r: int) -> Graph:
    """Bipartite double of the odd graph, realized as O(r) x K_2.

    Same edge set as the subset description by r- and (r+1)-sets ordered by
    containment, once S maps to (S, 0) and its complement to (S, 1).
    """
    if r < 2:
        raise GraphError("double odd graph needs r >= 2")
    return tensor_product(odd_graph(r), path(2))


def halved_cube(d: int) -> Graph:
    """Halved cube: even-weight binary words, adjacent at Hamming distance 2."""
    if d < 2:
        raise GraphError("halved cube needs d >= 2")
    return _graph_on(even_subsets(d), lambda s, t: (s ^ t).bit_count() == 2)


def cocktail_party(m: int) -> Graph:
    """Cocktail party graph CP(m): K_{2m} minus the perfect matching
    (2i, 2i+1).  CP(1) is a valid but disconnected graph."""
    if m < 1:
        raise GraphError("cocktail party needs m >= 1")
    return _graph_on(range(2 * m), lambda u, v: u // 2 != v // 2)


def petersen() -> Graph:
    return kneser(5, 2)


def lollipop(k: int, length: int) -> Graph:
    """Lollipop: k-clique joined by an edge to an endpoint of a path on
    `length` vertices.  length = 0 degenerates to the clique itself."""
    if k < 2 or length < 0:
        raise GraphError("lollipop needs k >= 2 and length >= 0")
    if length == 0:
        return complete(k)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges.append((k - 1, k))
    edges.extend((k + i, k + i + 1) for i in range(length - 1))
    return make_graph(k + length, edges)


def generalized_barbell(k: int, m: int, length: int) -> Graph:
    """Two cliques (orders k and m) joined through a path on `length` inner
    vertices; length = 0 joins the cliques by a single edge.

    Layout: clique one on 0..k-1, clique two on k..k+m-1, path on
    k+m..k+m+length-1.  Vertex k-1 meets the path head, vertex k+m-1 meets
    the path tail.
    """
    if k < 2 or m < 2 or length < 0:
        raise GraphError("generalized barbell needs k, m >= 2 and length >= 0")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k, k + m) for v in range(u + 1, k + m)]
    if length == 0:
        edges.append((k - 1, k + m - 1))
    else:
        base = k + m
        edges.append((k - 1, base))
        edges.extend((base + i, base + i + 1) for i in range(length - 1))
        edges.append((k + m - 1, base + length - 1))
    return make_graph(k + m + length, edges)


def hypercube_with_leaf(d: int) -> Graph:
    """Hypercube Q_d with one pendant vertex attached at word 0."""
    if d < 1:
        raise GraphError("hypercube-leaf needs d >= 1")
    q = hypercube(d)
    edges = list(q.edges) + [(0, q.n)]
    return make_graph(q.n + 1, edges)


# frozen canonical edge lists for the two sporadic polyhedra

_ICOSAHEDRON_EDGES = [
    (0, 1), (0, 5), (0, 7), (0, 8), (0, 11), (1, 2), (1, 5), (1, 6), (1, 8),
    (2, 3), (2, 6), (2, 8), (2, 9), (3, 4), (3, 6), (3, 9), (3, 10), (4, 5),
    (4, 6), (4, 10), (4, 11), (5, 6), (5, 11), (7, 8), (7, 9), (7, 10),
    (7, 11), (8, 9), (9, 10), (10, 11),
]

_DODECAHEDRON_EDGES = [
    (0, 1), (0, 10), (0, 19), (1, 2), (1, 8), (2, 3), (2, 6), (3, 4),
    (3, 19), (4, 5), (4, 17), (5, 6), (5, 15), (6, 7), (7, 8), (7, 14),
    (8, 9), (9, 10), (9, 13), (10, 11), (11, 12), (11, 18), (12, 13),
    (12, 16), (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 19),
]


def icosahedron() -> Graph:
    return make_graph(12, _ICOSAHEDRON_EDGES)


def dodecahedron() -> Graph:
    return make_graph(20, _DODECAHEDRON_EDGES)
