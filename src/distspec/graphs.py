"""Graph type and family generators.

Vertices are always 0..n-1.  Graphs are simple, undirected, and immutable
after construction; connectivity is only required once distances are taken.
A graph is its order and its adjacency: one sorted tuple of neighbours per
vertex.  Every family generator emits those tuples straight from its
adjacency rule, in O(n + m) with no edge list and no pair scan, through the
unchecked `Graph(adj)`; `make_graph` checks and builds an outside edge list.
The edge set `Graph.edges` is built the first time it is read.

Subset-valued families (Johnson, Kneser, halved cube) encode each subset as
a bitmask and list the masks in increasing order; vertex i stands for the
i-th mask, so vertex numbering is reproducible across runs.  Product graphs
index vertex (u, v) as u*n_h + v.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterable, Sequence


class GraphError(ValueError):
    pass


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    `Graph(adj)` trusts `adj`: one sorted tuple of neighbours per vertex,
    symmetric and loop-free.  Outside edge lists go through `make_graph`.
    """

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, adj: tuple[tuple[int, ...], ...]):
        self.n = len(adj)
        self._adj = adj
        self._edges = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v."""
        if self._edges is None:
            self._edges = frozenset((u, v) for u, a in enumerate(self._adj)
                                    for v in a[bisect_left(a, u):])
        return self._edges

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        a = self._adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        return hash(self._adj)

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
    adj: list[list[int]] = [[] for _ in range(n)]
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
        adj[u].append(v)
        adj[v].append(u)
    return Graph(tuple(tuple(sorted(a)) for a in adj))


def complement(g: Graph) -> Graph:
    return Graph(tuple(tuple(w for w in range(g.n)
                             if w != v and not g.has_edge(v, w))
                       for v in range(g.n)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; (u,v) ~ (u',v') iff equal in one slot, adjacent in the other."""
    nh = h.n
    adj = []
    for u, a in enumerate(g._adj):
        i = bisect_left(a, u)
        below = [w * nh for w in a[:i]]
        above = [w * nh for w in a[i:]]
        base = u * nh
        adj += (tuple([w + v for w in below] + [base + x for x in b]
                      + [w + v for w in above])
                for v, b in enumerate(h._adj))
    return Graph(tuple(adj))


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product; adjacent iff adjacent in both slots."""
    nh = h.n
    return Graph(tuple(tuple(w * nh + x for w in a for x in b)
                       for a in g._adj for b in h._adj))


# ---------------------------------------------------------------------------
# subset helpers

def r_subsets(n: int, r: int) -> list[int]:
    """All r-subsets of {0..n-1} as bitmasks, ascending."""
    return sorted(sum(1 << i for i in c) for c in combinations(range(n), r))


def even_subsets(d: int) -> list[int]:
    """All even-cardinality subsets of {0..d-1} as bitmasks, ascending."""
    return [s for s in range(1 << d) if s.bit_count() % 2 == 0]


def _clique(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Neighbour tuples of a clique on lo..hi-1."""
    span = tuple(range(lo, hi))
    return [span[:i] + span[i + 1:] for i in range(hi - lo)]


def _path(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Neighbour tuples of a path on lo..hi-1."""
    rows = [(v - 1, v + 1) for v in range(lo, hi)]
    rows[0] = rows[0][1:]
    rows[-1] = rows[-1][:-1]
    return rows


# ---------------------------------------------------------------------------
# families

def complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return Graph(tuple(_clique(0, n)))


def path(n: int) -> Graph:
    if n < 2:
        raise GraphError("path needs n >= 2")
    return Graph(tuple(_path(0, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    rows = [(v - 1, v + 1) for v in range(n)]
    rows[0], rows[-1] = (1, n - 1), (0, n - 2)
    return Graph(tuple(rows))


def hypercube(d: int) -> Graph:
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    bits = [1 << b for b in range(d)]
    return Graph(tuple(tuple(sorted([v ^ b for b in bits]))
                       for v in range(1 << d)))


def hamming(d: int, n: int) -> Graph:
    """Hamming graph H(d, n): words of length d over n letters, adjacency at
    Hamming distance one.  Vertex index reads the word as a base-n number."""
    if d < 1 or n < 2:
        raise GraphError("hamming needs d >= 1 and n >= 2")
    scales = [n ** k for k in range(d)]
    adj = []
    for v in range(n ** d):
        row = []
        for s in scales:                  # v and the words differing at s
            low = v - v // s % n * s
            row += range(low, low + n * s, s)
        row.sort()                        # v, once per digit, in one run
        i = row.index(v)
        adj.append(tuple(row[:i] + row[i + d:]))
    return Graph(tuple(adj))


_SHRIKHANDE_STEPS = ((0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3))


def shrikhande() -> Graph:
    """Shrikhande graph as the Cayley graph of Z4 x Z4 with connection set
    {+-(0,1), +-(1,0), +-(1,1)}.  Vertex (a,b) has index 4a+b."""
    return Graph(tuple(tuple(sorted(4 * ((a + da) % 4) + (b + db) % 4
                                    for da, db in _SHRIKHANDE_STEPS))
                       for a in range(4) for b in range(4)))


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
    size r-1: swap one element in and one out."""
    if not 1 <= r <= n - 1:
        raise GraphError("johnson needs 1 <= r <= n-1")
    verts = r_subsets(n, r)
    index = {s: i for i, s in enumerate(verts)}
    bits = [1 << i for i in range(n)]
    adj = []
    for s in verts:
        outs = [b for b in bits if not s & b]
        adj.append(tuple(sorted([index[s ^ a ^ b] for a in bits if s & a
                                 for b in outs])))
    return Graph(tuple(adj))


def kneser(n: int, r: int) -> Graph:
    """Kneser graph K(n, r): r-subsets, adjacent when disjoint: the
    r-subsets of the complement.

    Disconnected cases (n <= 2r) are legal graph objects here; distance
    computations reject them downstream.
    """
    if not 1 <= r <= n - 1:
        raise GraphError("kneser needs 1 <= r <= n-1")
    verts = r_subsets(n, r)
    index = {s: i for i, s in enumerate(verts)}
    bits = [1 << i for i in range(n)]
    return Graph(tuple(
        tuple(sorted([index[sum(c)] for c in
                      combinations([b for b in bits if not s & b], r)]))
        for s in verts))


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
    """Halved cube: even-weight binary words, adjacent at Hamming distance 2.

    Of the words 2k and 2k+1 exactly one has even weight, so the even word
    s is vertex s >> 1."""
    if d < 2:
        raise GraphError("halved cube needs d >= 2")
    masks = [(1 << i) | (1 << j) for i, j in combinations(range(d), 2)]
    return Graph(tuple(tuple(sorted([(s ^ t) >> 1 for t in masks]))
                       for s in even_subsets(d)))


def cocktail_party(m: int) -> Graph:
    """Cocktail party graph CP(m): K_{2m} minus the perfect matching
    (2i, 2i+1).  CP(1) is a valid but disconnected graph."""
    if m < 1:
        raise GraphError("cocktail party needs m >= 1")
    span = tuple(range(2 * m))
    rows = [span[:i] + span[i + 2:] for i in range(0, 2 * m, 2)]
    return Graph(tuple(a for a in rows for _ in range(2)))


def petersen() -> Graph:
    return kneser(5, 2)


def lollipop(k: int, length: int) -> Graph:
    """Lollipop: k-clique joined by an edge to an endpoint of a path on
    `length` vertices.  length = 0 degenerates to the clique itself."""
    if k < 2 or length < 0:
        raise GraphError("lollipop needs k >= 2 and length >= 0")
    if length == 0:
        return complete(k)
    adj = _clique(0, k) + _path(k, k + length)
    adj[k - 1] += (k,)
    adj[k] = (k - 1,) + adj[k]
    return Graph(tuple(adj))


def generalized_barbell(k: int, m: int, length: int) -> Graph:
    """Two cliques (orders k and m) joined through a path on `length` inner
    vertices; length = 0 joins the cliques by a single edge.

    Layout: clique one on 0..k-1, clique two on k..k+m-1, path on
    k+m..k+m+length-1.  Vertex k-1 meets the path head, vertex k+m-1 meets
    the path tail.
    """
    if k < 2 or m < 2 or length < 0:
        raise GraphError("generalized barbell needs k, m >= 2 and length >= 0")
    base = k + m
    adj = _clique(0, k) + _clique(k, base)
    if length == 0:
        adj[k - 1] += (base - 1,)
        adj[base - 1] = (k - 1,) + adj[base - 1]
    else:
        adj += _path(base, base + length)
        tail = base + length - 1
        adj[base - 1] += (tail,)
        adj[tail] = (base - 1,) + adj[tail]
        adj[k - 1] += (base,)
        adj[base] = (k - 1,) + adj[base]     # last: base is tail at length 1
    return Graph(tuple(adj))


def hypercube_with_leaf(d: int) -> Graph:
    """Hypercube Q_d with one pendant vertex attached at word 0."""
    if d < 1:
        raise GraphError("hypercube-leaf needs d >= 1")
    q = hypercube(d)._adj
    return Graph((q[0] + (len(q),), *q[1:], (0,)))


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
