"""Zero forcing numbers and distance-spectrum lower bounds.

The color-change rule: a blue vertex with exactly one white neighbor forces
that neighbor blue.  Z(G) is the smallest seed whose closure is everything.
Forces stay inside a connected component, so Z(G) is the sum of Z over the
components.  Each component is searched cheapest-first (Dijkstra) over the
blue sets closed under the rule: from a closed set S, making v force costs
one seed vertex for v if it is white plus all but one of its white
neighbors, and leads to the closure of S with v and those neighbors added.
Every seed is paid for along some such path, so the cost at which the whole
component is first reached is exactly Z.  Many paths reach the same seed,
so each seed's closure is computed once per search.  The order budget is
deliberately small.

The search starts from false twins, vertices with equal open neighborhoods.
If N(u) = N(v) and neither is in the seed, whichever turns blue first is
forced by a common neighbor that still sees the other one white, which is no
force; so every seed holds all but at most one vertex of each twin class.
Swapping twins is an automorphism, so some minimum seed holds all but the
first of each class, and the search starts from their closure.

The spectral connection: the number of distinct distance eigenvalues q_D(g)
is at least (n-1)/(Z(complement) + 1) + 1, and each eigenvalue multiplicity
is at most Z(complement) + 1.

Trees are enumerated as level sequences: the depths of the vertices in
preorder, each vertex's parent the last earlier vertex one level up.  The
successor of Beyer and Hedetniemi (*SIAM J. Comput.* 9, 1980) walks the
canonical sequences of the rooted trees of one order in decreasing
lexicographic order: with p the last position above level 1 and q its
parent, the levels from p on repeat the block from q to p - 1.
Wright, Richmond, Odlyzko and McKay (*SIAM J. Comput.* 15, 1986) keep one
rooting of each free tree, at its centre: the one whose root's first
subtree, with levels shifted down by 1, is no greater by (height, size,
sequence) than the rest of the tree.  Equality holds where the two halves
around a central edge are isomorphic.  No kept sequence exceeds the path
rooted at its centre, so the walk starts there.

A tree's distance matrix D follows from its level sequence lv with no
graph and no search.  In preorder the subtree of v is the range [v, e(v)),
e(v) the first later vertex at level <= lv[v], or n.  Row 0 of D is lv, and
row v is row parent(v) + 1, minus 2 on [v, e(v)): n row steps for all trees
of one order at once.

The diameter bounds need only a certified lower bound on q_D.  Take an
integer vector x and p the exact kernel's first prime, and let K be the
n x (diam + 1) matrix [x, Dx, ..., D^diam x].  Then rank_p(K) <= rank_Q(K)
<= deg minpoly(D) = q_D, the last because a symmetric D is
diagonalizable.  So rank_p(K) = diam + 1 proves q_D >= diam + 1, and with
it q_D >= floor(diam / 2).  One elimination modulo p, over a stack of
Krylov matrices, finds the rank; any matrix it does not certify falls back
to the exact count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterator, Sequence

import numpy as np

from .exact import _primes_over, distinct_eigenvalue_count
from .graphs import Graph

ZF_ORDER_CAP = 24
# largest `verify-trees --max-order`: through order 14, 0.35-0.45 s as a
# subprocess on a 2-vCPU Xeon, 0.2 s of it the sweep, where each order
# costs about 3x the last and growing the trees is about 40% of it
TREE_ORDER_CAP = 14


def _adj_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


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
    """Z of one connected component: the cheapest-first search over closed
    sets from the twin start, as the module docstring sets out."""
    verts = [v for v in range(len(adj)) if comp >> v & 1]
    first: dict[int, int] = {}
    start = 0
    for v in verts:
        if first.setdefault(adj[v], v) != v:
            start |= 1 << v
    cost = start.bit_count()
    blue = _closure_mask(adj, comp, start)
    best = {blue: cost}
    closures: dict[int, int] = {}      # seed mask -> its closure
    heap = [(cost, blue)]
    while heap:
        cost, blue = heappop(heap)
        if blue == comp:
            return cost
        if cost > best[blue]:
            continue
        white = comp & ~blue
        for v in verts:
            wn = adj[v] & white
            step = (white >> v & 1) + max(wn.bit_count() - 1, 0)
            if not step:
                continue
            seed = blue | 1 << v | wn
            nxt = closures.get(seed)
            if nxt is None:
                nxt = closures[seed] = _closure_mask(adj, comp, seed)
            if cost + step < best.get(nxt, len(verts) + 1):
                best[nxt] = cost + step
                heappush(heap, (cost + step, nxt))
    raise AssertionError("the full vertex set always forces")


def zero_forcing_number(g: Graph) -> int:
    """Exact Z(g): the sum over its components of a cheapest-first search
    over closed sets, started from all but one vertex of each twin class.

    Guarded at order 24: the number of closed sets, and with it the search,
    can still grow as 2**n, and no approximation is offered.
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

def _free_trees(n: int) -> Iterator[list[int]]:
    """The level sequence of each tree of order n rooted at its centre, one
    per isomorphism class, as the module docstring sets out."""
    lv = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = (lv + [1]).index(1, 2)  # where the root's second subtree starts
        left, rest = [x - 1 for x in lv[1:m]], [0] + lv[m:]
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            yield lv
        p = n - 1
        while lv[p] == 1:
            p -= 1
        if p == 0:
            return
        q = p - 1 - lv[p - 1::-1].index(lv[p] - 1)  # the parent of p
        lv = lv[:p] + (lv[q:p] * n)[:n - p]


def trees_by_order(max_n: int) -> Iterator[np.ndarray]:
    """The level sequences of one tree per isomorphism class, as one int64
    array of shape (trees, n) for each order n = 2, 3, ..., max_n in turn."""
    for n in range(2, max_n + 1):
        yield np.array(list(_free_trees(n)), dtype=np.int64)


def tree_distances(lvs: np.ndarray) -> np.ndarray:
    """The distance matrices, shape (trees, n, n), of the trees whose level
    sequences are the rows of lvs, by the preorder rule of the module
    docstring."""
    t, n = lvs.shape
    tail = np.pad(lvs, ((0, 0), (0, 1)))  # level 0 at n ends every subtree
    d = np.empty((t, n, n), dtype=np.int64)
    d[:, 0] = lvs
    trees, cols = np.arange(t), np.arange(n)
    for v in range(1, n):
        parent = v - 1 - (lvs[:, v - 1::-1] == lvs[:, v, None] - 1).argmax(1)
        end = v + 1 + (tail[:, v + 1:] <= lvs[:, v, None]).argmax(1)
        inside = (cols >= v) & (cols < end[:, None])
        d[:, v] = d[trees, parent] + 1 - 2 * inside
    return d


@dataclass(frozen=True)
class TreeBoundReport:
    order: int
    diameter: int
    distinct_lower: int      # diam + 1 if certified, else the exact q_D
    strong_holds: bool       # q_D >= diam + 1
    half_floor_holds: bool   # q_D >= floor(diam / 2)


def _start_vectors(t: int, n: int) -> np.ndarray:
    """The Krylov start vector x of each of t matrices of order n, raw int64
    words from a fixed seed (Python's generator: numpy's imports slower)."""
    bits = random.Random(0).randbytes(8 * t * n)
    return np.frombuffer(bits, dtype=np.int64).reshape(t, n)


def check_trees_bounds(mats: Sequence[Sequence[Sequence[int]]]
                       ) -> list[TreeBoundReport]:
    """Evaluate the diameter-based lower bounds on q_D for the distance
    matrices of trees of one order, with the largest entry as the diameter.

    The strong form q_D >= diam + 1 is the conjectured one; the halved
    form q_D >= floor(diam / 2) is the proven statement.  A matrix whose
    Krylov rank modulo p certifies the strong form reports diam + 1 as its
    lower bound; any other reports its exact distinct count.
    """
    p = _primes_over(1)[0]
    d = np.asarray(mats, dtype=np.int64)
    t, n, _ = d.shape
    diam = d.max(axis=(1, 2))
    m = min(int(diam.max()) + 1, n)
    k = np.empty((t, n, m), dtype=np.int64)  # column j is D^j x mod p
    k[:, :, 0] = _start_vectors(t, n) % p
    for j in range(1, m):
        k[:, :, j] = np.matmul(d, k[:, :, j - 1:j])[:, :, 0] % p
    # eliminate column c below row c without inverses; a matrix is
    # certified while each of its columns through diam has a pivot
    certified, trees = diam < n, np.arange(t)
    for c in range(m):
        nz = k[:, c:, c] != 0
        certified &= nz.any(axis=1) | (diam < c)
        piv = c + nz.argmax(axis=1)
        k[trees, c], k[trees, piv] = k[trees, piv], k[trees, c]
        top, rest = k[:, None, c, c:], k[:, c + 1:, c:]
        rest[:] = (rest * top[:, :, :1] - rest[:, :, :1] * top) % p
    lower = [di + 1 if ok else distinct_eigenvalue_count(dt)
             for di, ok, dt in zip(diam.tolist(), certified.tolist(), d)]
    return [TreeBoundReport(n, di, q, q >= di + 1, q >= di // 2)
            for di, q in zip(diam.tolist(), lower)]
