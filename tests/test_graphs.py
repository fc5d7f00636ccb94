"""Graph construction, products, and the named families.

networkx is used here only as an independent oracle for isomorphism and for
reference constructions; the package itself never depends on it.
"""

from itertools import product

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REFEREES, adjacency_matrix, degrees, pair_scan
from distspec.cli import FAMILIES
from distspec.graphs import (Graph, GraphError, cartesian_product,
                             cocktail_party, complement, complete, cycle,
                             dodecahedron, double_odd, doob, even_subsets,
                             generalized_barbell, halved_cube, hamming,
                             hypercube, hypercube_with_leaf, icosahedron,
                             johnson, kneser, lollipop, make_graph, odd_graph,
                             path, petersen, r_subsets, shrikhande,
                             tensor_product)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(sorted(g.edges))
    return h


def isomorphic(g: Graph, h) -> bool:
    other = to_nx(h) if isinstance(h, Graph) else h
    return nx.is_isomorphic(to_nx(g), other)


class TestMakeGraph:
    def test_basic(self):
        g = make_graph(3, [(0, 1), (2, 1)])
        assert g.n == 3 and g.m == 2
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert tuple(g.neighbors(1)) == (0, 2)
        assert list(degrees(g)) == [1, 2, 1]

    def test_rejects_tiny_order(self):
        with pytest.raises(GraphError, match="order must be at least 2"):
            make_graph(1, [])

    def test_rejects_loop(self):
        with pytest.raises(GraphError, match="loop at vertex 2"):
            make_graph(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            make_graph(3, [(0, 3)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            make_graph(3, [(0, 1), (1, 0)])

    def test_has_edge_outside_the_vertex_range_is_false(self):
        g = complete(3)
        assert not any(g.has_edge(u, v) for u, v in
                       [(0, 3), (3, 0), (-1, 0), (0, -1), (1, 1), (5, 7)])

    def test_adjacency_matrix(self):
        g = path(3)
        assert adjacency_matrix(g) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


class TestProducts:
    def test_hamming_2_4_is_k4_square(self):
        a = cartesian_product(complete(4), complete(4))
        assert a.edges == hamming(2, 4).edges

    def test_hypercube_is_binary_hamming(self):
        assert hypercube(3).edges == hamming(3, 2).edges

    def test_tensor_k3_k2_is_hexagon(self):
        assert isomorphic(tensor_product(complete(3), path(2)), cycle(6))

    def test_product_edge_count(self):
        g, h = cycle(5), path(4)
        p = cartesian_product(g, h)
        assert p.n == 20
        assert p.m == g.n * h.m + h.n * g.m


class TestSubsetHelpers:
    def test_r_subsets_counts(self):
        assert len(r_subsets(5, 2)) == 10
        assert r_subsets(4, 1) == [1, 2, 4, 8]
        assert all(bin(s).count("1") == 3 for s in r_subsets(6, 3))

    def test_even_subsets(self):
        subs = even_subsets(4)
        assert len(subs) == 8
        assert all(bin(s).count("1") % 2 == 0 for s in subs)


def popcount(x):
    return bin(x).count("1")


class TestVertexNumbering:
    """Vertex i of a rule-built family is the i-th item of its vertex list,
    as the module docstring promises; `matrix` output depends on it."""

    @pytest.mark.parametrize("g, verts, adjacent", [
        (johnson(6, 3), r_subsets(6, 3),
         lambda s, t: popcount(s & t) == 2),
        (kneser(7, 2), r_subsets(7, 2), lambda s, t: s & t == 0),
        (halved_cube(6), [s for s in range(64) if popcount(s) % 2 == 0],
         lambda s, t: popcount(s ^ t) == 2),
        (cocktail_party(4), range(8), lambda u, v: u // 2 != v // 2),
    ], ids=["johnson(6,3)", "kneser(7,2)", "halved_cube(6)",
            "cocktail_party(4)"])
    def test_edges_follow_the_rule(self, g, verts, adjacent):
        verts = list(verts)
        assert g.n == len(verts)
        assert g.edges == {(i, j) for i in range(len(verts))
                           for j in range(i + 1, len(verts))
                           if adjacent(verts[i], verts[j])}


class TestFamilies:
    def test_complete_path_cycle_sizes(self):
        assert complete(5).m == 10
        assert path(6).m == 5
        assert cycle(6).m == 6

    def test_cycle_3_is_triangle(self):
        assert cycle(3).edges == complete(3).edges

    def test_shrikhande_is_16_6_2_2(self):
        g = shrikhande()
        assert g.n == 16
        assert set(degrees(g)) == {6}
        common = lambda u, v: len(set(g.neighbors(u)) & set(g.neighbors(v)))
        lam = {common(u, v) for u, v in g.edges}
        mu = {common(u, v) for u in range(16) for v in range(u + 1, 16)
              if not g.has_edge(u, v)}
        assert lam == {2} and mu == {2}

    def test_shrikhande_is_not_the_rook_graph(self):
        # same strongly regular parameters, different graphs
        assert not isomorphic(shrikhande(), hamming(2, 4))

    def test_doob_1_0_is_shrikhande(self):
        assert doob(1, 0).edges == shrikhande().edges

    def test_doob_order_and_degree(self):
        g = doob(1, 1)
        assert g.n == 64
        assert set(degrees(g)) == {9}  # 6 from Shrikhande + 3 from H(1,4)

    def test_johnson_5_2_matches_reference(self):
        ref = nx.convert_node_labels_to_integers(
            nx.line_graph(nx.complete_graph(5)))
        assert isomorphic(johnson(5, 2), ref)
        g = johnson(6, 3)
        assert g.n == 20
        assert set(degrees(g)) == {9}  # r * (n - r)

    def test_kneser_petersen(self):
        assert petersen().edges == kneser(5, 2).edges
        assert isomorphic(petersen(), nx.petersen_graph())

    def test_odd_graph_is_kneser(self):
        assert odd_graph(3).edges == kneser(7, 3).edges

    def test_double_odd_2_is_desargues(self):
        g = double_odd(2)
        assert g.n == 20
        assert set(degrees(g)) == {3}
        assert isomorphic(g, nx.desargues_graph())

    def test_halved_cube_4_is_cocktail_party(self):
        assert isomorphic(halved_cube(4), cocktail_party(4))

    def test_halved_cube_order_and_degree(self):
        g = halved_cube(5)
        assert g.n == 16
        assert set(degrees(g)) == {10}  # C(5,2)

    def test_cocktail_party_structure(self):
        g = cocktail_party(3)
        assert g.n == 6 and g.m == 12
        assert not g.has_edge(2, 3)  # partners stay non-adjacent
        assert isomorphic(g, nx.complete_multipartite_graph(2, 2, 2))

    def test_icosahedron_matches_reference(self):
        g = icosahedron()
        assert g.n == 12 and g.m == 30
        assert isomorphic(g, nx.icosahedral_graph())

    def test_dodecahedron_matches_reference(self):
        g = dodecahedron()
        assert g.n == 20 and g.m == 30
        assert isomorphic(g, nx.dodecahedral_graph())

    def test_lollipop_shape(self):
        g = lollipop(4, 3)
        assert g.n == 7
        assert g.m == 6 + 3
        assert isomorphic(g, nx.lollipop_graph(4, 3))

    def test_lollipop_zero_tail_is_clique(self):
        assert lollipop(5, 0).edges == complete(5).edges

    def test_generalized_barbell_shape(self):
        g = generalized_barbell(3, 4, 2)
        assert g.n == 9
        assert g.m == 3 + 6 + 1 + 2  # K_3, K_4, path edge, two joins

    def test_barbell_is_symmetric_case(self):
        assert isomorphic(generalized_barbell(4, 4, 0), nx.barbell_graph(4, 0))

    def test_barbell_zero_path_joins_cliques(self):
        g = generalized_barbell(3, 3, 0)
        assert g.n == 6
        assert g.has_edge(2, 5)

    def test_hypercube_with_leaf(self):
        g = hypercube_with_leaf(4)
        assert g.n == 17
        assert g.degree(16) == 1
        assert sorted(degrees(g)).count(5) == 1  # the support vertex

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            johnson(3, 5)
        with pytest.raises(GraphError):
            odd_graph(1)
        with pytest.raises(GraphError):
            lollipop(1, 2)
        with pytest.raises(GraphError):
            generalized_barbell(2, 2, -1)
        with pytest.raises(GraphError):
            hamming(2, 1)


class TestComplement:
    def test_complement_of_complete_is_empty(self):
        assert complement(complete(4)).m == 0

    def test_petersen_complement_is_johnson(self):
        assert isomorphic(complement(petersen()), johnson(5, 2))

    @given(st.integers(2, 8), st.data())
    def test_involution(self, n, data):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)) \
            if all_pairs else []
        g = make_graph(n, edges)
        assert complement(complement(g)) == g

    @given(st.integers(2, 8))
    def test_edge_partition(self, n):
        g = cycle(n) if n >= 3 else path(n)
        assert g.m + complement(g).m == n * (n - 1) // 2



# the smallest orders each generator accepts, and a few more for the
# families that have no default grid
SMALLEST = {
    "complete": [(2,), (3,)], "path": [(n,) for n in range(2, 13)],
    "cycle": [(3,), (4,)], "hypercube": [(1,), (2,)],
    "hamming": [(1, 2), (1, 3), (2, 2)], "shrikhande": [()],
    "doob": [(1, 0)], "johnson": [(2, 1), (3, 1), (3, 2)],
    "kneser": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)], "odd": [(2,)],
    "double-odd": [(2,)], "halved-cube": [(2,), (3,)],
    "cocktail-party": [(1,), (2,)], "petersen": [()],
    "lollipop": [(2, 0), (2, 1), (2, 2), (3, 1)],
    "barbell": [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 1)],
    "hypercube-leaf": [(1,), (2,), (3,), (4,)],
}


def _builds(name, params):
    try:
        FAMILIES[name].gen(*params)
    except GraphError:
        return False
    return True


# family name -> the parameters its generator is checked at
GENERATOR_CASES = {
    name: sorted({p for p in product(*FAMILIES[name].grid)
                  if FAMILIES[name].grid and _builds(name, p)}
                 | set(SMALLEST[name]))
    for name in REFEREES}


class TestAgainstPairScan:
    """Each generator builds its graph from a neighbour rule; the referee
    tests every pair of vertices.  Both numberings are the generator's."""

    @pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
    def test_generator_matches_the_pair_scan(self, name):
        for params in GENERATOR_CASES[name]:
            self.check(FAMILIES[name].gen(*params), *REFEREES[name](*params))

    @staticmethod
    def check(g, verts, adjacent):
        pairs = frozenset(pair_scan(verts, adjacent))
        ref = make_graph(len(verts), pairs)
        n = g.n
        for built in (False, True):     # before and after `edges` is read
            assert n == len(verts)
            assert [g.neighbors(v) for v in range(n)] == \
                [ref.neighbors(v) for v in range(n)]
            assert g.m == len(pairs)
            assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in pairs)
            for u in range(min(n, 40)):
                assert [v for v in range(n) if g.has_edge(u, v)] == \
                    list(ref.neighbors(u))
            assert g == ref and hash(g) == hash(ref)
            assert (g._edges is not None) == built
            assert g.edges == pairs

    @pytest.mark.parametrize("g, h", [
        (cycle(5), path(4)), (complete(3), cycle(4)), (path(2), path(2)),
        (petersen(), path(3)), (hamming(2, 3), complete(2))],
        ids=["C5,P4", "K3,C4", "P2,P2", "petersen,P3", "H(2,3),K2"])
    def test_products_match_the_pair_scan(self, g, h):
        verts = list(product(range(g.n), range(h.n)))
        cart = pair_scan(verts, lambda s, t: (
            (s[0] == t[0] and h.has_edge(s[1], t[1]))
            or (s[1] == t[1] and g.has_edge(s[0], t[0]))))
        tens = pair_scan(verts, lambda s, t: (
            g.has_edge(s[0], t[0]) and h.has_edge(s[1], t[1])))
        assert cartesian_product(g, h) == make_graph(len(verts), cart)
        assert tensor_product(g, h) == make_graph(len(verts), tens)

    @pytest.mark.parametrize("g", [path(2), cycle(7), petersen(),
                                   lollipop(4, 3), complete(5)],
                             ids=["P2", "C7", "petersen", "lollipop", "K5"])
    def test_complement_matches_the_pair_scan(self, g):
        edges = g.edges
        assert complement(g) == make_graph(
            g.n, pair_scan(range(g.n), lambda u, v: (u, v) not in edges))
