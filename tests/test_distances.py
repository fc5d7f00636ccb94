"""BFS distance matrices and their invariants."""

import random
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import adjacency_matrix
from distspec.distances import (DisconnectedError, distance_array,
                                distance_matrix, format_matrix, parse_matrix)
from distspec.graphs import (Graph, cocktail_party, complete, cycle,
                             generalized_barbell, hamming, hypercube,
                             hypercube_with_leaf, kneser, lollipop, make_graph,
                             path, petersen, tensor_product)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from one vertex by a single-source BFS, the referee for the
    all-sources `distance_matrix`; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    return all(d >= 0 for d in bfs_distances(g, 0))


def transmission_profile(g: Graph) -> tuple[list[int], bool]:
    """Row sums of the distance matrix plus a flag for transmission regularity."""
    sums = [sum(row) for row in distance_matrix(g)]
    return sums, len(set(sums)) == 1


def check_distance_matrix(mat: list[list[int]]) -> None:
    """Validate the structural invariants of a distance matrix."""
    n = len(mat)
    for i in range(n):
        if len(mat[i]) != n:
            raise ValueError("matrix must be square")
        if mat[i][i] != 0:
            raise ValueError(f"nonzero diagonal at {i}")
        for j in range(n):
            if i != j and mat[i][j] <= 0:
                raise ValueError(f"non-positive off-diagonal at ({i}, {j})")
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"asymmetry at ({i}, {j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mat[i][j] > mat[i][k] + mat[k][j]:
                    raise ValueError(f"triangle inequality fails at ({i}, {j}, {k})")


class TestDistanceMatrix:
    def test_path_3(self):
        assert distance_matrix(path(3)) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_path_4(self):
        assert distance_matrix(path(4)) == [
            [0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]

    def test_diameter_two_identity(self):
        # for diameter <= 2, D = 2(J - I) - A entrywise
        g = petersen()
        a = adjacency_matrix(g)
        d = distance_matrix(g)
        n = g.n
        for i in range(n):
            for j in range(n):
                expect = 0 if i == j else 2 - a[i][j]
                assert d[i][j] == expect

    def test_matches_networkx(self):
        g = generalized_barbell(3, 4, 2)
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        ref = dict(nx.all_pairs_shortest_path_length(h))
        d = distance_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                assert d[u][v] == ref[u][v]

    def test_bfs_single_source(self):
        g = hypercube(4)
        assert bfs_distances(g, 0) == [bin(v).count("1") for v in range(16)]


class TestConnectivity:
    def test_disconnected_raises_with_pair(self):
        for bfs in (distance_matrix, distance_array):
            with pytest.raises(DisconnectedError) as exc:
                bfs(kneser(4, 2))
            u, v = exc.value.pair
            assert 0 <= u < 3 and 0 <= v < 3 and u != v

    def test_tensor_product_of_bipartite_splits(self):
        g = tensor_product(cycle(4), path(2))
        assert not is_connected(g)
        with pytest.raises(DisconnectedError):
            distance_matrix(g)

    def test_single_pair_no_edge(self):
        assert not is_connected(cocktail_party(1))

    def test_connected_families(self):
        for g in (petersen(), hypercube(3), lollipop(3, 2)):
            assert is_connected(g)


def diameter(g: Graph) -> int:
    return max(max(row) for row in distance_matrix(g))


class TestDiameter:
    def test_known_values(self):
        assert diameter(path(7)) == 6
        assert diameter(petersen()) == 2
        assert diameter(hypercube(4)) == 4
        assert diameter(hamming(3, 4)) == 3
        assert diameter(generalized_barbell(3, 4, 2)) == 2 + 3
        assert diameter(hypercube_with_leaf(4)) == 5
        assert diameter(lollipop(4, 3)) == 4


class TestTransmission:
    def test_cycle_is_transmission_regular(self):
        rows, regular = transmission_profile(cycle(5))
        assert rows == [6] * 5
        assert regular

    def test_lollipop_is_not(self):
        rows, regular = transmission_profile(lollipop(3, 2))
        assert not regular
        assert rows[0] != rows[-1]

    def test_vertex_transitive_family(self):
        rows, regular = transmission_profile(hypercube(3))
        assert regular
        assert rows[0] == sum(bin(v).count("1") for v in range(8))


def joined_matrix(mat: list[list[int]]) -> str:
    """Referee for `format_matrix`: `str` of each entry, joined row by row."""
    n = len(mat)
    lines = [str(n)]
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


class TestMatrixIO:
    def test_roundtrip(self):
        d = distance_matrix(petersen())
        assert parse_matrix(format_matrix(d)) == d

    def test_format_matches_joined_entries(self):
        rng = random.Random(7)
        extremes = [-2**63, 2**63 - 1, 0, -1, 9, 10, -10, 99, -100]
        mats = [[], [[0]], [[-7]], [[2**63 - 1]],
                [[rng.choice(extremes) for _ in range(70)] for _ in range(70)],
                [[rng.randint(-10**12, 10**12) for _ in range(130)]
                 for _ in range(130)]]
        for mat in mats:
            text = joined_matrix(mat)
            assert format_matrix(mat) == text
            arr = np.array(mat, np.int64).reshape(len(mat), len(mat))
            assert format_matrix(arr) == text

    @pytest.mark.parametrize("gen, arg", [(hypercube, 10), (cycle, 1001),
                                          (path, 120)])
    def test_format_of_the_bfs_array_matches_joined_entries(self, gen, arg):
        # 2-digit (hypercube) and 3-digit entries in uint16, as the CLI sends
        g = gen(arg)
        arr = distance_array(g)
        assert arr.dtype == np.uint16
        mat = arr.tolist()
        assert mat == distance_matrix(g)
        text = joined_matrix(mat)
        assert format_matrix(arr) == text
        assert format_matrix(mat) == text

    @pytest.mark.parametrize("n, top", [(1, 0), (5, 9), (70, 10), (130, 255)])
    def test_unsigned_int64_and_list_forms_give_one_text(self, n, top):
        # unsigned arrays are formatted in their own type, the others as int64
        rng = random.Random(n)
        mat = [[rng.choice([0, 1, 9, 10, top, rng.randint(0, top)])
                for _ in range(n)] for _ in range(n)]
        text = joined_matrix(mat)
        assert format_matrix(mat) == text
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            arr = np.array(mat, dtype).reshape(n, n)
            kept = arr.copy()
            assert format_matrix(arr) == text, dtype
            assert np.array_equal(arr, kept)       # the array is not written

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_unsigned_extremes(self, dtype):
        top = np.iinfo(dtype).max
        mat = [[0, top], [top - 1, 10 ** (len(str(top)) - 1)]]
        assert format_matrix(np.array(mat, dtype)) == joined_matrix(mat)

    def test_every_uint16_value(self):
        # every value 0..65535 once, so each slab's digit table holds cells
        # of 1 to 5 digits (2 to 6 bytes with the separator)
        vals = np.random.default_rng(5).permutation(1 << 16)
        arr = vals.astype(np.uint16).reshape(256, 256)
        assert format_matrix(arr) == joined_matrix(arr.tolist())

    @pytest.mark.parametrize("mat", [[[65535, 65536], [0, 9]],
                                     [[65535, 0], [10, 9]]])
    def test_uint32_at_the_digit_table_bound(self, mat):
        # 65536 is formatted by division, 65535 and below by the table
        assert format_matrix(np.array(mat, np.uint32)) == joined_matrix(mat)

    @pytest.mark.parametrize("mat", [[[0, 9, 1], [3, 0, 7], [9, 9, 0]],
                                     [[0, -9, 1], [3, 0, -7], [9, 9, 0]]])
    def test_single_digit_int64_with_and_without_a_sign(self, mat):
        # only the slab with a negative entry has a sign column of NULs
        text = joined_matrix(mat)
        assert format_matrix(np.array(mat, np.int64)) == text
        assert format_matrix(mat) == text

    @pytest.mark.parametrize("mat", [
        [[0, 1]], [[0], [1]], [[0, 1], [1]], np.zeros(3, np.int64),
        np.zeros((2, 3), np.int64), np.zeros((2, 2, 2), np.uint16),
        np.array(0, np.int64), np.zeros((0, 3), np.int64)])
    def test_format_refuses_non_square(self, mat):
        with pytest.raises(ValueError, match="matrix must be square"):
            format_matrix(mat)

    @pytest.mark.parametrize("dtype", [np.uint64, np.float64])
    def test_format_refuses_arrays_that_may_not_fit_int64(self, dtype):
        # 2**64 - 1 would wrap to -1, and 0.5 would round
        message = f"entries of type {np.dtype(dtype)}"
        with pytest.raises(ValueError, match=message):
            format_matrix(np.zeros((2, 2), dtype))

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix input"),
        ("  \n\n", "empty matrix input"),
        ("two\n0 1\n1 0\n", "line 1: expected matrix order"),
    ])
    def test_refuses_missing_or_bad_order(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_matrix(text)

    def test_bad_row_length(self):
        with pytest.raises(ValueError, match="line 3: expected 2 entries"):
            parse_matrix("2\n0 1\n1\n")

    def test_bad_entry(self):
        with pytest.raises(ValueError, match="entries must be integers"):
            parse_matrix("2\n0 1\n1 x\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 3 rows"):
            parse_matrix("3\n0 1 2\n1 0 1\n")


class TestCheckDistanceMatrix:
    def test_accepts_real_distance_matrices(self):
        check_distance_matrix(distance_matrix(hypercube(3)))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            check_distance_matrix([[0, 1], [2, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            check_distance_matrix([[1, 1], [1, 0]])

    def test_rejects_triangle_violation(self):
        bad = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        with pytest.raises(ValueError, match="triangle"):
            check_distance_matrix(bad)


@given(st.integers(2, 9), st.data())
def test_random_connected_graph_invariants(n, data):
    spine = [(i, i + 1) for i in range(n - 1)]
    extra_pool = [(u, v) for u in range(n) for v in range(u + 2, n)]
    extra = data.draw(st.lists(st.sampled_from(extra_pool), unique=True)) \
        if extra_pool else []
    g = make_graph(n, spine + extra)
    d = distance_matrix(g)
    check_distance_matrix(d)
    for u, v in g.edges:
        assert d[u][v] == 1
    rows, _ = transmission_profile(g)
    assert rows == [sum(r) for r in d]


@st.composite
def small_graphs(draw):
    """Order 2-40; half of them get a random spanning tree, so both connected
    and disconnected graphs are drawn."""
    n = draw(st.integers(2, 40))
    edges = set()
    if draw(st.booleans()):
        edges.update((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pool), max_size=3 * n)))
    return make_graph(n, sorted(edges))


class TestAllSourcesDifferential:
    @given(small_graphs())
    def test_matches_bfs_rows_and_networkx(self, g):
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        unreachable = sorted(set(range(g.n)) - nx.node_connected_component(h, 0))
        if unreachable:
            for bfs in (distance_matrix, distance_array):
                with pytest.raises(DisconnectedError) as exc:
                    bfs(g)
                assert exc.value.pair == (0, unreachable[0])
            return
        d = distance_matrix(g)
        assert distance_array(g).tolist() == d
        assert d == [bfs_distances(g, s) for s in range(g.n)]
        ref = dict(nx.all_pairs_shortest_path_length(h))
        assert d == [[ref[u][v] for v in range(g.n)] for u in range(g.n)]
        assert all(type(x) is int for row in d for x in row)

    def test_long_path_overflows_a_byte_counter(self):
        # diameter 299 needs a counter wider than uint8
        d = distance_matrix(path(300))
        assert d == [[abs(u - v) for v in range(300)] for u in range(300)]

    @pytest.mark.parametrize("g", [path(2), complete(2), complete(7), path(40)],
                             ids=["path(2)", "K2", "K7", "path(40)"])
    def test_short_and_long_diameters(self, g):
        # K_n stops after one sweep with nothing unpacked; path(40) unpacks
        # levels 1..38 and stops at the all-ones level 39
        d = distance_array(g).tolist()
        assert d == [bfs_distances(g, s) for s in range(g.n)]

    def test_disconnected_keeps_its_witness(self):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
        for bfs in (distance_array, distance_matrix):
            with pytest.raises(DisconnectedError, match="^graph is disconnected: "
                               "no path between vertices 0 and 3$") as exc:
                bfs(g)
            assert exc.value.pair == (0, 3)

    def test_complete_graph_is_all_ones(self):
        d = distance_matrix(complete(300))
        assert d == [[int(u != v) for v in range(300)] for u in range(300)]
