"""Zero forcing, the derived eigenvalue-count bound, and tree enumeration."""

import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import permutations

import networkx as nx
import pytest

from conftest import numeric_spectrum
from distspec.bounds import (ZF_ORDER_CAP, check_tree_bounds,
                             distance_eigenvalue_count, enumerate_trees,
                             forcing_closure, tree_canonical_code,
                             zero_forcing_number, zf_eigenvalue_bound)
from distspec.distances import diameter, distance_matrix
from distspec.exact import distinct_eigenvalue_count
from distspec.graphs import (Graph, complement, complete, cycle, hypercube,
                             lollipop, make_graph, path, petersen)


def k_mn(m, n):
    return make_graph(m + n, [(u, v) for u in range(m)
                              for v in range(m, m + n)])


def partitions(total, largest):
    """Non-increasing tuples of positive parts, each at most `largest`,
    summing to total."""
    if total == 0:
        yield ()
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first, *rest)


def pruefer_decode(n, seq):
    """Edges of the tree on 0..n-1 with Pruefer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]  # sorted, so a heap
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return edges


def trees_from_pruefer(n):
    """Referee for `enumerate_trees`: one tree per class, from Pruefer
    sequences deduplicated by canonical code.

    Every tree has a labelling whose degrees do not increase with the label,
    and vertex v appears deg(v) - 1 times in its Pruefer sequence.  So the
    sweep stays exhaustive when it decodes only the sequences whose
    per-label counts do not increase: the distinct arrangements of each
    partition of n - 2, 1,602 of the 262,144 sequences at n = 8.
    """
    seen = {}
    for counts in partitions(n - 2, n - 2):
        labels = [v for v, c in enumerate(counts) for _ in range(c)]
        for seq in set(permutations(labels)):
            edges = pruefer_decode(n, seq)
            seen.setdefault(tree_canonical_code(n, edges), edges)
    return [make_graph(n, seen[c]) for c in sorted(seen)]


class TestForcingClosure:
    def test_path_endpoint_forces_all(self):
        g = path(6)
        assert forcing_closure(g, {0}) == frozenset(range(6))

    def test_path_midpoint_stalls(self):
        g = path(5)
        assert forcing_closure(g, {2}) == frozenset({2})

    def test_complete_graph_needs_all_but_one(self):
        g = complete(5)
        assert forcing_closure(g, {0, 1, 2}) == frozenset({0, 1, 2})
        assert forcing_closure(g, {0, 1, 2, 3}) == frozenset(range(5))

    def test_cycle_needs_adjacent_pair(self):
        g = cycle(5)
        assert forcing_closure(g, {0, 1}) == frozenset(range(5))
        # a non-adjacent pair leaves every blue vertex with two white
        # neighbors, so nothing ever forces
        assert forcing_closure(g, {0, 2}) == frozenset({0, 2})

    def test_cube_complement_witness(self):
        g = complement(hypercube(3))
        assert forcing_closure(g, {0, 1, 2, 7}) == frozenset(range(8))

    def test_closure_is_monotone(self):
        g = petersen()
        small = forcing_closure(g, {0, 1})
        large = forcing_closure(g, {0, 1, 2})
        assert small <= large


class TestZeroForcingNumber:
    def test_paths_are_one(self):
        for n in (2, 5, 9):
            assert zero_forcing_number(path(n)) == 1

    def test_cycles_are_two(self):
        for n in (3, 4, 7):
            assert zero_forcing_number(cycle(n)) == 2

    def test_complete_graphs(self):
        for n in (2, 4, 6):
            assert zero_forcing_number(complete(n)) == n - 1

    def test_complete_bipartite(self):
        assert zero_forcing_number(k_mn(2, 3)) == 3
        assert zero_forcing_number(k_mn(3, 3)) == 4

    def test_hypercube(self):
        assert zero_forcing_number(hypercube(2)) == 2
        assert zero_forcing_number(hypercube(3)) == 4

    def test_petersen(self):
        assert zero_forcing_number(petersen()) == 5

    def test_lollipop(self):
        assert zero_forcing_number(lollipop(4, 3)) == 3

    def test_frozen_complement_values(self):
        assert zero_forcing_number(complement(hypercube(3))) == 4

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            zero_forcing_number(complete(ZF_ORDER_CAP + 1))


class TestEigenvalueBound:
    def test_cube_value(self):
        assert zf_eigenvalue_bound(hypercube(3)) == Fraction(12, 5)

    def test_bound_holds_on_corpus(self):
        corpus = [path(7), cycle(9), complete(6), k_mn(3, 4), hypercube(3),
                  petersen(), lollipop(5, 4), lollipop(3, 2)]
        for g in corpus:
            bound = zf_eigenvalue_bound(g)
            q = distance_eigenvalue_count(g)
            assert q >= math.ceil(bound), g.edges

    def test_tight_on_cube(self):
        g = hypercube(3)
        assert distance_eigenvalue_count(g) == \
            math.ceil(zf_eigenvalue_bound(g)) == 3

    def test_count_agrees_with_exact_module(self):
        for g in (path(5), petersen(), lollipop(4, 2)):
            assert distance_eigenvalue_count(g) == \
                distinct_eigenvalue_count(distance_matrix(g))

    def test_multiplicity_capped_by_forcing(self):
        # any distance eigenvalue multiplicity is at most Z(complement) + 1
        for g in (petersen(), hypercube(3), cycle(8)):
            z = zero_forcing_number(complement(g))
            spec = numeric_spectrum(g)
            assert max(m for _, m in spec.entries) <= z + 1


class TestTreeEnumeration:
    def test_counts_match_reference_sequence(self):
        expect = [1, 1, 2, 3, 6, 11, 23, 47, 106]
        got = [len(enumerate_trees(n)) for n in range(2, 11)]
        assert got == expect

    def test_every_output_is_a_tree(self):
        for t in enumerate_trees(8):
            assert t.n == 8
            assert t.m == 7
            assert nx.is_tree(nx.Graph(list(t.edges)))

    def test_pairwise_nonisomorphic(self):
        trees = enumerate_trees(8)
        codes = {tree_canonical_code(t.n, list(t.edges)) for t in trees}
        assert len(codes) == len(trees)

    def test_matches_pruefer_route(self):
        for n in range(2, 9):
            a = {tree_canonical_code(t.n, list(t.edges))
                 for t in enumerate_trees(n)}
            b = {tree_canonical_code(t.n, list(t.edges))
                 for t in trees_from_pruefer(n)}
            assert a == b, n

    def test_deterministic_order(self):
        first = [t.edges for t in enumerate_trees(9)]
        second = [t.edges for t in enumerate_trees(9)]
        assert first == second

    def test_canonical_code_invariant_under_relabeling(self):
        code_a = tree_canonical_code(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        code_b = tree_canonical_code(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
        assert code_a == code_b
        star = tree_canonical_code(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert star != code_a


class TestTreeBounds:
    def test_path_attains_equality(self):
        rep = check_tree_bounds(path(8))
        assert rep.order == 8
        assert rep.diameter == 7
        assert rep.distinct_count == 8
        assert rep.strong_holds and rep.half_floor_holds

    def test_star_report(self):
        star = make_graph(5, [(0, i) for i in range(1, 5)])
        rep = check_tree_bounds(star)
        assert rep.diameter == 2
        assert rep.distinct_count == 3
        assert rep.strong_holds

    def test_all_small_trees_hold(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                rep = check_tree_bounds(t)
                assert rep.strong_holds, t.edges
                assert rep.half_floor_holds
                assert rep.distinct_count >= rep.diameter + 1
