"""Zero forcing, the derived eigenvalue-count bound, and tree enumeration."""

import math
import random
import time
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations, product
from typing import Iterable

import networkx as nx
import numpy as np
import pytest

from conftest import (check_tree_bounds, enumerate_trees, numeric_spectrum,
                      tree_canonical_code)
from distspec import bounds
from distspec.bounds import (ZF_ORDER_CAP, TreeBoundReport, _adj_masks,
                             _closure_mask, check_trees_bounds, forcing_bound,
                             tree_distances, trees_by_order,
                             zero_forcing_number)
from distspec.cli import FAMILIES
from distspec.distances import distance_matrix
from distspec.exact import distinct_eigenvalue_count
from distspec.graphs import (Graph, GraphError, cocktail_party, complement,
                             complete, cycle, generalized_barbell, hypercube,
                             johnson, lollipop, make_graph, path,
                             petersen)
from exact_referee import krylov_distinct_count


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


def forcing_closure(g: Graph, blue: Iterable[int]) -> frozenset[int]:
    """All vertices eventually forced blue from the given seed set."""
    mask = 0
    for v in blue:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    out = _closure_mask(_adj_masks(g), (1 << g.n) - 1, mask)
    return frozenset(v for v in range(g.n) if out >> v & 1)


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

    def test_kneser_7_2_in_a_second(self):
        # the complement of johnson(7, 2); Z = 15 agrees with
        # exhaustive_zero_forcing, run offline (about 10 s)
        start = time.perf_counter()
        assert zero_forcing_number(complement(johnson(7, 2))) == 15
        assert time.perf_counter() - start < 1

    def test_twin_start_in_a_second(self):
        # 17 false twins in the complement of K18 joined to K2; without the
        # twin start the search meets about 2**18 closed sets.  Z = 17
        # agrees with exhaustive_zero_forcing, run offline (about 5 s)
        start = time.perf_counter()
        h = complement(generalized_barbell(2, 18, 0))
        assert zero_forcing_number(h) == 17
        assert time.perf_counter() - start < 1

    def test_each_closure_computed_once_per_search(self, monkeypatch):
        # the search meets 227 distinct seeds here, most of them on more
        # than one path (1,591 seed visits in all); each is closed once
        seeds = []

        def spy(adj, full, blue):
            seeds.append(blue)
            return _closure_mask(adj, full, blue)

        monkeypatch.setattr(bounds, "_closure_mask", spy)
        assert zero_forcing_number(complement(johnson(6, 2))) == 10
        assert len(seeds) == len(set(seeds)) == 227

    def test_edgeless_complement_at_the_cap(self):
        # Z is n here, which a search from seed size 1 reaches only after
        # every smaller seed of all 24 vertices
        assert zero_forcing_number(complement(complete(ZF_ORDER_CAP))) == \
            ZF_ORDER_CAP


def exhaustive_zero_forcing(g):
    """Referee: Z(g) over all seeds of the whole vertex set, in ascending
    size from 1, with no component split and no degree bound (the search
    `zero_forcing_number` ran before it split by components)."""
    n = g.n
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


def small_family_instances(max_order):
    """The instances of order <= max_order of every command-line family:
    its default `verify` grid, or every parameter up to max_order for a
    family without one."""
    out = []
    for name, fam in sorted(FAMILIES.items()):
        axes = fam.grid or [range(max_order + 1)] * len(fam.params)
        for p in product(*axes):
            if not fam.domain(*p) or fam.order(*p) > max_order:
                continue
            try:
                out.append((name, p, fam.gen(*p)))
            except (GraphError, ValueError):
                pass
    return out


class TestZeroForcingAgainstReferee:
    """The component split, the twin start and the cheapest-first search
    change no value.

    The referee's time doubles with each order, to about 0.2 s per graph at
    order 16, so the sweep over every family instance stops at order 10 and
    order 16 is covered by the complements named below: a dense one, one of
    eight components and an edgeless one.
    """

    @pytest.mark.parametrize("graph", [hypercube(4), cocktail_party(8),
                                       complete(16)],
                             ids=["hypercube-4", "cocktail-party-8",
                                  "complete-16"])
    def test_order_16_complements(self, graph):
        h = complement(graph)
        assert zero_forcing_number(h) == exhaustive_zero_forcing(h)

    def test_family_instances_and_complements(self):
        instances = small_family_instances(10)
        assert len(instances) > 100
        for name, p, g in instances:
            for h in (g, complement(g)):
                assert zero_forcing_number(h) == exhaustive_zero_forcing(h), \
                    (name, p, h is g)

    def test_random_graphs(self):
        rng = random.Random(20151)
        for n in range(2, 10):
            for density in (0.1, 0.3, 0.5, 0.8):
                for _ in range(3):
                    g = make_graph(n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if rng.random() < density])
                    assert zero_forcing_number(g) == \
                        exhaustive_zero_forcing(g), (n, g.edges)


    def test_twin_blow_ups(self):
        # every vertex of a random base graph becomes a class of false
        # twins (independent) or true twins (a clique), the case the
        # search's start is built on
        rng = random.Random(20152)
        for _ in range(60):
            base = rng.randint(2, 6)
            sizes = [rng.randint(1, 3) for _ in range(base)]
            while sum(sizes) > 12:
                sizes[sizes.index(max(sizes))] -= 1
            first = [sum(sizes[:i]) for i in range(base)]
            members = [range(f, f + k) for f, k in zip(first, sizes)]
            edges = [(x, y) for u, v in combinations(range(base), 2)
                     if rng.random() < 0.5
                     for x in members[u] for y in members[v]]
            for cls in members:
                if rng.random() < 0.5:
                    edges += combinations(cls, 2)
            g = make_graph(sum(sizes), edges)
            for h in (g, complement(g)):
                assert zero_forcing_number(h) == exhaustive_zero_forcing(h), \
                    (h.n, h.edges)


class TestEigenvalueBound:
    def test_cube_value(self):
        g = hypercube(3)
        assert forcing_bound(g.n, zero_forcing_number(complement(g))) == \
            Fraction(12, 5)

    def test_bound_holds_on_corpus(self):
        corpus = [path(7), cycle(9), complete(6), k_mn(3, 4), hypercube(3),
                  petersen(), lollipop(5, 4), lollipop(3, 2)]
        for g in corpus:
            bound = forcing_bound(g.n, zero_forcing_number(complement(g)))
            q = distinct_eigenvalue_count(distance_matrix(g))
            assert q >= math.ceil(bound), g.edges

    def test_tight_on_cube(self):
        g = hypercube(3)
        bound = forcing_bound(g.n, zero_forcing_number(complement(g)))
        assert distinct_eigenvalue_count(distance_matrix(g)) == \
            math.ceil(bound) == 3

    def test_count_agrees_with_exact_module(self):
        for g in (path(5), petersen(), lollipop(4, 2)):
            d = distance_matrix(g)
            assert distinct_eigenvalue_count(d) == krylov_distinct_count(d)

    def test_multiplicity_capped_by_forcing(self):
        # any distance eigenvalue multiplicity is at most Z(complement) + 1
        for g in (petersen(), hypercube(3), cycle(8)):
            z = zero_forcing_number(complement(g))
            spec = numeric_spectrum(g)
            assert max(m for _, m in spec.entries) <= z + 1


class TestTreeEnumeration:
    def test_counts_match_reference_sequence(self):
        # OEIS A000055 for orders 2-14, up to the cap
        expect = [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
        assert [len(trees) for trees in trees_by_order(14)] == expect

    def test_matches_networkx(self):
        for n in range(2, 13):
            trees = enumerate_trees(n)
            ours = {tree_canonical_code(n, list(t.edges)) for t in trees}
            theirs = {tree_canonical_code(n, list(t.edges()))
                      for t in nx.nonisomorphic_trees(n)}
            assert len(ours) == len(trees) and ours == theirs, n

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
        for n in range(2, 10):
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
        assert rep.distinct_lower == 8
        assert rep.strong_holds and rep.half_floor_holds

    def test_star_report(self):
        star = make_graph(5, [(0, i) for i in range(1, 5)])
        rep = check_tree_bounds(star)
        assert rep.diameter == 2
        assert rep.distinct_lower == 3
        assert rep.strong_holds

    def test_all_small_trees_hold(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                rep = check_tree_bounds(t)
                assert rep.strong_holds, t.edges
                assert rep.half_floor_holds
                assert rep.distinct_lower >= rep.diameter + 1


class TestTreeSweep:
    """`check_trees_bounds` on the level-sequence matrices: a one-prime
    Krylov rank certifies q_D >= diam + 1, else the exact count decides."""

    def test_level_sequence_matrices_match_bfs(self):
        for n, lvs in enumerate(trees_by_order(12), start=2):
            assert tree_distances(lvs).tolist() == \
                [distance_matrix(t) for t in enumerate_trees(n)], n

    def test_lower_bound_never_exceeds_exact_count(self):
        for lvs in trees_by_order(11):
            mats = tree_distances(lvs)
            for rep, d in zip(check_trees_bounds(mats), mats):
                assert rep.distinct_lower <= distinct_eigenvalue_count(d)

    def test_zero_start_vector_certifies_nothing(self, monkeypatch):
        fallbacks = []

        def counted(d):
            fallbacks.append(d)
            return distinct_eigenvalue_count(d)

        monkeypatch.setattr(bounds, "_start_vectors",
                            lambda t, n: np.zeros((t, n), dtype=np.int64))
        monkeypatch.setattr(bounds, "distinct_eigenvalue_count", counted)
        for n, lvs in enumerate(trees_by_order(9), start=2):
            mats = tree_distances(lvs)
            want = []
            for d in mats.tolist():
                diam, q = max(map(max, d)), krylov_distinct_count(d)
                want.append(TreeBoundReport(n, diam, q, q >= diam + 1,
                                            q >= diam // 2))
            assert check_trees_bounds(mats) == want, n
        assert len(fallbacks) == sum(len(t) for t in trees_by_order(9))

    def test_few_distinct_values_fall_back_to_a_violation(self):
        # 3(J - I) of order 4: largest entry 3, but only 2 distinct
        # eigenvalues, so no Krylov rank reaches 4
        m = [[3 * (i != j) for j in range(4)] for i in range(4)]
        assert check_trees_bounds([m]) == \
            [TreeBoundReport(4, 3, 2, False, True)]
