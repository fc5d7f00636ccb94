"""The numeric eigensolver against numpy and structural checks."""

import itertools
import math
import random

import numpy as np
import pytest

from distspec.cli import FAMILIES
from distspec.distances import distance_matrix
from distspec.exact import distinct_eigenvalue_count
from distspec.graphs import (cycle, hypercube, hypercube_with_leaf,
                             make_graph, petersen)
from distspec.jacobi import MAX_ORDER, sym_eigenvalues
from distspec.spectra import cluster_to_spectrum, error_bound


def random_symmetric(n, seed, scale=10.0):
    rng = np.random.RandomState(seed)
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2


class TestAgainstNumpy:
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (10, 3),
                                        (17, 4), (40, 5), (80, 6)])
    def test_random_dense(self, n, seed):
        a = random_symmetric(n, seed)
        ours = sym_eigenvalues(a)
        ref = sorted(np.linalg.eigvalsh(a), reverse=True)
        assert max(abs(x - y) for x, y in zip(ours, ref)) < 1e-10 * max(
            1.0, abs(ref[0]))

    def test_integer_distance_matrix(self):
        d = distance_matrix(petersen())
        ours = sym_eigenvalues(d)
        ref = sorted(np.linalg.eigvalsh(np.array(d, dtype=float)),
                     reverse=True)
        assert max(abs(x - y) for x, y in zip(ours, ref)) < 1e-10

    def test_clustered_eigenvalues(self):
        # high multiplicity: hypercube distance matrix has three values
        d = distance_matrix(hypercube(5))
        ours = sym_eigenvalues(d)
        assert abs(ours[0] - 80.0) < 1e-9
        assert all(abs(v) < 1e-9 for v in ours[1:27])
        assert all(abs(v + 16.0) < 1e-9 for v in ours[27:])

    def test_tiny_offdiagonal_noise_converges(self):
        # diagonal plus noise far below the diagonal scale; the off-diagonal
        # norm must be measured directly or convergence stalls
        n = 20
        a = np.diag(np.arange(1.0, n + 1.0))
        rng = np.random.RandomState(7)
        noise = rng.uniform(-1e-8, 1e-8, size=(n, n))
        a += (noise + noise.T) / 2
        np.fill_diagonal(a, np.arange(1.0, n + 1.0))
        ours = sym_eigenvalues(a)
        ref = sorted(np.linalg.eigvalsh(a), reverse=True)
        assert max(abs(x - y) for x, y in zip(ours, ref)) < 1e-12 * n


class TestStructure:
    def test_descending_order(self):
        vals = sym_eigenvalues(random_symmetric(12, 9))
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_trace_preserved(self):
        a = random_symmetric(15, 11)
        vals = sym_eigenvalues(a)
        assert abs(sum(vals) - np.trace(a)) < 1e-9

    def test_one_by_one(self):
        assert sym_eigenvalues([[4.25]]) == [4.25]

    def test_interlacing_under_principal_submatrix(self):
        # distances inside the hypercube are unchanged by hanging a leaf,
        # so D(Q_4) is a principal submatrix of D(Q_4 + leaf)
        inner = sym_eigenvalues(distance_matrix(hypercube(4)))
        outer = sym_eigenvalues(distance_matrix(hypercube_with_leaf(4)))
        for i, v in enumerate(inner):
            assert outer[i] >= v - 1e-9
            assert v >= outer[i + 1] - 1e-9


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=r"a\[0\]\[1\]"):
            sym_eigenvalues([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigenvalues([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])

    def test_rejects_oversize(self):
        big = np.zeros((MAX_ORDER + 1, MAX_ORDER + 1))
        with pytest.raises(ValueError, match="order"):
            sym_eigenvalues(big)

    @pytest.mark.parametrize("mat,message", [
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "square matrix required"),
        ([1.0, 2.0], "square matrix required"),
        ([[float("nan"), 0.0], [0.0, 1.0]], r"a\[0\]\[0\] = nan is not finite"),
        ([[float("inf"), 1.0], [1.0, 0.0]], r"a\[0\]\[0\] = inf is not finite"),
        ([[0.0, 1.0], [2.0, 0.0]], r"not symmetric: \|a\[0\]\[1\] - a\[1\]\[0\]\| = 1"),
        ([[0.0] * (MAX_ORDER + 1)] * (MAX_ORDER + 1),
         f"order {MAX_ORDER + 1} exceeds the supported cap"),
    ])
    def test_refused_with_its_message(self, mat, message):
        with pytest.raises(ValueError, match=message):
            sym_eigenvalues(mat)

    def test_accepts_tiny_asymmetry_within_tol(self):
        a = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
        vals = sym_eigenvalues(a)
        assert abs(vals[0] - 2.0) < 1e-9


def eigvalsh(mat):
    """LAPACK's eigenvalues of mat, in decreasing order."""
    return sorted(np.linalg.eigvalsh(np.array(mat, dtype=float)).tolist(),
                  reverse=True)


def assert_matches_eigvalsh(mat):
    """Eigenvalue by eigenvalue against LAPACK, within the `error_bound` of
    LAPACK's values, so that the bound does not rest on the solver."""
    ours, ref = sym_eigenvalues(mat), eigvalsh(mat)
    assert len(ours) == len(ref)
    worst = max(abs(x - y) for x, y in zip(ours, ref))
    assert worst <= error_bound(ref), (worst, error_bound(ref))
    return ours


def frobenius_bound(mat):
    """The error estimate 4*n*eps*||A||_F worked out from the matrix."""
    a = np.array(mat, dtype=float)
    return 4 * len(a) * np.finfo(float).eps * math.sqrt(float(np.vdot(a, a)))


def grid_instances(max_order):
    """The closed-form instances of the `verify` default grids."""
    for name, fam in sorted(FAMILIES.items()):
        if fam.closed is None:
            continue
        for p in itertools.product(*fam.grid):
            if fam.domain(*p) and fam.order(*p) <= max_order:
                yield name, p


def random_connected(n, density, seed):
    """A random spanning tree plus G(n, density) edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
              if rng.random() < density}
    return make_graph(n, sorted(edges))


class TestDifferential:
    def test_every_default_grid_instance(self):
        instances = list(grid_instances(256))
        assert len(instances) == 159
        for name, p in instances:
            assert_matches_eigvalsh(distance_matrix(FAMILIES[name].gen(*p)))

    @pytest.mark.parametrize("n,density,seed", [
        (40, 0.02, 1), (40, 0.6, 2), (55, 0.1, 3), (70, 0.3, 4),
        (90, 0.02, 5), (110, 0.6, 6), (130, 0.1, 7), (150, 0.3, 8)])
    def test_random_connected_graphs(self, n, density, seed):
        assert_matches_eigvalsh(distance_matrix(
            random_connected(n, density, seed)))


class TestGrouping:
    """`error_bound` works out from the eigenvalues alone the estimate
    4*n*eps*||A||_F for the matrix, and `cluster_to_spectrum` groups at
    twice it."""

    def test_bound_from_the_values_is_the_bound_from_the_matrix(self):
        for name, p in grid_instances(256):
            dm = distance_matrix(FAMILIES[name].gen(*p))
            bound, referee = error_bound(sym_eigenvalues(dm)), frobenius_bound(dm)
            assert abs(bound - referee) <= 1e-12 * referee, (name, p)

    def test_close_eigenvalues_of_a_tree_stay_apart(self):
        # two of its eigenvalues lie 2.05e-5 apart
        edges = [(0, 2), (0, 7), (0, 9), (1, 5), (1, 7), (1, 8), (3, 9),
                 (4, 7), (5, 13), (6, 7), (6, 11), (10, 11), (11, 12)]
        dm = distance_matrix(make_graph(14, edges))
        assert distinct_eigenvalue_count(dm) == 14
        for vals in (eigvalsh(dm), sym_eigenvalues(dm)):
            assert len(cluster_to_spectrum(vals).entries) == 14


class TestEdgeCases:
    def test_zero_matrix(self):
        assert sym_eigenvalues(np.zeros((6, 6))) == [0.0] * 6
        assert error_bound([0.0] * 6) == 0.0

    def test_direct_sum_has_zero_columns_mid_reduction(self):
        # once the Petersen block is reduced, the columns that follow have
        # nothing below their first subdiagonal entry: those steps must be
        # skipped, not divided by
        a, b = distance_matrix(petersen()), distance_matrix(cycle(7))
        total = np.zeros((17, 17))
        total[:10, :10] = a
        total[10:, 10:] = b
        vals = assert_matches_eigvalsh(total)
        parts = sorted(sym_eigenvalues(a) + sym_eigenvalues(b), reverse=True)
        assert max(abs(x - y) for x, y in zip(vals, parts)) < 1e-12

    @pytest.mark.parametrize("mat,expect", [
        ([[2.0, 1.0], [1.0, 2.0]], [3.0, 1.0]),
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0]),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
         [math.sqrt(2), 0.0, -math.sqrt(2)]),
        ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]], [14.0, 0.0, 0.0]),
    ])
    def test_small_orders(self, mat, expect):
        vals = assert_matches_eigvalsh(mat)
        assert max(abs(x - y) for x, y in zip(vals, expect)) <= \
            error_bound(eigvalsh(mat))

    def test_exactly_split_tridiagonal(self):
        d = [2.0, -1.0, 3.0, 0.5, 4.0, 4.0]
        e = [1.0, 0.0, 2.0, 0.0, 0.0]
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        vals = assert_matches_eigvalsh(t)
        # the blocks are [2 1; 1 -1], [3 2; 2 0.5], [4] and [4]
        blocks = [(1 + math.sqrt(13)) / 2, (1 - math.sqrt(13)) / 2,
                  (3.5 + math.sqrt(22.25)) / 2, (3.5 - math.sqrt(22.25)) / 2,
                  4.0, 4.0]
        assert vals == pytest.approx(sorted(blocks, reverse=True),
                                     abs=error_bound(eigvalsh(t)))
        assert vals.count(4.0) == 2

    def test_close_pair_stays_resolved(self):
        q, _ = np.linalg.qr(np.random.RandomState(3).randn(6, 6))
        lam = np.array([5.0, 1.0 + 1e-9, 1.0, -2.0, 0.5, 3.0])
        a = (q * lam) @ q.T
        a = (a + a.T) / 2
        vals = assert_matches_eigvalsh(a)
        assert vals[2] - vals[3] == pytest.approx(1e-9, abs=1e-13)


class TestNonFinite:
    @pytest.mark.parametrize("mat,where", [
        ([[0.0, 1.0, 2.0], [1.0, float("nan"), 0.0], [2.0, 0.0, 0.0]],
         r"a\[1\]\[1\] = nan"),
        ([[float("inf"), 1.0], [1.0, 0.0]], r"a\[0\]\[0\] = inf"),
        ([[0.0, -float("inf")], [-float("inf"), 0.0]], r"a\[0\]\[1\] = -inf"),
        # non-finite is reported before asymmetry
        ([[0.0, 1.0], [float("nan"), 0.0]], r"a\[1\]\[0\] = nan"),
    ])
    def test_rejected_with_the_first_location(self, mat, where):
        with pytest.raises(ValueError, match=where):
            sym_eigenvalues(mat)
