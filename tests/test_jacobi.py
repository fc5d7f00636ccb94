"""The numeric eigensolver against numpy and structural checks."""

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

from distspec import jacobi
from distspec.cli import FAMILIES
from distspec.distances import distance_matrix
from distspec.exact import distinct_eigenvalue_count
from distspec.graphs import (cycle, hypercube, hypercube_with_leaf,
                             make_graph, path, petersen)
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
    """Against LAPACK within the error bound, and against the referee
    search bit for bit."""

    def test_every_default_grid_instance(self):
        instances = list(grid_instances(256))
        assert len(instances) == 159
        for name, p in instances:
            dm = distance_matrix(FAMILIES[name].gen(*p))
            assert_same_bits(dm, assert_matches_eigvalsh(dm))

    @pytest.mark.parametrize("n,density,seed", [
        (40, 0.02, 1), (40, 0.6, 2), (55, 0.1, 3), (70, 0.3, 4),
        (90, 0.02, 5), (110, 0.6, 6), (130, 0.1, 7), (150, 0.3, 8)])
    def test_random_connected_graphs(self, n, density, seed):
        dm = distance_matrix(random_connected(n, density, seed))
        assert_same_bits(dm, assert_matches_eigvalsh(dm))


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


def referee_search(d, e):
    """The Sturm search one guarded row at a time over every column, one-row
    blocks included: the plain form of `jacobi._sturm_search`, with the
    same floating-point operations in each column."""
    n = len(d)
    starts = np.flatnonzero(np.concatenate(([True], e == 0.0)))
    lengths = np.diff(np.append(starts, n))
    block = np.repeat(np.arange(len(starts)), lengths)
    rank = np.arange(n) - starts[block]

    ae = np.abs(e)
    radius = np.zeros(n)
    radius[:-1] += ae
    radius[1:] += ae
    lo = np.minimum.reduceat(d - radius, starts)
    hi = np.maximum.reduceat(d + radius, starts)
    e2 = e * e
    tnorm = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    pivmin = jacobi._TINY * max(1.0, float(np.max(e2)))
    margin = (2.1 * n * jacobi._EPS * tnorm + 4.2 * pivmin) * (lengths > 1)
    lo = (lo - margin)[block]
    hi = (hi + margin)[block]

    rows = np.arange(int(lengths.max()))[:, None]
    at = np.where(rows < lengths[block], starts[block] + rows, n)
    dpad = np.append(d, np.max(hi) + max(1.0, tnorm))[at]
    e2pad = np.concatenate(([0.0], e2, [0.0]))[at]

    widest = float(np.max(hi - lo)) / max(jacobi._EPS * tnorm, pivmin)
    points = np.arange(1.0, jacobi._POINTS + 1)[:, None]
    for _ in range(-(-math.frexp(widest)[1] // jacobi._BITS)):
        step = (hi - lo) / (jacobi._POINTS + 1)
        x = lo + points * step
        count = np.zeros(x.shape, dtype=np.int64)
        q = np.ones(x.shape)
        for drow, e2row in zip(dpad, e2pad):
            q = drow - x - e2row / q
            q[np.abs(q) < pivmin] = -pivmin
            count += q < 0.0
        lo = lo + (count <= rank).sum(axis=0) * step
        hi = lo + step
    return 0.5 * (lo + hi)


def referee_eigenvalues(mat):
    """`sym_eigenvalues` with the referee search in place of the solver's."""
    with mock.patch.object(jacobi, "_sturm_search", referee_search):
        return sym_eigenvalues(mat)


def assert_same_bits(mat, ours=None):
    """The solver's eigenvalues, ours if given, are the referee's, bit for
    bit: equal as floats and with the same sign of every zero."""
    ours = sym_eigenvalues(mat) if ours is None else ours
    ref = referee_eigenvalues(mat)
    assert ours == ref
    assert [v.hex() for v in ours] == [v.hex() for v in ref]


def fuzz_matrix(kind, seed):
    """A seeded small symmetric matrix of one of the kinds that stress the
    search: exact splits, no couplings, tiny or graded scales, close or
    repeated eigenvalues, and signed zeros."""
    rng = np.random.RandomState(seed)
    n = 1 + seed % 23
    b = rng.randn(n, n)
    b = b + b.T
    if kind == "diagonal":
        return np.diag(rng.randint(-3, 4, n) * rng.choice([1.0, 0.5], n))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "block-diagonal":
        b[:n // 2, n // 2:] = b[n // 2:, :n // 2] = 0.0
        return b
    if kind == "tiny":
        return b * 1e-200
    if kind == "graded":
        g = 10.0 ** (np.arange(n) - n / 2)
        return b * np.sqrt(np.outer(g, g))
    if kind == "wilkinson":
        m = n // 2
        return np.diag(np.abs(np.arange(n) - m).astype(float)) + \
            np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    if kind == "ones":
        return np.ones((n, n))
    assert kind == "signed-zero"
    a = np.diag(np.full(n, -0.0))
    a[:n // 2, :n // 2] += np.ones((n // 2, n // 2))
    return a


FUZZ_KINDS = ["diagonal", "zero", "block-diagonal", "tiny", "graded",
              "wilkinson", "ones", "signed-zero"]


class TestSlabsAgainstReferee:
    """The slab search returns the referee's eigenvalues exactly; the
    default grid and random graphs are checked in TestDifferential."""

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_fuzzed_matrices(self, kind):
        for seed in range(24):
            assert_same_bits(fuzz_matrix(kind, seed))

    def test_last_slab_of_every_height(self):
        # one block of 40 to 40 + _SLAB - 1 rows: its last slab takes every
        # height from 1 to _SLAB
        for seed in range(jacobi._SLAB):
            assert_same_bits(random_symmetric(40 + seed, seed))


class TestRedo:
    """A slab whose unchecked pass meets a pivot below pivmin is run again
    with the guard.  The path on three vertices meets one at once: its
    eigenvalues are -sqrt(2), 0 and sqrt(2), and in the first round the
    middle one of the 15 points of every interval is 0 exactly, where the
    first pivot is d_0 - 0 = 0."""

    MAT = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_zero_pivot_reaches_the_redo(self):
        pivots = jacobi._pivots
        with mock.patch.object(jacobi, "_pivots", wraps=pivots) as spy:
            assert_same_bits(self.MAT)
        assert any(c.args[-1] > 0.0 for c in spy.call_args_list)
        # with the redo unguarded, the signs of the unchecked pass stand and
        # the count moves
        with mock.patch.object(jacobi, "_pivots",
                               lambda *args: pivots(*args[:-1], 0.0)):
            unguarded = sym_eigenvalues(self.MAT)
        assert unguarded != referee_eigenvalues(self.MAT)

    def test_paths_match(self):
        # adjacency matrices of paths: symmetric spectra, so the middle of
        # an interval is often an eigenvalue
        for n in range(2, 40):
            a = np.diag(np.ones(n - 1), 1)
            assert_same_bits(a + a.T)
        assert_same_bits(distance_matrix(path(9)))
