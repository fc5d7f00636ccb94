"""The numeric eigensolver against numpy and structural checks."""

import contextlib
import itertools
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest

from distspec import jacobi
from distspec.cli import FAMILIES
from distspec.distances import distance_array, distance_matrix
from distspec.exact import distinct_eigenvalue_count
from distspec.graphs import (complete, cycle, halved_cube, hamming,
                             hypercube, hypercube_with_leaf, johnson, kneser,
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
    """Against LAPACK within the error bound, with every count of the
    search refereed by `counts_refereed`."""

    def test_every_default_grid_instance(self):
        instances = list(grid_instances(256))
        assert len(instances) == 159
        for name, p in instances:
            dm = distance_matrix(FAMILIES[name].gen(*p))
            with counts_refereed():
                assert_matches_eigvalsh(dm)

    @pytest.mark.parametrize("n,density,seed", [
        (40, 0.02, 1), (40, 0.6, 2), (55, 0.1, 3), (70, 0.3, 4),
        (90, 0.02, 5), (110, 0.6, 6), (130, 0.1, 7), (150, 0.3, 8)])
    def test_random_connected_graphs(self, n, density, seed):
        dm = distance_matrix(random_connected(n, density, seed))
        with counts_refereed():
            assert_matches_eigvalsh(dm)


@pytest.mark.parametrize("graph", [
    lambda: hypercube(8), lambda: kneser(9, 4), lambda: cycle(400),
    lambda: random_connected(120, 0.1, 9)],
    ids=["hypercube-8", "kneser-9-4", "cycle-400", "random-120"])
def test_bfs_array_gives_the_eigenvalues_of_its_lists(graph):
    # uint16 to float64 is exact, so the CLI's array input changes no bit
    g = graph()
    assert sym_eigenvalues(distance_array(g)) == \
        sym_eigenvalues(distance_matrix(g))


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


def split(n, e):
    """The first rows of the blocks that the zeros of e cut an order n
    tridiagonal into, and the blocks' lengths."""
    starts = np.flatnonzero(np.concatenate(([True], e == 0.0)))
    return starts, np.diff(np.append(starts, n))


def search_scales(d, e):
    """The widest starting interval of the search of the tridiagonal
    (d, e), its stopping width max(eps*||T||, pivmin) and pivmin, as the
    solver defines them: Gershgorin intervals of the blocks of two rows or
    more, widened by 2.1*n*eps*||T|| + 4.2*pivmin; None if there is none."""
    n = len(d)
    starts, lengths = split(n, e)
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = np.minimum.reduceat(d - radius, starts)
    hi = np.maximum.reduceat(d + radius, starts)
    tnorm = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    pivmin = jacobi._TINY * max(1.0, float(np.max(e * e, initial=0.0)))
    if lengths.max() < 2:
        return None
    margin = 2.1 * n * jacobi._EPS * tnorm + 4.2 * pivmin
    widest = float(np.max((hi - lo)[lengths > 1])) + 2 * margin
    return widest, max(jacobi._EPS * tnorm, pivmin), pivmin


def uniform_rounds(d, e):
    """The rounds 16-section takes to narrow the widest starting interval
    to the stopping width: ceil(log2(widest / tol) / 4)."""
    scales = search_scales(d, e)
    if scales is None:
        return 0
    return math.ceil(math.log2(scales[0] / scales[1]) / 4)


@pytest.fixture(autouse=True)
def search_rounds(monkeypatch):
    """Every search made by a test here takes no more rounds (calls of
    `_count_below`) than 16-section from the starting intervals would.
    Yields the rounds of each search, in order."""
    search, count_below = jacobi._sturm_search, jacobi._count_below
    rounds = []

    def counted(*args, **kwargs):
        if rounds:
            rounds[-1] += 1
        return count_below(*args, **kwargs)

    def bounded(d, e):
        rounds.append(0)
        vals = search(d, e)
        assert rounds[-1] <= uniform_rounds(d, e)
        return vals

    monkeypatch.setattr(jacobi, "_count_below", counted)
    monkeypatch.setattr(jacobi, "_sturm_search", bounded)
    yield rounds


def search_layout(d, e):
    """The columns of the search of (d, e): one per eigenvalue of a block
    of two rows or more, longest block first and by rank within a block.
    Returns each column's block diagonal and squared couplings (that into
    its first row 0), NaN below the block, its rank and T's index."""
    starts, lengths = split(len(d), e)
    blocks = sorted((b for b in range(len(starts)) if lengths[b] > 1),
                    key=lambda b: -lengths[b])
    cols = [(starts[b], lengths[b], r) for b in blocks
            for r in range(lengths[b])]
    dcol = np.full((lengths.max(), len(cols)), np.nan)
    e2col = dcol.copy()
    for c, (s, size, _) in enumerate(cols):
        dcol[:size, c] = d[s:s + size]
        e2col[:size, c] = np.concatenate(([0.0], e[s:s + size - 1] ** 2))
    rank = np.array([r for _, _, r in cols])
    index = np.array([s + r for s, _, r in cols], dtype=np.int64)
    return dcol, e2col, rank, index


def plain_count(dcol, e2col, pad, x, pivmin, products=False):
    """The guarded Sturm count below every point x[p, c] over column c,
    one row at a time, each pivot smaller than pivmin in magnitude taken
    as -pivmin.  With products, also the product of the pivots of every
    row of the slabs that reach the column (its block, padded with pad up
    to the end of the block's last slab), as a mantissa and an exponent,
    and where each slab's running product of them stays a normal float."""
    size = (~np.isnan(dcol)).sum(axis=0)
    height = min(jacobi._SLAB, len(dcol))
    rows = np.minimum(-(-size // height) * height, len(dcol))
    d, e2 = np.where(np.isnan(dcol), pad, dcol), np.nan_to_num(e2col)
    count = np.zeros(x.shape, dtype=np.int64)
    q, mantissa, exponent = np.ones(x.shape), np.ones(x.shape), 0
    normal = np.ones(x.shape, dtype=bool)
    for i in range(len(d)):
        q = d[i] - x - e2[i] / q
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0.0
        if not products:
            continue
        if i % height == 0:
            part, scale = np.ones(x.shape), 0
        part, power = np.frexp(part * q)
        scale = scale + power
        reached = i < rows
        normal &= ~reached | ((scale >= -1021) & (scale <= 1024))
        mantissa, power = np.frexp(np.where(reached, mantissa * q, mantissa))
        exponent = exponent + power
    return (count, mantissa, exponent, normal) if products else count


@contextlib.contextmanager
def counts_refereed():
    """Checks every search made inside against `plain_count`: in each round
    every count bit for bit and, where the solver works determinants out,
    their sign (-1)^count and, where every slab's running product is a
    normal float, their magnitude within n*eps; and at its end that every
    eigenvalue v of a block of two rows or more has its rank's count
    change between v - tol and v + tol, the stopping width."""
    search, layout, count_below = (jacobi._sturm_search, jacobi._slabs,
                                   jacobi._count_below)
    seen = {}

    def spy_search(d, e):
        dcol, e2col, rank, index = search_layout(d, e)
        seen.update(dcol=dcol, e2col=e2col, n=len(d))
        vals = search(d, e)
        if len(rank):
            _, tol, pivmin = search_scales(d, e)
            at = vals[index]
            count = plain_count(dcol, e2col, seen["pad"],
                                np.array([at - tol, at + tol]), pivmin)
            assert np.all(count[0] <= rank) and np.all(rank < count[1])
        return vals

    def spy_slabs(dpad, e2pad, reach, x, count):
        blocks = ~np.isnan(seen["dcol"])
        assert np.array_equal(dpad[:, 0][blocks], seen["dcol"][blocks])
        assert np.array_equal(e2pad[:, 0], np.nan_to_num(seen["e2col"]))
        pad = np.unique(dpad[:, 0][~blocks])
        assert len(pad) <= 1
        seen.update(x=x, pad=pad[0] if len(pad) else np.inf)
        return layout(dpad, e2pad, reach, x, count)

    def spy_count(slabs, pivmin, count, det=None):
        count_below(slabs, pivmin, count, det)
        x = seen["x"]
        assert np.all(x < seen["pad"])
        ref = plain_count(seen["dcol"], seen["e2col"], seen["pad"], x, pivmin,
                          products=det is not None)
        if det is None:
            assert np.array_equal(count, ref)
            return
        ref, mantissa, exponent, normal = ref
        assert np.array_equal(count, ref)
        ours, power = det
        signed = ~np.isnan(ours)
        assert np.array_equal(np.signbit(ours)[signed],
                              (count % 2 == 1)[signed])
        fine = normal & np.isfinite(ours) & (ours != 0.0)
        ratio = np.ldexp(ours[fine] / mantissa[fine],
                         (power[fine] - exponent[fine]).astype(int))
        assert np.all(np.abs(ratio - 1.0) <= seen["n"] * jacobi._EPS)

    with mock.patch.object(jacobi, "_sturm_search", spy_search), \
            mock.patch.object(jacobi, "_slabs", spy_slabs), \
            mock.patch.object(jacobi, "_count_below", spy_count):
        yield


def refereed_eigenvalues(mat):
    """`sym_eigenvalues(mat)` under `counts_refereed`."""
    with counts_refereed():
        return sym_eigenvalues(mat)


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
    """The slab counts are the referee's exactly; the default grid and
    random graphs are checked in TestDifferential."""

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_fuzzed_matrices(self, kind):
        for seed in range(24):
            refereed_eigenvalues(fuzz_matrix(kind, seed))

    def test_last_slab_of_every_height(self):
        # one block of 40 to 40 + _SLAB - 1 rows: its last slab takes every
        # height from 1 to _SLAB
        for seed in range(jacobi._SLAB):
            refereed_eigenvalues(random_symmetric(40 + seed, seed))


class TestRedo:
    """A slab whose unchecked pass meets a pivot below pivmin is run again
    with the guard.  The path on three vertices, its own tridiagonal
    (d = 0, e = 1), meets one at x = 0, where its first pivot is
    d_0 - 0 = 0."""

    MAT = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    DCOL, E2COL = np.zeros((3, 1)), np.array([[0.0], [1.0], [1.0]])

    def count_at_zero(self):
        """The count below x = 0 over the path, in one column."""
        x = np.zeros((jacobi._POINTS, 1))
        count = np.empty(x.shape, dtype=np.int64)
        slabs = jacobi._slabs(self.DCOL[:, None], self.E2COL[:, None],
                              np.array([1, 1, 1]), x, count)
        with np.errstate(all="ignore"):  # the unchecked pass divides by 0
            jacobi._count_below(slabs, jacobi._TINY, count)
        return count

    def test_zero_pivot_reaches_the_redo(self):
        pivots = jacobi._pivots
        with mock.patch.object(jacobi, "_pivots", wraps=pivots) as spy:
            count = self.count_at_zero()
        assert any(c.args[-1] > 0.0 for c in spy.call_args_list)
        ref = plain_count(self.DCOL, self.E2COL, np.inf, np.zeros(count.shape),
                          jacobi._TINY)
        assert np.array_equal(count, ref)
        # with the redo unguarded, the signs of the unchecked pass stand and
        # the count moves
        with mock.patch.object(jacobi, "_pivots",
                               lambda *args: pivots(*args[:-1], 0.0)):
            assert not np.array_equal(self.count_at_zero(), ref)
        refereed_eigenvalues(self.MAT)

    def test_paths_match(self):
        # adjacency matrices of paths: symmetric spectra, so the middle of
        # an interval is often an eigenvalue
        for n in range(2, 40):
            a = np.diag(np.ones(n - 1), 1)
            refereed_eigenvalues(a + a.T)
        refereed_eigenvalues(distance_matrix(path(9)))


def tridiagonal(d, e):
    """The symmetric tridiagonal matrix with diagonal d and couplings e,
    which the reduction leaves as it is."""
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestSearch:
    """How many rounds the search takes, and its answers where its zoom
    is put to the test."""

    def test_random_graph_in_eight_rounds(self, search_rounds):
        sym_eigenvalues(distance_matrix(random_connected(130, 0.1, 7)))
        assert len(search_rounds) == 1 and search_rounds[0] <= 8

    @pytest.mark.parametrize("n", [300, 900])
    def test_dense_random(self, n):
        assert_matches_eigvalsh(random_symmetric(n, n))

    @staticmethod
    def zoomed(mat):
        """The eigenvalues of mat, refereed, and whether the search zoomed."""
        with mock.patch.object(jacobi, "_zoom", wraps=jacobi._zoom) as zoom:
            with counts_refereed():
                vals = assert_matches_eigvalsh(mat)
        return vals, zoom.called

    def test_close_pair_in_a_long_block(self):
        q, _ = np.linalg.qr(np.random.RandomState(3).randn(40, 40))
        lam = np.linspace(-5.0, 5.0, 40)
        lam[20] = lam[21] - 1e-9
        a = (q * lam) @ q.T
        vals, zoomed = self.zoomed((a + a.T) / 2)
        assert zoomed
        assert vals[18] - vals[19] == \
            pytest.approx(1e-9, abs=2 * error_bound(vals))

    def test_top_eigenvalue_on_the_gershgorin_bound(self, search_rounds):
        # every row sums to 2, so the ones vector has the eigenvalue 2,
        # the top of the block's Gershgorin interval: unless the zoom's
        # first round counts that end, it has no determinant for 5 rounds
        # more
        t = tridiagonal(np.r_[1.0, np.zeros(38), 1.0], np.ones(39))
        vals, zoomed = self.zoomed(t)
        assert zoomed and search_rounds == [7]
        assert abs(vals[0] - 2.0) <= error_bound(vals)

    def test_graded_slab_products_fall_back(self):
        # a block of 17 rows: 15 * 17 + 1 = 256 cells over its Gershgorin
        # interval [-4, 4] put the first round's point 128 at 0 exactly.
        # There the pivots of rows 0 to 7 are -1, ..., -1, -2^-60, 0, so the
        # guard makes the first slab's product 2^-60 * pivmin, below the
        # smallest float, and an eigenvalue within 2^-58 of 0 keeps 0 the
        # low end of its gap until the zoom works determinants out there.
        # A path of 24 rows makes the order 41.
        t = 2.0 ** -30
        a = -tridiagonal(np.r_[1, 2, 2, 2, 2, 2, 2 * t * t, 1,
                               2, -2, 2, -2, 2, -2, -2, -2, -2, np.zeros(24)],
                         np.r_[1, 1, 1, 1, 1, t, t, 1, np.ones(8), 0.0,
                               np.ones(23)])
        ends = []

        def points(z, width):
            ends.append(z[1, [0, -1]].copy())
            return zoom_points(z, width)

        zoom_points = jacobi._zoom_points
        with warnings.catch_warnings(), \
                mock.patch.object(jacobi, "_zoom_points", points):
            warnings.simplefilter("error")
            self.zoomed(a)
        # the regula falsi estimate had an end without a determinant
        assert any(np.any(~np.isfinite(m) | (m == 0.0)) for m in ends)


def unstopped_reduction(a):
    """The Householder reduction of a copy of a through every column, with
    no stop: the plain form of `jacobi._tridiagonalize`, with the same
    floating-point operations in each step."""
    a = a.copy()
    n = len(a)
    e = np.empty(n - 1)
    for k in range(n - 2):
        x = a[k + 1:, k]
        sigma = float(x[1:] @ x[1:])
        x0 = float(x[0])
        if sigma == 0.0:
            e[k] = x0
            continue
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        v = x.copy()
        v[0] = x0 - alpha
        vv = sigma + v[0] * v[0]
        b = a[k + 1:, k + 1:]
        p = (b @ v) * (2.0 / vv)
        w = p - (float(v @ p) / vv) * v
        pair = np.array((v, w))
        b -= pair.T @ pair[::-1]
        e[k] = alpha
    e[n - 2] = a[n - 1, n - 2]
    return a.diagonal().copy(), e


def graph_id(value):
    """A generator's name, or its parameters joined by dashes."""
    return value.__name__ if callable(value) else "-".join(map(str, value))


def reduction(mat):
    """The scaled matrix the solver reduces for mat, and the d and e the
    reduction returns, before the split rule zeroes any coupling."""
    seen = []
    reduce = jacobi._tridiagonalize

    def record(a, tol):
        seen.append(a.copy())
        d, e = reduce(a, tol)
        seen.append((d.copy(), e.copy()))
        return d, e

    with mock.patch.object(jacobi, "_tridiagonalize", record):
        sym_eigenvalues(mat)
    a, (d, e) = seen
    return a, d, e


class TestEarlyStop:
    """The reduction ends once the trailing block is no larger than
    tol = n*eps*||A||_F, leaving its diagonal with zero couplings."""

    @pytest.mark.parametrize("gen,args", [
        (random_connected, args) for args in [
            (40, 0.02, 1), (40, 0.6, 2), (55, 0.1, 3), (70, 0.3, 4),
            (90, 0.02, 5), (110, 0.6, 6), (130, 0.1, 7), (150, 0.3, 8)]] +
        [(complete, (25,)), (kneser, (9, 4))] +
        [(cycle, (n,)) for n in range(5, 40, 6)], ids=graph_id)
    def test_matrices_that_never_stop_reduce_bit_for_bit(self, gen, args):
        a, d, e = reduction(distance_matrix(gen(*args)))
        d0, e0 = unstopped_reduction(a)
        assert d.tobytes() == d0.tobytes() and e.tobytes() == e0.tobytes()

    @pytest.mark.parametrize("gen,args", [
        (hypercube, (8,)), (hamming, (4, 4)), (johnson, (9, 4)),
        (halved_cube, (9,))], ids=graph_id)
    def test_low_rank_couplings_end_at_twice_the_rank(self, gen, args):
        dm = distance_matrix(gen(*args))
        tail = 2 * np.linalg.matrix_rank(np.array(dm, dtype=float)) + 2
        a, d, e = reduction(dm)
        assert np.all(e[tail:] == 0.0)
        # without the stop they are rounding noise, not zeros
        assert np.any(unstopped_reduction(a)[1][tail:] != 0.0)

    @staticmethod
    def rank_one_plus(size):
        """J of order 30 and [0 delta; delta 0], ||.||_F = size * tol,
        side by side, with tol = n*eps*||A||_F of the whole matrix."""
        n = 32
        tol = n * np.finfo(float).eps * 30.0
        delta = size * tol / math.sqrt(2)
        a = np.zeros((n, n))
        a[:30, :30] = 1.0
        a[30, 31] = a[31, 30] = delta
        return a, tol

    def test_block_above_tol_is_still_resolved(self):
        a, tol = self.rank_one_plus(4)
        ours, ref = sym_eigenvalues(a), eigvalsh(a)
        assert max(abs(x - y) for x, y in zip(ours, ref)) <= tol
        assert ours[1] >= 2 * tol and ours[-1] <= -2 * tol

    def test_failed_check_is_not_made_again_each_step(self):
        # after it, the block loses only rounding noise at each step
        a, _ = self.rank_one_plus(4)
        with mock.patch.object(np, "einsum", wraps=np.einsum) as norm:
            sym_eigenvalues(a)
        assert norm.call_count == 1

    def test_block_below_tol_moves_no_eigenvalue_beyond_it(self):
        a, tol = self.rank_one_plus(0.25)
        _, _, e = reduction(a)
        assert np.all(e[1:] == 0.0)
        ours, ref = sym_eigenvalues(a), eigvalsh(a)
        assert max(abs(x - y) for x, y in zip(ours, ref)) <= tol

    @pytest.mark.parametrize("gen,args", [(hypercube, (10,)),
                                          (johnson, (12, 6))], ids=graph_id)
    def test_large_low_rank_within_the_bound(self, gen, args):
        assert_matches_eigvalsh(distance_matrix(gen(*args)))
