"""Exact integer/rational linear algebra: determinant, inertia, rank,
minimal polynomial degree."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distspec import exact
from distspec.distances import distance_array, distance_matrix
from distspec.exact import (Inertia, det_exact, distinct_eigenvalue_count,
                            distinct_eigenvalue_counts, inertia_exact)
from distspec.graphs import (complete, cycle, generalized_barbell, hamming,
                             hypercube, hypercube_with_leaf, path, petersen)


def cofactor_det(mat):
    """Independent oracle: naive cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


small_int = st.integers(-4, 4)


def sym_matrix(n, data):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = data.draw(small_int)
    return m


class TestDeterminant:
    def test_path_4(self):
        assert det_exact(distance_matrix(path(4))) == -12

    def test_empty_product_convention(self):
        assert det_exact([[7]]) == 7

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    def test_needs_row_swap(self):
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer entries"):
            det_exact([[1.0, 0], [0, 1.0]])
        for x in (np.float32(1), Fraction(1), Decimal(1), "1", None):
            with pytest.raises(ValueError, match="integer entries"):
                det_exact([[x, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            det_exact([[1, 2, 3], [4, 5, 6]])

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60)
    def test_matches_cofactor_expansion(self, n, data):
        m = [[data.draw(small_int) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == cofactor_det(m)

    def test_distance_det_matches_numpy(self):
        d = distance_matrix(generalized_barbell(4, 3, 2))
        assert det_exact(d) == round(np.linalg.det(np.array(d, dtype=float)))


class TestInertia:
    def test_identity_and_zero(self):
        assert inertia_exact([[1, 0], [0, 1]]) == Inertia(2, 0, 0)
        assert inertia_exact([[0, 0], [0, 0]]) == Inertia(0, 2, 0)

    def test_hyperbolic_pair(self):
        # zero diagonal forces the 2x2 pivot path
        assert inertia_exact([[0, 1], [1, 0]]) == Inertia(1, 0, 1)
        assert inertia_exact([[0, 0, 2], [0, 0, 0], [2, 0, 0]]) == \
            Inertia(1, 1, 1)

    def test_tree_distance_inertia(self):
        for g in (path(5), path(9)):
            assert inertia_exact(distance_matrix(g)) == \
                Inertia(1, 0, g.n - 1)

    def test_cycle_distance_inertia(self):
        # C_4: eigenvalues 4, 0, -2, -2
        assert inertia_exact(distance_matrix(cycle(4))) == Inertia(1, 1, 2)
        # C_5: 6 and two conjugate pairs, all negative
        assert inertia_exact(distance_matrix(cycle(5))) == Inertia(1, 0, 4)

    def test_diameter_two_regular_example(self):
        # Petersen distance spectrum 15, 0^4, (-3)^5
        assert inertia_exact(distance_matrix(petersen())) == Inertia(1, 4, 5)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            inertia_exact([[0, 1], [2, 0]])

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_sign_counts(self, n, data):
        m = sym_matrix(n, data)
        eigs = np.linalg.eigvalsh(np.array(m, dtype=float))
        # integer char poly: any nonzero eigenvalue is far from zero at
        # these sizes, so a loose threshold classifies signs safely
        pos = int((eigs > 1e-7).sum())
        neg = int((eigs < -1e-7).sum())
        assert inertia_exact(m) == Inertia(pos, n - pos - neg, neg)

    def test_counts_sum_to_order(self):
        res = inertia_exact(distance_matrix(hypercube(4)))
        assert res.positive + res.zero + res.negative == 16


class TestRank:
    def test_distance_rank_examples(self):
        m = distance_matrix(complete(6))
        assert len(m) - inertia_exact(m).zero == 6
        m = distance_matrix(petersen())
        assert len(m) - inertia_exact(m).zero == 6  # 15 and (-3)^5

    def test_fraction_entries(self):
        m = [[Fraction(1, 2), 1], [1, 2]]
        assert len(m) - inertia_exact(m).zero == 1
        # scaled by the LCM 6 of the denominators to diag(3, 2)
        assert distinct_eigenvalue_count(
            [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == 2

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy(self, n, data):
        m = sym_matrix(n, data)
        assert len(m) - inertia_exact(m).zero == np.linalg.matrix_rank(
            np.array(m, dtype=float), tol=1e-9)


class TestDistinctEigenvalueCount:
    def test_complete_graph_two(self):
        assert distinct_eigenvalue_count(distance_matrix(complete(7))) == 2

    def test_path_has_full_count(self):
        for n in (2, 3, 4, 5, 6):
            assert distinct_eigenvalue_count(distance_matrix(path(n))) == n

    def test_hamming_three(self):
        assert distinct_eigenvalue_count(distance_matrix(hamming(2, 3))) == 3
        assert distinct_eigenvalue_count(distance_matrix(hypercube(4))) == 3

    def test_petersen_three(self):
        assert distinct_eigenvalue_count(distance_matrix(petersen())) == 3

    def test_leaf_perturbs_to_five(self):
        d = distance_matrix(hypercube_with_leaf(4))
        assert distinct_eigenvalue_count(d) == 5

    def test_scalar_matrix_one(self):
        assert distinct_eigenvalue_count([[3, 0], [0, 3]]) == 1

    def test_order_cap(self):
        big = [[0] * 300 for _ in range(300)]
        with pytest.raises(ValueError, match="cap"):
            distinct_eigenvalue_count(big)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_cluster_count(self, n, data):
        m = sym_matrix(n, data)
        eigs = sorted(np.linalg.eigvalsh(np.array(m, dtype=float)))
        clusters = 1
        for a, b in zip(eigs, eigs[1:]):
            if b - a > 1e-6:
                clusters += 1
        assert distinct_eigenvalue_count(m) == clusters


@pytest.mark.parametrize("fn", [inertia_exact, distinct_eigenvalue_count])
@pytest.mark.parametrize("x", [
    float("inf"), float("-inf"), float("nan"),
    pytest.param(Decimal("Infinity"), id="Decimal-Infinity"),
    pytest.param(Decimal("-Infinity"), id="Decimal--Infinity"),
    pytest.param(Decimal("NaN"), id="Decimal-NaN"),
    pytest.param(np.float32("inf"), id="float32-inf"),
    pytest.param(np.float64("nan"), id="float64-nan")])
def test_non_finite_entries_are_refused(fn, x):
    # one ValueError naming the entry, not Fraction's OverflowError for inf
    with pytest.raises(ValueError,
                       match=rf"^entry \(1, 1\) is {re.escape(str(x))}, "
                             "not finite$"):
        fn([[1.5, 2], [2, x]])


class TestEntries:
    """An entry is a rational, numpy integers included, or a finite float,
    numpy float or Decimal, each taken exactly; any other is refused."""

    def test_numpy_integers_count_as_integers(self):
        a = distance_array(cycle(5))
        assert det_exact(a) == cofactor_det(a.tolist()) == 6
        assert inertia_exact(a) == Inertia(1, 0, 4)
        assert distinct_eigenvalue_counts([a, a]) == [3, 3]

    def test_numpy_integers_become_python_ints_before_the_bound(self):
        # the squares of these int64 entries overflow int64
        base = [[2, -1, 0], [-1, 0, 5], [0, 5, -4]]
        a = np.array(base, dtype=np.int64) * 3 * 10**9
        assert det_exact(a) == cofactor_det(a.tolist()) == -46 * 27 * 10**27
        assert inertia_exact(a) == inertia_exact(base)
        assert distinct_eigenvalue_counts([a]) == [3]

    @pytest.mark.parametrize("x", [
        1.5, np.float16(1.5), np.float32(1.5), np.float64(1.5),
        Decimal("1.5"), Fraction(3, 2)], ids=lambda x: type(x).__name__)
    def test_real_entries(self, x, monkeypatch):
        monkeypatch.setattr(exact, "_last", None)  # equal entries would hit
        m = [[1, x], [x, 2]]  # twice it is [[2, 3], [3, 4]], det -1
        assert inertia_exact(m) == Inertia(1, 0, 1)
        assert distinct_eigenvalue_count(m) == 2

    def test_entries_are_taken_exactly(self):
        # float32(0.1), 0.1 and Decimal('0.1') are three different numbers
        for x, y in ((np.float32(0.1), 0.1), (Decimal("0.1"), 0.1)):
            assert distinct_eigenvalue_count([[x, 0], [0, y]]) == 2
        assert distinct_eigenvalue_count(
            [[Decimal("0.5"), 0], [0, np.float32(0.5)]]) == 1

    @pytest.mark.parametrize("fn", [inertia_exact, distinct_eigenvalue_count])
    @pytest.mark.parametrize("x", [None, "1/2", 1j, np.bool_(True)],
                             ids=["None", "str", "complex", "bool_"])
    def test_other_entries_are_refused(self, fn, x):
        with pytest.raises(ValueError,
                           match=rf"^entry \(0, 1\) is {re.escape(repr(x))}, "
                                 "not a rational, float or Decimal$"):
            fn([[1, x], [x, 2]])
