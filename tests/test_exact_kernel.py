"""The characteristic-polynomial kernel of `distspec.exact` against the
independent rational referees in `exact_referee`, on random, exhaustive and
adversarial inputs."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distspec import exact
from distspec.bounds import enumerate_trees
from distspec.distances import distance_matrix
from distspec.exact import (Inertia, det_exact, distinct_eigenvalue_count,
                            inertia_exact, rank_exact)
from distspec.graphs import generalized_barbell, lollipop
from exact_referee import (congruence_inertia, fraction_rank_det,
                           krylov_distinct_count, leverrier_charpoly)
from test_exact import cofactor_det


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Start each test without the previous test's last matrix."""
    monkeypatch.setattr(exact, "_last", None)


def symmetric(n, draw_entry):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw_entry()
    return m


def assert_matches_referees(m):
    n = len(m)
    rank, det = fraction_rank_det(m)
    assert inertia_exact(m) == congruence_inertia(m)
    assert rank_exact(m) == rank
    if all(type(x) is int for row in m for x in row):
        assert det_exact(m) == det
    if n <= exact.EXACT_ORDER_CAP:
        assert distinct_eigenvalue_count(m) == krylov_distinct_count(m)


CLIQUE_PATHS = ([("barbell", (k, m, l)) for k in range(2, 9)
                 for m in range(2, 9) for l in range(0, 9)]
                + [("lollipop", (k, l)) for k in range(2, 9)
                   for l in range(0, 9)])


class TestAgainstReferees:
    @given(st.integers(0, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_symmetric(self, n, data):
        m = symmetric(n, lambda: data.draw(st.integers(-6, 6)))
        assert_matches_referees(m)

    def test_every_tree_through_order_10(self):
        for order in range(2, 11):
            for t in enumerate_trees(order):
                d = distance_matrix(t)
                assert inertia_exact(d) == congruence_inertia(d), t.edges
                assert distinct_eigenvalue_count(d) == \
                    krylov_distinct_count(d), t.edges

    @given(st.sampled_from(CLIQUE_PATHS))
    @settings(max_examples=25, deadline=None)
    def test_clique_path_grid(self, case):
        kind, params = case
        g = (generalized_barbell if kind == "barbell" else lollipop)(*params)
        assert_matches_referees(distance_matrix(g))

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_det_of_nonsymmetric(self, n, data):
        m = [[data.draw(st.integers(-6, 6)) for _ in range(n)]
             for _ in range(n)]
        assert det_exact(m) == cofactor_det(m)


class TestCharpolyResidues:
    @given(st.integers(1, 8), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_small_primes_split_blocks_differently(self, n, sym, data):
        # mod 2, 3 or 5 the Hessenberg form often splits into blocks, each
        # prime at different places, while the 31-bit prime rarely splits
        entry = st.integers(-6, 6)
        if sym:
            m = symmetric(n, lambda: data.draw(entry))
        else:
            m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        primes = [2, 3, 5, 2 ** 31 - 1]
        chi = leverrier_charpoly(m)
        got = exact._charpoly_residues(m, primes).tolist()
        assert got == [[c % p for c in chi] for p in primes]

    def test_kernel_chi_matches_leverrier(self):
        d = distance_matrix(generalized_barbell(3, 3, 2))
        assert exact._kernel(d).chi == leverrier_charpoly(d)


class TestAdversarial:
    def test_zero_modulo_first_prime(self):
        p = exact._primes_over(1)[0]
        base = [[2, -1, 0, 3], [-1, 0, 5, 1], [0, 5, -4, 2], [3, 1, 2, 0]]
        m = [[p * x for x in row] for row in base]
        assert_matches_referees(m)
        assert det_exact(m) == cofactor_det(m) == p ** 4 * cofactor_det(base)

    def test_entries_near_10_to_12(self, monkeypatch):
        used = []
        chi = exact._charpoly_residues

        def spy(rows, primes):
            used.append(len(primes))
            return chi(rows, primes)

        monkeypatch.setattr(exact, "_charpoly_residues", spy)
        rng = random.Random(12)
        m = symmetric(10, lambda: 10**12 + rng.randint(-50, 50))
        assert_matches_referees(m)
        assert used and min(used) >= 10  # bound near 10**125

    def test_entries_beyond_int64(self):
        m = [[10**20, 3, -(10**19)], [3, -7, 10**20 + 1],
             [-(10**19), 10**20 + 1, 2]]
        assert_matches_referees(m)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fraction_entries(self, n, data):
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        m = symmetric(n, lambda: data.draw(entry))
        assert inertia_exact(m) == congruence_inertia(m)
        assert rank_exact(m) == fraction_rank_det(m)[0]

    def test_rank_deficient_non_square(self):
        a, b = [1, 2, 0, -1, 3, 5, 7], [0, 1, 1, 4, -2, 0, 1]
        m = [a, b, [x + y for x, y in zip(a, b)], [2 * x - 3 * y
                                                   for x, y in zip(a, b)]]
        assert rank_exact(m) == fraction_rank_det(m)[0] == 2
        assert rank_exact([row[:3] for row in m]) == 2
        assert rank_exact(list(zip(*m))) == 2
        half = [[Fraction(x, 2) for x in row] for row in m]
        assert rank_exact(half) == 2

    def test_ragged_rows_rejected(self):
        for ragged in ([[1, 2, 3], [4]], [[1], [2, 3]]):
            with pytest.raises(ValueError, match="equal length"):
                rank_exact(ragged)

    def test_order_zero(self):
        assert det_exact([]) == 1  # empty product
        assert inertia_exact([]) == Inertia(0, 0, 0)
        assert distinct_eigenvalue_count([]) == 0
        assert rank_exact([]) == 0

    def test_order_one(self):
        for x in (-5, 0, 7):
            m = [[x]]
            assert det_exact(m) == cofactor_det(m) == x
            assert_matches_referees(m)

    @pytest.mark.parametrize("routine", [det_exact, inertia_exact])
    def test_order_cap(self, routine):
        n = exact.EXACT_ORDER_CAP + 1
        big = [[int(i != j) for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError, match=f"order {n} exceeds the exact "
                                             f"search cap 256"):
            routine(big)


class TestKernelSharing:
    def test_one_kernel_run_per_matrix(self, monkeypatch):
        calls = {"bareiss": 0, "chi": 0}
        bareiss, chi = exact._bareiss, exact._charpoly_residues

        def count(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(exact, "_bareiss", count("bareiss", bareiss))
        monkeypatch.setattr(exact, "_charpoly_residues", count("chi", chi))
        d = distance_matrix(generalized_barbell(3, 4, 2))
        det_exact(d)
        inertia_exact(d)
        distinct_eigenvalue_count(d)
        assert calls == {"bareiss": 1, "chi": 1}
        d[0][1] = d[1][0] = 5  # same list, new contents: a new kernel run
        inertia_exact(d)
        assert calls == {"bareiss": 2, "chi": 2}

    def test_integer_check_precedes_memo(self):
        det_exact([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="integer entries"):
            det_exact([[1.0, 0], [0, 1.0]])

    def test_determinant_cross_check(self, monkeypatch):
        monkeypatch.setattr(exact, "_bareiss", lambda rows: (2, 5))
        with pytest.raises(ArithmeticError, match="determinant"):
            inertia_exact([[1, 2], [2, 1]])

    def test_primes_not_built_at_import(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import distspec.exact as e; print(len(e._PRIMES))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "0"

    def test_primes_are_prime(self):
        def trial(m):
            return m > 1 and all(m % q for q in range(2, math.isqrt(m) + 1))

        assert [m for m in range(3, 5000, 2) if exact._is_prime(m)] == \
            [m for m in range(3, 5000, 2) if trial(m)]
        primes = exact._primes_over(2 ** 200)
        assert primes[0] == 2 ** 31 - 1
        assert primes == sorted(set(primes), reverse=True)
        assert all(trial(p) for p in primes)
