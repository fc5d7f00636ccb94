"""The characteristic-polynomial kernel of `distspec.exact` against the
independent rational referees in `exact_referee`, on random, exhaustive and
adversarial inputs."""

import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_trees
from distspec import exact
from distspec.bounds import trees_by_order
from distspec.closedforms import halved_cube_spectrum, hamming_spectrum
from distspec.distances import distance_array, distance_matrix
from distspec.exact import (Inertia, det_exact, distinct_eigenvalue_count,
                            distinct_eigenvalue_counts, inertia_exact)
from distspec.graphs import (cocktail_party, complete, cycle,
                             generalized_barbell, halved_cube, hypercube,
                             icosahedron, lollipop, petersen)
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
    assert len(m) - inertia_exact(m).zero == rank
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
        # prime at different places, while the kernel's largest prime
        # rarely splits
        entry = st.integers(-6, 6)
        if sym:
            m = symmetric(n, lambda: data.draw(entry))
        else:
            m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        primes = [2, 3, 5, exact._primes_over(1)[0]]
        chi = leverrier_charpoly(m)
        got = exact._charpoly_residues([m], primes)[0].tolist()
        assert got == [[c % p for c in chi] for p in primes]

    def test_largest_residues_at_the_order_cap(self):
        # (p-1)J is -J mod p, whose chi is x^(n-1) (x+n); with every entry
        # p-1, each sum of products is as large as the prime bound allows
        n, p = exact.EXACT_ORDER_CAP, exact._primes_over(1)[0]
        m = [[p - 1] * n for _ in range(n)]
        got = exact._charpoly_residues([m], [p])[0].tolist()
        assert got == [[0] * (n - 1) + [n % p, 1]]

    def test_kernel_chi_matches_leverrier(self):
        d = distance_matrix(generalized_barbell(3, 3, 2))
        assert exact._chi_of(d) == leverrier_charpoly(d)


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

        def spy(mats, primes):
            used.append(len(primes))
            return chi(mats, primes)

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
        assert len(m) - inertia_exact(m).zero == fraction_rank_det(m)[0]

    def test_order_zero(self):
        assert det_exact([]) == 1  # empty product
        assert inertia_exact([]) == Inertia(0, 0, 0)
        assert distinct_eigenvalue_count([]) == 0
        assert len([]) - inertia_exact([]).zero == 0

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


def full_bound_primes(m):
    """Primes the lift takes under the Hadamard bound of every order: the
    product must exceed twice the largest e_k(r), r_i = isqrt|row_i|^2 + 1."""
    e = [1]
    for row in m:
        r = math.isqrt(sum(x * x for x in row)) + 1
        e = [a + r * b for a, b in zip(e + [0], [0] + e)]
    return len(exact._primes_over(2 * max(e)))


def charpoly_of(spectrum):
    """prod (x - value)^mult over integer eigenvalues, lowest degree first."""
    poly = [1]
    for value, mult in spectrum.entries:
        for _ in range(mult):
            poly = [a - value * b for a, b in zip([0] + poly, poly + [0])]
    return poly


@st.composite
def low_rank_symmetric(draw):
    """A symmetric integer matrix U^T S U + p V^T T V of order <= 12 and
    rank <= 6, p the first prime: its rank modulo p is at most rank U."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 6))
    k_mod = draw(st.integers(0, 6 - k))
    p = exact._primes_over(1)[0]
    m = [[0] * n for _ in range(n)]
    for scale, count in ((1, k), (p, k_mod)):
        for _ in range(count):
            s = scale * draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            u = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
            for i in range(n):
                for j in range(n):
                    m[i][j] += s * u[i] * u[j]
    return m


def spy(monkeypatch):
    """Record the modular eliminations, and the prime count of each CRT
    lift."""
    calls = {"rank": 0, "lifts": []}
    rank, lift = exact._modular_rank, exact._crt_lift

    def counted_rank(*args):
        calls["rank"] += 1
        return rank(*args)

    def counted_lift(res, primes):
        calls["lifts"].append(len(primes))
        return lift(res, primes)

    monkeypatch.setattr(exact, "_modular_rank", counted_rank)
    monkeypatch.setattr(exact, "_crt_lift", counted_lift)
    return calls


class TestCertificate:
    """The lift under the bound at the modular rank + 2, and the two zero
    coefficients that certify it."""

    def test_rank_drop_modulo_p_takes_the_full_lift(self, monkeypatch):
        used = spy(monkeypatch)["lifts"]
        p = exact._primes_over(1)[0]
        diag = [[p if i == j == 0 else int(i == j == 1) for j in range(6)]
                for i in range(6)]
        assert_matches_referees(diag)
        assert used[-1] == full_bound_primes(diag)
        # rank 0 modulo p; with trace 0 the coefficient of x^(n-1) is 0
        # too, and only the one of x^(n-2) shows the certificate failing
        for last in (0, 2):
            base = [[2, -1, 0, 3], [-1, 0, 5, 1], [0, 5, -4, 2],
                    [3, 1, 2, last]]
            m = [[p * x for x in row] for row in base]
            used.clear()
            assert_matches_referees(m)
            assert used[0] < used[1] == full_bound_primes(m)

    def test_low_rank_lifts_fewer_primes(self, monkeypatch):
        used = spy(monkeypatch)["lifts"]
        rng = random.Random(29)
        us = [[rng.randint(-10**6, 10**6) for _ in range(12)]
              for _ in range(3)]
        rank3 = [[sum(u[i] * u[j] for u in us) for j in range(12)]
                 for i in range(12)]
        assert fraction_rank_det(rank3)[0] == 3
        assert max(map(max, rank3)) > 10**12
        for m in (distance_matrix(hypercube(6)),
                  distance_matrix(halved_cube(7)), rank3):
            used.clear()
            assert_matches_referees(m)
            assert len(used) == 1 and used[0] < full_bound_primes(m)

    def test_low_rank_at_the_order_cap(self, monkeypatch):
        # the referees take seconds at order 256; the closed forms give
        # chi itself
        used = spy(monkeypatch)["lifts"]
        for g, spectrum in ((hypercube(8), hamming_spectrum(8, 2)),
                            (halved_cube(9), halved_cube_spectrum(9))):
            d = distance_matrix(g)
            used.clear()
            assert exact._chi_of(d) == charpoly_of(spectrum.spectrum)
            assert len(used) == 1 and used[0] < full_bound_primes(d)

    @given(low_rank_symmetric())
    @settings(max_examples=60, deadline=None)
    def test_low_rank_symmetric(self, m):
        assert_matches_referees(m)


class TestKernelSharing:
    def test_one_kernel_run_per_matrix(self, monkeypatch):
        calls = spy(monkeypatch)
        d = distance_matrix(generalized_barbell(3, 4, 2))
        want = det_exact(d), inertia_exact(d), distinct_eigenvalue_count(d)
        assert (calls["rank"], len(calls["lifts"])) == (1, 1)
        d[0][1] = d[1][0] = 5  # same list, new contents: a new kernel run
        inertia_exact(d)
        assert (calls["rank"], len(calls["lifts"])) == (2, 2)
        # a prime that divides every entry: the certificate fails, and one
        # more lift under the full bound follows
        p = exact._primes_over(1)[0]
        m = [[p * x for x in row] for row in
             [[2, -1, 0, 3], [-1, 0, 5, 1], [0, 5, -4, 2], [3, 1, 2, 0]]]
        det_exact(m)
        inertia_exact(m)
        distinct_eigenvalue_count(m)
        assert (calls["rank"], len(calls["lifts"])) == (3, 4)
        # the uint16 array of the first matrix: one run, the same answers
        a = distance_array(generalized_barbell(3, 4, 2))
        assert a.dtype == np.uint16
        assert (det_exact(a), inertia_exact(a),
                distinct_eigenvalue_count(a)) == want
        assert (calls["rank"], len(calls["lifts"])) == (4, 5)

    def test_nonsymmetric_det_takes_no_elimination(self, monkeypatch):
        calls = spy(monkeypatch)
        m = [[9, 3, 1], [2, 7, 4], [5, 8, 6]]
        assert det_exact(m) == cofactor_det(m)
        assert calls == {"rank": 0, "lifts": [full_bound_primes(m)]}

    def test_integer_check_precedes_memo(self):
        det_exact([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="integer entries"):
            det_exact([[1.0, 0], [0, 1.0]])

    def test_determinant_cross_check(self, monkeypatch):
        # hypercube(6) has rank 7: the elimination runs through every
        # column and reports det = 0 mod p, here replaced by 1
        d = distance_matrix(hypercube(6))
        rank = exact._modular_rank
        assert rank(d, exact._primes_over(1)[0], 64) == (7, 0)
        monkeypatch.setattr(exact, "_modular_rank",
                            lambda *args: (rank(*args)[0], 1))
        with pytest.raises(ArithmeticError, match="determinant"):
            inertia_exact(d)

    def test_rank_above_the_truth_raises(self, monkeypatch):
        # hypercube(6) has rank 7; a claimed 8 passes the two-zero
        # certificate, as the coefficients of x^55 and x^54 are 0, but
        # not the rank check
        d = distance_matrix(hypercube(6))
        used = spy(monkeypatch)["lifts"]
        monkeypatch.setattr(exact, "_modular_rank", lambda *args: (8, None))
        with pytest.raises(ArithmeticError, match="rank 8"):
            inertia_exact(d)
        assert len(used) == 1 and used[0] < full_bound_primes(d)

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

        top = 2 ** 27  # (63 - EXACT_ORDER_CAP.bit_length()) // 2 bits
        primes = exact._primes_over(2 ** 200)
        assert primes[0] == top - 39
        assert primes == sorted(set(primes), reverse=True)
        assert all(trial(p) for p in primes)
        # and no prime between them is skipped
        assert [m for m in range(primes[-1], top, 2) if trial(m)] == \
            primes[::-1]


class TestBatch:
    """`distinct_eigenvalue_counts`: one stack of characteristic
    polynomials for a batch of one order, lifted under one full bound."""

    def test_every_tree_through_order_11(self):
        for order, trees in enumerate(trees_by_order(11), start=2):
            mats = [distance_matrix(t) for t in trees]
            assert distinct_eigenvalue_counts(mats) == \
                [distinct_eigenvalue_count(m) for m in mats], order

    def test_mixed_order_12_batch_off_trees(self, monkeypatch):
        # three singular matrices, which the single path lifts under a
        # bound sized by their modular rank, K_12 and one tree
        mats = [distance_matrix(g) for g in
                (cycle(12), cocktail_party(6), complete(12), icosahedron(),
                 enumerate_trees(12)[100])]
        want = [distinct_eigenvalue_count(m) for m in mats]
        assert want == [krylov_distinct_count(m) for m in mats]
        assert [exact._zero(exact._chi_of(m)) for m in mats] == \
            [5, 5, 0, 5, 0]
        calls = spy(monkeypatch)
        assert distinct_eigenvalue_counts(mats) == want
        # one lift, under a bound no smaller than any matrix's own
        assert calls["rank"] == 0 and len(calls["lifts"]) == 1
        assert calls["lifts"][0] >= max(map(full_bound_primes, mats))

    def test_one_bound_covers_the_largest_matrix(self):
        # chi of the second matrix needs about 10 primes, of the first 1;
        # lifted under the first one's bound, it comes out garbled, with
        # 10 distinct roots where the scaled Petersen matrix has 3
        small = distance_matrix(lollipop(4, 6))
        big = [[10**12 * x for x in row]
               for row in distance_matrix(petersen())]
        want = [krylov_distinct_count(m) for m in (small, big)]
        assert want[1] == 3
        assert distinct_eigenvalue_counts([small, big]) == want
        assert distinct_eigenvalue_counts([big, small]) == want[::-1]

    @pytest.mark.parametrize("entries, first", [(1000, (3, 2)),
                                                (100, (1, 1))])
    def test_chunks_of_every_tree_of_order_12(self, monkeypatch, entries,
                                              first):
        # the batch takes 2 primes: 1000 entries, six 12 x 12 slices, hold
        # three matrices with both primes, and 100 entries one slice
        mats = [distance_matrix(t) for t in enumerate_trees(12)]
        want = [distinct_eigenvalue_count(m) for m in mats]
        chunks = []
        stack = exact._stack_charpoly

        def counted(h, primes):
            chunks.append(h.shape[:2])
            return stack(h, primes)

        monkeypatch.setattr(exact, "_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(exact, "_stack_charpoly", counted)
        assert distinct_eigenvalue_counts(mats) == want
        assert chunks[0] == first
        assert sum(a * b for a, b in chunks) == len(mats) * 2

    def test_refusals(self):
        assert distinct_eigenvalue_counts([]) == []
        assert distinct_eigenvalue_counts([[]]) == [0]
        with pytest.raises(ValueError, match="matrices must share one order"):
            distinct_eigenvalue_counts([[[0]], [[0, 1], [1, 0]]])
        with pytest.raises(ValueError, match="matrix must be square"):
            distinct_eigenvalue_counts([[[0, 1]]])
        for x in (Fraction(1, 2), 1.0, np.float32(1), Decimal(1), "1", None):
            with pytest.raises(ValueError, match="integer entries required"):
                distinct_eigenvalue_counts([[[x]]])
        with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
            distinct_eigenvalue_counts([[[0, 1], [1, 0]], [[0, 1], [2, 0]]])
        n = exact.EXACT_ORDER_CAP + 1
        with pytest.raises(ValueError, match=f"order {n} exceeds"):
            distinct_eigenvalue_counts([[[0] * n] * n])
