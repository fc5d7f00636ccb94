"""Exact value arithmetic and spectrum containers."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import largest, multiplicity, smallest, trace
from distspec import cli, spectra
from distspec.spectra import (QuadraticNumber, Spectrum, _squarefree_split,
                              cluster_to_spectrum, error_bound, exact_string,
                              max_deviation, spectra_match)


def trial_division_split(d):
    """Referee for `_squarefree_split`: trial division by every integer up
    to the square root of what is left."""
    root = math.isqrt(d)
    if d and root * root == d:
        return root, 1
    s, r, p = 1, 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            s *= p
        if d % p == 0:
            d //= p
            r *= p
        p += 1
    return s, r * d


def qn(a, b, d):
    return QuadraticNumber(Fraction(a), Fraction(b), d)


class TestQuadraticNumber:
    def test_radicand_reduced_to_squarefree(self):
        x = qn(0, 1, 8)
        assert (x.a, x.b, x.d) == (0, 2, 2)
        assert abs(float(x) - math.sqrt(8)) < 1e-12

    def test_square_radicand_folds_into_rational_part(self):
        x = qn(1, 3, 9)
        assert (x.a, x.b, x.d) == (10, 0, 0)

    def test_squarefree_split_of_small_radicands(self):
        for d in range(20000):
            s, r = _squarefree_split(d)
            assert s * s * r == d
            assert all(r % (p * p) for p in range(2, math.isqrt(r) + 1))

    def test_squarefree_split_matches_full_trial_division(self):
        for d in range(20000):
            assert _squarefree_split(d) == trial_division_split(d), d
        # radicands whose prime factors straddle the cube root, where the
        # search stops and the cofactor is told apart by one isqrt
        primes = [p for p in range(2, 400)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        for i, p in enumerate(primes):
            for q in primes[i + 1:i + 6]:
                for d in (p * q, p * p, q * q, p * p * q, p * q * q,
                          p * p * q * q, 4 * p * q, 12 * q * q):
                    assert _squarefree_split(d) == trial_division_split(d), d

    def test_zero_coefficient_clears_radicand(self):
        assert qn(7, 0, 5).d == 0

    def test_addition_and_subtraction(self):
        x = qn(-3, 1, 5)
        y = qn(-7, -3, 5)
        assert x + y == qn(-10, -2, 5)
        assert x - y == qn(4, 4, 5)
        assert x + 3 == qn(0, 1, 5)

    def test_conjugate_product_is_rational(self):
        x = qn(1, 1, 5)
        y = qn(1, -1, 5)
        assert x * y == qn(-4, 0, 0)
        assert (x * y) == Fraction(-4)

    def test_scaling_by_rational(self):
        assert qn(1, 2, 3) * Fraction(1, 2) == qn(Fraction(1, 2), 1, 3)

    def test_sign_needs_exact_comparison(self):
        # a and b*sqrt(d) nearly cancel: 2 - sqrt(3.99...) style cases
        assert qn(2, -1, 3) > 0
        assert qn(3, -2, 3) < 0
        assert qn(-3, 0, 0) + 3 == 0

    def test_ordering_same_radicand(self):
        golden = qn(-3, 1, 5)       # about -0.76
        other = qn(-7, -3, 5)       # about -13.7
        assert other < golden
        assert golden < 0 < qn(0, 1, 5)

    def test_comparison_with_integers(self):
        assert qn(-3, 1, 5) > -1
        assert qn(-3, 1, 5) < 0

    def test_str_form(self):
        assert str(qn(Fraction(-3, 2), Fraction(1, 2), 13)) == \
            "-3/2+1/2*sqrt(13)"
        assert str(qn(-3, -1, 5)) == "-3-sqrt(5)"
        assert str(qn(4, 0, 0)) == "4"

    def test_float_accuracy(self):
        assert abs(float(qn(0, 1, 2)) - math.sqrt(2)) < 1e-15

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
           st.integers(-30, 30))
    def test_addition_matches_float_model(self, a1, b1, a2, b2):
        x, y = qn(a1, b1, 7), qn(a2, b2, 7)
        assert abs(float(x + y) - (float(x) + float(y))) < 1e-9

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
           st.integers(-20, 20))
    def test_product_matches_float_model(self, a1, b1, a2, b2):
        x, y = qn(a1, b1, 7), qn(a2, b2, 7)
        assert abs(float(x * y) - float(x) * float(y)) < 1e-7

    def test_equal_values_hash_equal(self):
        rational = [QuadraticNumber(3), 3, Fraction(3)]
        irrational = [QuadraticNumber(0, 2, 8), QuadraticNumber(0, 4, 2)]
        for same in (rational, irrational):
            assert all(x == same[0] for x in same)
            assert len({hash(x) for x in same}) == 1
        assert len(set(rational + irrational)) == 2

    def test_negative_radicand_refused(self):
        with pytest.raises(ValueError, match="radicand must be non-negative"):
            QuadraticNumber(0, 1, -1)

    def test_irrational_has_no_fraction(self):
        with pytest.raises(ValueError, match=r"1\+sqrt\(2\) is irrational"):
            QuadraticNumber(1, 1, 2).as_fraction()

    def test_order_against_a_string_refused(self):
        with pytest.raises(TypeError,
                           match="cannot order QuadraticNumber and str"):
            QuadraticNumber(0, 1, 2) < "x"

    def test_arithmetic_across_radicands_or_with_a_string_refused(self):
        x, y = qn(0, 1, 2), qn(0, 1, 3)
        for op in (lambda u, v: u + v, lambda u, v: u * v):
            with pytest.raises(TypeError):
                op(x, y)
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v):
            with pytest.raises(TypeError):
                op(x, "x")

    def test_integer_minus_quadratic(self):
        assert 1 - qn(0, 1, 2) == qn(1, -1, 2)

    def test_never_equal_to_a_string_or_an_unequal_int(self):
        x = qn(0, 1, 2)
        assert not x == "x" and not x == 1


class TestExactString:
    def test_int_fraction_quadratic_float(self):
        assert exact_string(5) == "5"
        assert exact_string(Fraction(1, 3)) == "1/3"
        assert exact_string(qn(0, 1, 2)) == "sqrt(2)"
        assert exact_string(2.5) is None


class TestSpectrum:
    def test_sorted_descending_and_merged(self):
        s = Spectrum([(2, 1), (5, 1), (2, 2)])
        assert s.entries == ((5, 1), (2, 3))
        assert s.dimension == 4

    def test_rational_values_canonicalized_to_int(self):
        s = Spectrum([(Fraction(4, 2), 1), (qn(3, 0, 0), 1)])
        assert s.entries == ((3, 1), (2, 1))
        assert all(isinstance(v, int) for v, _ in s.entries)

    def test_multiplicity_lookup(self):
        s = Spectrum([(6, 1), (0, 3), (-2, 2)])
        assert multiplicity(s, 0) == 3
        assert multiplicity(s, -2) == 2
        assert multiplicity(s, 7) == 0
        assert multiplicity(s, -2 + 1e-12, tol=1e-9) == 2

    def test_trace_and_inertia(self):
        s = Spectrum([(6, 1), (0, 3), (-2, 3)])
        assert trace(s) == 0
        assert s.inertia_counts() == (1, 3, 3)

    def test_largest_smallest(self):
        s = Spectrum([(6, 1), (0, 3), (-2, 3)])
        assert largest(s) == 6
        assert smallest(s) == -2

    def test_json_dict_rounds_floats(self):
        s = Spectrum([(1.23456789012345e-5, 2)])
        d = s.to_json_dict()
        assert d["n"] == 2
        assert d["eigs"][0]["value"] == 1.23456789012e-5
        assert d["eigs"][0]["exact"] is None

    def test_mixed_exact_kinds_sort_exactly(self):
        s = Spectrum([(qn(-3, 1, 5), 1), (0, 1), (qn(-3, -1, 5), 1), (-2, 1)])
        vals = [float(v) for v, _ in s.entries]
        assert vals == sorted(vals, reverse=True)
        assert s.entries[0][0] == 0

    def test_repr_and_equality_with_other_types(self):
        s = Spectrum([(2, 3), (0.5, 1)])
        assert repr(s) == "Spectrum(2^3, 0.5)"
        assert not s == "x" and not s == 1


class TestSpectrumConstruction:
    def test_rejects_negative_multiplicity(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            Spectrum([(1, 1), (2, -1)])

    @pytest.mark.parametrize("pairs", [[], [(1, 0)]])
    def test_rejects_empty(self, pairs):
        with pytest.raises(ValueError, match="empty spectrum"):
            Spectrum(pairs)

    def test_drops_zero_multiplicities(self):
        s = Spectrum([(5, 0), (2, 1), (7, 0), (-1, 2)])
        assert s.entries == ((2, 1), (-1, 2))

    def test_first_given_value_stands_for_equal_ones(self):
        s = Spectrum([(3, 1), (3.0, 2), (Fraction(6, 2), 1)])
        assert s.entries == ((3, 4),) and type(largest(s)) is int
        s = Spectrum([(3.0, 1), (3, 1)])
        assert s.entries == ((3.0, 2),) and type(largest(s)) is float

    def test_every_input_order_gives_one_tuple(self):
        mix = [(2, 1), (Fraction(1, 3), 1), (-0.5, 1), (qn(-3, 1, 5), 1),
               (qn(Fraction(-5, 2), Fraction(1, 2), 33), 1)]
        expected = [(int, 2), (QuadraticNumber, mix[4][0]),
                    (Fraction, Fraction(1, 3)), (float, -0.5),
                    (QuadraticNumber, mix[3][0])]
        for order in permutations(mix):
            s = Spectrum(order)
            assert [(type(v), v) for v, _ in s.entries] == expected
            assert s.dimension == 5

    @pytest.mark.parametrize("pairs", [[(math.nan, 1)],
                                       [(1, 1), (math.nan, 2), (0, 1)]])
    def test_rejects_nan(self, pairs):
        with pytest.raises(ValueError, match="NaN"):
            Spectrum(pairs)

    def test_values_equal_only_through_a_float_stay_apart(self):
        # 1e20 is exactly 10**20, and 10**20 + 1 rounds to it as a float
        pairs = [(10**20, 1), (1e20, 1), (10**20 + 1, 1)]
        for order in permutations(pairs):
            assert [m for _, m in Spectrum(order).entries] == [1, 2]


class TestClustering:
    def test_near_duplicates_merge(self):
        vals = [3.0 + 4e-15, 3.0 - 4e-15, 1.0]
        assert vals[0] - vals[1] < 2 * error_bound(vals)
        s = cluster_to_spectrum(vals)
        assert [(round(float(v), 6), m) for v, m in s.entries] == \
            [(3.0, 2), (1.0, 1)]

    def test_chain_merging_is_transitive(self):
        # each neighbor is within tol even though the ends are not
        vals = [1.0 + 1.2e-14, 1.0 + 6e-15, 1.0]
        tol = 2 * error_bound(vals)
        assert vals[0] - vals[1] < tol and vals[1] - vals[2] < tol
        assert vals[0] - vals[2] > tol
        s = cluster_to_spectrum(vals)
        assert s.entries[0][1] == 3

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty eigenvalue list"):
            cluster_to_spectrum([])

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            cluster_to_spectrum([1.0, 2.0])

    def test_distinct_values_stay_apart(self):
        s = cluster_to_spectrum([4.0, 0.0, 0.0, -2.0])
        assert [m for _, m in s.entries] == [1, 2, 1]


class TestMatching:
    def test_match_within_tolerance(self):
        a = Spectrum([(4, 1), (-2, 2)])
        b = Spectrum([(4.0 + 1e-9, 1), (-2.0 - 1e-9, 2)])
        assert spectra_match(a, b, tol=1e-8)
        assert max_deviation(a, b) < 1e-8

    def test_mismatch_value(self):
        a = Spectrum([(4, 1), (-2, 2)])
        b = Spectrum([(4.1, 1), (-2.0, 2)])
        assert not spectra_match(a, b, tol=1e-8)

    def test_mismatch_multiplicity(self):
        a = Spectrum([(4, 2), (-2, 1)])
        b = Spectrum([(4, 1), (-2, 2)])
        assert not spectra_match(a, b)

    def test_mismatch_dimension(self):
        a = Spectrum([(4, 1)])
        b = Spectrum([(4, 1), (0, 1)])
        assert not spectra_match(a, b)


class TestMixedRadicandOrder:
    def test_huge_rational_part(self):
        # floats cannot separate these: both round to 1e20
        x = QuadraticNumber(10**20, 1, 2)
        y = QuadraticNumber(10**20, 1, 3)
        assert x < y and y > x and x <= y and not x >= y

    def test_floats_compare_exactly(self):
        # the float sqrt(2) is 1.4142135623730951, just above the root
        root2 = QuadraticNumber(0, 1, 2)
        assert root2 != math.sqrt(2) and root2 < math.sqrt(2)
        assert math.sqrt(2) > root2 and not root2 >= math.sqrt(2)
        assert QuadraticNumber(Fraction(1, 2)) == 0.5
        assert QuadraticNumber(Fraction(1, 3)) != 1 / 3
        assert -math.inf < root2 < math.inf

    def test_opposite_signs_need_second_squaring(self):
        # 3 + sqrt(2) - sqrt(15) is about 0.541; 3 + sqrt(2) - sqrt(20) < 0
        assert QuadraticNumber(3, 1, 2) > QuadraticNumber(0, 1, 15)
        assert QuadraticNumber(3, 1, 2) < QuadraticNumber(0, 2, 5)
        assert QuadraticNumber(Fraction(-1, 2), -1, 7) < \
            QuadraticNumber(-3, 1, 3)

    def test_sort_matches_float_order(self):
        vals = [QuadraticNumber(a, b, d) for a in (-3, 0, Fraction(5, 2))
                for b in (-2, 1, Fraction(1, 3)) for d in (2, 3, 5, 6, 7)]
        vals += [QuadraticNumber(1), QuadraticNumber(-2)]
        ordered = sorted(vals)
        assert ordered == sorted(vals, key=float)
        assert all(a < b for a, b in zip(ordered, ordered[1:]))


def decimal_value(a, b, d):
    """Referee for the exact order: a + b*sqrt(d) to 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return (Decimal(a.numerator) / a.denominator
                + Decimal(b.numerator) / b.denominator * Decimal(d).sqrt())


def decimal_sign(x, y):
    """Sign of x - y by the referee; closer than 1e-70 counts as equal,
    far below the gap between distinct values of such small height."""
    gap = x - y
    return 0 if abs(gap) < Decimal("1e-70") else 1 if gap > 0 else -1


small_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))
# square-free radicands, and inputs that reduce to them or to a square
radicands = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 18, 20, 45, 50])


class TestExactOrderReferee:
    @given(small_fractions, small_fractions, radicands,
           small_fractions, small_fractions, radicands)
    def test_order_equality_and_differences(self, a1, b1, d1, a2, b2, d2):
        x, y = QuadraticNumber(a1, b1, d1), QuadraticNumber(a2, b2, d2)
        sign = decimal_sign(decimal_value(a1, b1, d1), decimal_value(a2, b2, d2))
        assert (x < y, x == y, x > y) == (sign < 0, sign == 0, sign > 0)
        assert (x <= y, x >= y) == (sign <= 0, sign >= 0)
        if x.d == y.d or x.is_rational or y.is_rational:
            diff = x - y
            assert (diff > 0) - (diff < 0) == sign
            assert (diff == 0) == (sign == 0)

    @given(small_fractions, small_fractions, st.integers(0, 100))
    def test_sign_for_any_radicand(self, a, b, d):
        # squares included, where a + b*sqrt(d) can vanish with b != 0
        zero = decimal_value(Fraction(0), Fraction(0), 0)
        assert spectra._sign(a, b, d) == decimal_sign(decimal_value(a, b, d), zero)

    def test_sign_of_vanishing_sums(self):
        assert spectra._sign(Fraction(-3), Fraction(1), 9) == 0
        assert spectra._sign(Fraction(4), Fraction(-2), 4) == 0
        assert spectra._sign(Fraction(-2), Fraction(1), 8) == 1

    @given(small_fractions, small_fractions, radicands,
           st.floats(-100, 100) | small_fractions | st.integers(-100, 100))
    def test_order_against_rationals_and_floats(self, a, b, d, other):
        x = QuadraticNumber(a, b, d)
        root = math.isqrt(d)
        if root * root == d:
            # x is rational, and a float such as 5.7e-179 can sit closer
            # to it than the referee's 1e-70: compare exactly
            gap = a + b * root - Fraction(other)
            sign = (gap > 0) - (gap < 0)
        else:
            sign = decimal_sign(decimal_value(a, b, d),
                                decimal_value(Fraction(other), Fraction(0), 0))
        assert (x < other, x == other, x > other) == (
            sign < 0, sign == 0, sign > 0)


class TestFactorOnce:
    def test_srg_splits_its_radicand_once(self, monkeypatch, capsys):
        calls = []
        split = spectra._squarefree_split
        monkeypatch.setattr(spectra, "_squarefree_split",
                            lambda d: calls.append(d) or split(d))
        code = cli.main(["srg", "1000000000000037", "500000000000018",
                         "250000000000008", "250000000000009"])
        assert code == 0 and capsys.readouterr().out
        assert [d for d in calls if d > 1] == [1000000000000037]

    def test_comparing_radicands_factors_nothing(self, monkeypatch):
        # two primes near 1e30: factoring their product by trial division
        # up to its cube root would never finish
        p, q = 10**30 + 57, 10**30 + 99
        x = QuadraticNumber._canonical(Fraction(0), Fraction(1), p)
        y = QuadraticNumber._canonical(Fraction(0), Fraction(1), q)

        def refuse(d):
            raise AssertionError(f"factored {d}")

        monkeypatch.setattr(spectra, "_squarefree_split", refuse)
        assert x < y and y > x and x != y and not x >= y
        # sqrt(q) - sqrt(p) is about 2e-14, so 1 + sqrt(p) lies above
        assert 1 + x > y and y < x + 1 and -x > -y
        assert sorted([y, x + 1, -y, x, -x]) == [-y, -x, x, y, x + 1]
