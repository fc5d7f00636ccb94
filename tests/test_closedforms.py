"""Closed-form distance spectra, composition rules, determinant and inertia
formulas, and the binomial summation identities behind them.

Every formula is checked two ways: against frozen hand-derived exact values
and against the numeric eigensolver on the actual graph.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import multiplicity, numeric_spectrum, trace
from distspec import closedforms
from distspec.closedforms import (ClosedFormSpectrum, barbell_determinant,
                                  barbell_inertia, cocktail_party_spectrum,
                                  complete_spectrum, cycle_spectrum,
                                  dodecahedron_spectrum, doob_spectrum,
                                  double_odd_spectrum,
                                  halved_cube_spectrum, hamming_spectrum,
                                  icosahedron_spectrum, johnson_spectrum,
                                  kneser_f, kneser_multiplicity,
                                  kneser_spectrum, lemma_identity,
                                  lollipop_determinant, lollipop_inertia,
                                  s_value, shrikhande_power_spectrum,
                                  tree_determinant, tree_inertia)
from distspec.distances import distance_matrix
from distspec.exact import Inertia, det_exact, inertia_exact
from distspec.graphs import (cartesian_product, cocktail_party, complete,
                             cycle, dodecahedron, double_odd, doob,
                             generalized_barbell, halved_cube, hamming,
                             icosahedron, johnson, kneser, lollipop, path,
                             r_subsets, shrikhande)
from distspec.spectra import QuadraticNumber, Spectrum, Value, spectra_match


def qn(a, b, d):
    return QuadraticNumber(Fraction(a), Fraction(b), d)


def order9_target_spectrum() -> ClosedFormSpectrum:
    """Validation target for the known order-9 transmission-regular graph of
    degree set {3, 4}: {14, ((-5+sqrt(33))/2)^2, (-1)^4, ((-5-sqrt(33))/2)^2}.

    No generator is provided; compare a candidate graph's numeric spectrum
    against this constant.
    """
    h = Fraction(1, 2)
    pairs = [(14, 1),
             (QuadraticNumber(-5 * h, h, 33), 2),
             (-1, 4),
             (QuadraticNumber(-5 * h, -h, 33), 2)]
    return ClosedFormSpectrum(Spectrum(pairs), "order9-target")


# composition rules: the paper's lemmas, checked below against numeric spectra

def _split_radius(spec: Spectrum) -> tuple[Value, list[tuple[Value, int]]]:
    (top, mult), rest = spec.entries[0], list(spec.entries[1:])
    if mult > 1:
        rest.insert(0, (top, mult - 1))
    return top, rest


def product_spectrum(g_spec: Spectrum, h_spec: Spectrum) -> ClosedFormSpectrum:
    """Distance spectrum of a cartesian product of transmission-regular graphs.

    With orders n, n' and radii rho, rho': the product has n' rho + n rho'
    once, n' theta for each remaining theta of the first factor, n theta' for
    each remaining theta' of the second, and 0 with multiplicity
    (n-1)(n'-1).  Callers must ensure both factors are transmission regular.
    """
    ng, nh = g_spec.dimension, h_spec.dimension
    rho_g, rest_g = _split_radius(g_spec)
    rho_h, rest_h = _split_radius(h_spec)
    pairs: list[tuple[Value, int]] = [(nh * rho_g + ng * rho_h, 1)]
    pairs.extend((nh * v, m) for v, m in rest_g)
    pairs.extend((ng * v, m) for v, m in rest_h)
    pairs.append((0, (ng - 1) * (nh - 1)))
    return ClosedFormSpectrum(Spectrum(pairs), "cartesian-product")


def block_lemma_spectrum(d_spec: Spectrum,
                         even: tuple[Value, Value, Value],
                         odd: tuple[Value, Value, Value]) -> ClosedFormSpectrum:
    """Spectrum of [[A, B], [B, A]] with A = a_e D + b_e J + c_e I and
    B = a_o D + b_o J + c_o I, for D transmission regular with spectrum d_spec.

    The two eigenvalue groups come from the sum and difference blocks: for
    each sign, (a_e +- a_o) rho + (b_e +- b_o) n + (c_e +- c_o) once and
    (a_e +- a_o) theta + (c_e +- c_o) for every remaining theta.
    """
    n = d_spec.dimension
    rho, rest = _split_radius(d_spec)
    ae, be, ce = even
    ao, bo, co = odd
    pairs: list[tuple[Value, int]] = []
    for sign in (1, -1):
        a = ae + sign * ao
        b = be + sign * bo
        c = ce + sign * co
        pairs.append((a * rho + b * n + c, 1))
        pairs.extend((a * v + c, m) for v, m in rest)
    return ClosedFormSpectrum(Spectrum(pairs), "two-block")


def assert_formula_matches_graph(cf, g, tol=1e-8):
    assert cf.spectrum.dimension == g.n
    assert spectra_match(cf.spectrum, numeric_spectrum(g), tol=tol)


class TestFrozenValues:
    def test_complete(self):
        assert complete_spectrum(5).spectrum.entries == ((4, 1), (-1, 4))

    def test_odd_cycle_5(self):
        s = cycle_spectrum(5).spectrum
        assert s.entries[0] == (6, 1)
        vals = [(float(v), m) for v, m in s.entries[1:]]
        assert vals[0][1] == vals[1][1] == 2
        assert abs(vals[0][0] - (-3 + math.sqrt(5)) / 2) < 1e-12
        assert abs(vals[1][0] - (-3 - math.sqrt(5)) / 2) < 1e-12

    def test_even_cycle_6(self):
        s = cycle_spectrum(6).spectrum
        flat = []
        for v, m in s.entries:
            flat.extend([round(float(v), 9)] * m)
        assert flat == [9.0, 0.0, 0.0, -1.0, -4.0, -4.0]

    def test_even_cycle_8_has_no_extra_minus_one(self):
        s = cycle_spectrum(8).spectrum
        assert s.entries[0] == (16, 1)
        assert multiplicity(s, 0) == 3
        assert all(m == 2 for _, m in s.entries[2:])

    def test_large_cycle_builds_in_one_sort(self):
        start = time.perf_counter()
        s = cycle_spectrum(40000).spectrum
        assert time.perf_counter() - start < 1
        assert len(s.entries) == 10002 and s.dimension == 40000

    def test_entry_cap_is_checked_before_building(self, monkeypatch):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^cycle\(10000000\) has "
                           r"2500002 spectrum entries, over the cap 1000000$"):
            cycle_spectrum(10 ** 7)
        assert time.perf_counter() - start < 0.1
        # the count is exact: 5 entries for n = 9, 10 and 12, 6 for 11 and 14
        monkeypatch.setattr(closedforms, "ENTRY_CAP", 5)
        for n in (9, 10, 12):
            assert len(cycle_spectrum(n).spectrum.entries) == 5
        for n in (11, 14):
            with pytest.raises(ValueError, match="6 spectrum entries"):
                cycle_spectrum(n)

    def test_hamming(self):
        assert hamming_spectrum(2, 3).spectrum.entries == \
            ((12, 1), (0, 4), (-3, 4))
        assert hamming_spectrum(3, 2).spectrum.entries == \
            ((12, 1), (0, 4), (-4, 3))

    def test_doob(self):
        assert doob_spectrum(1, 1).spectrum.entries == \
            ((144, 1), (0, 54), (-16, 9))
        assert doob_spectrum(1, 0).spectrum.entries == \
            shrikhande_power_spectrum(1).spectrum.entries == \
            hamming_spectrum(2, 4).spectrum.entries == \
            ((24, 1), (0, 9), (-4, 6))

    def test_johnson(self):
        assert johnson_spectrum(5, 2).spectrum.entries == \
            ((12, 1), (0, 5), (-3, 4))
        assert johnson_spectrum(9, 4).spectrum.entries == \
            ((280, 1), (0, 117), (-35, 8))

    def test_kneser_7_3(self):
        assert kneser_spectrum(7, 3).spectrum.entries == \
            ((82, 1), (2, 14), (-2, 6), (-7, 14))

    def test_petersen_via_kneser(self):
        assert kneser_spectrum(5, 2).spectrum.entries == \
            ((15, 1), (0, 4), (-3, 5))

    def test_double_odd(self):
        assert double_odd_spectrum(2).spectrum.entries == \
            ((50, 1), (0, 14), (-2, 1), (-12, 4))
        assert double_odd_spectrum(3).spectrum.entries == \
            ((245, 1), (0, 62), (-5, 1), (-40, 6))

    def test_halved_cube(self):
        assert halved_cube_spectrum(4).spectrum.entries == \
            ((8, 1), (0, 3), (-2, 4))
        assert halved_cube_spectrum(5).spectrum.entries == \
            ((20, 1), (0, 10), (-4, 5))

    def test_cocktail_party(self):
        assert cocktail_party_spectrum(4).spectrum.entries == \
            ((8, 1), (0, 3), (-2, 4))
        # the two constructions coincide at d = 4
        assert halved_cube_spectrum(4).spectrum == \
            cocktail_party_spectrum(4).spectrum

    def test_icosahedron(self):
        assert icosahedron_spectrum().spectrum.entries == \
            ((18, 1), (0, 5), (qn(-3, 1, 5), 3), (qn(-3, -1, 5), 3))

    def test_dodecahedron(self):
        assert dodecahedron_spectrum().spectrum.entries == \
            ((50, 1), (0, 9), (qn(-7, 3, 5), 3), (-2, 4), (qn(-7, -3, 5), 3))

    def test_order9_target(self):
        s = order9_target_spectrum().spectrum
        assert s.entries == ((14, 1), (qn(Fraction(-5, 2), Fraction(1, 2), 33), 2),
                             (-1, 4), (qn(Fraction(-5, 2), Fraction(-1, 2), 33), 2))
        assert s.dimension == 9
        assert trace(s) == 0
        # more positive than negative eigenvalues
        assert s.inertia_counts() == (3, 0, 6)


NUMERIC_CASES = [
    (complete_spectrum, (6,), complete, (6,)),
    (cycle_spectrum, (3,), cycle, (3,)),
    (cycle_spectrum, (7,), cycle, (7,)),
    (cycle_spectrum, (10,), cycle, (10,)),
    (cycle_spectrum, (12,), cycle, (12,)),
    (hamming_spectrum, (2, 4), hamming, (2, 4)),
    (hamming_spectrum, (3, 3), hamming, (3, 3)),
    (hamming_spectrum, (4, 2), hamming, (4, 2)),
    (doob_spectrum, (1, 0), doob, (1, 0)),
    (doob_spectrum, (1, 1), doob, (1, 1)),
    (johnson_spectrum, (6, 3), johnson, (6, 3)),
    (johnson_spectrum, (7, 2), johnson, (7, 2)),
    (kneser_spectrum, (7, 3), kneser, (7, 3)),
    (kneser_spectrum, (7, 2), kneser, (7, 2)),
    (kneser_spectrum, (9, 4), kneser, (9, 4)),
    (double_odd_spectrum, (2,), double_odd, (2,)),
    (halved_cube_spectrum, (4,), halved_cube, (4,)),
    (halved_cube_spectrum, (6,), halved_cube, (6,)),
    (cocktail_party_spectrum, (5,), cocktail_party, (5,)),
    (icosahedron_spectrum, (), icosahedron, ()),
    (dodecahedron_spectrum, (), dodecahedron, ()),
    (shrikhande_power_spectrum, (1,), lambda: shrikhande(), ()),
]


@pytest.mark.parametrize("spec_fn,spec_args,gen,gen_args", NUMERIC_CASES)
def test_closed_form_matches_numeric(spec_fn, spec_args, gen, gen_args):
    assert_formula_matches_graph(spec_fn(*spec_args), gen(*gen_args))


class TestSpectrumSanity:
    def test_all_integer_spectra_have_zero_trace(self):
        for cf in (hamming_spectrum(3, 4), doob_spectrum(2, 0),
                   johnson_spectrum(8, 3), kneser_spectrum(9, 3),
                   double_odd_spectrum(4), halved_cube_spectrum(7),
                   cocktail_party_spectrum(6), complete_spectrum(9)):
            assert trace(cf.spectrum) == 0, cf.formula

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            halved_cube_spectrum(1)
        # the halved 2- and 3-cubes are K_2 and K_4
        assert halved_cube_spectrum(2).spectrum == complete_spectrum(2).spectrum
        assert halved_cube_spectrum(3).spectrum == complete_spectrum(4).spectrum
        with pytest.raises(ValueError):
            cocktail_party_spectrum(1)
        with pytest.raises(ValueError):
            kneser_spectrum(6, 3)
        with pytest.raises(ValueError):
            cycle_spectrum(2)

    @pytest.mark.parametrize("fn, args, message", [
        (hamming_spectrum, (0, 4), "hamming spectrum needs d >= 1 and n >= 2"),
        (doob_spectrum, (1, -1), "doob spectrum needs m >= 1 and d >= 0"),
        (shrikhande_power_spectrum, (0,), "needs m >= 1"),
        (s_value, (4, 4), "needs 1 <= r <= n-1"),
        (kneser_f, (1, 6, 3), "kneser distance needs n > 2r"),
        (kneser_f, (4, 7, 3), "needs 0 <= i <= r"),
        (kneser_multiplicity, (-1, 5), "eigenspace index out of range"),
        (kneser_spectrum, (5, 0), "needs 1 <= r <= n-1"),
        (double_odd_spectrum, (1,), "needs r >= 2"),
        (complete_spectrum, (1,), "needs n >= 2"),
        (barbell_determinant, (1, 2, 0), "needs k, m >= 2 and length >= 0"),
        (barbell_inertia, (2, 2, -1), "needs k, m >= 2 and length >= 0"),
        (lollipop_determinant, (1, 0), "needs k >= 2 and length >= 0"),
        (lollipop_inertia, (2, -1), "needs k >= 2 and length >= 0"),
        (tree_determinant, (1,), "needs n >= 2"),
        (tree_inertia, (1,), "needs n >= 2"),
    ])
    def test_refusal_outside_the_domain(self, fn, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(*args)

    def test_formula_labels(self):
        assert hamming_spectrum(2, 4).formula == "hamming(2,4)"
        assert doob_spectrum(1, 1).formula == "doob(1,1)"
        assert shrikhande_power_spectrum(2).formula == "shrikhande-power(2)"
        assert order9_target_spectrum().spectrum.dimension == 9


def eberlein(i, j, n, r):
    """Eberlein polynomial value p_i(j) for the Johnson scheme on r-subsets,
    as its alternating binomial sum: the referee for kneser_spectrum."""
    if not (0 <= i <= r and 0 <= j <= r):
        raise ValueError("needs 0 <= i, j <= r")
    return sum((-1) ** t * math.comb(j, t) * math.comb(r - j, i - t)
               * math.comb(n - r - j, i - t) for t in range(min(i, j) + 1))


class TestKneserInternals:
    def test_s_value(self):
        assert s_value(5, 2) == 12
        assert s_value(7, 3) == 60
        assert s_value(9, 4) == 280

    def test_eberlein_at_zero(self):
        # E_0(j) = 1 and E_i(0) is the valency of the i-th relation
        for i in range(4):
            assert eberlein(i, 0, 9, 4) == math.comb(4, i) * math.comb(5, i)
        for j in range(5):
            assert eberlein(0, j, 9, 4) == 1

    def test_recurrence_matches_the_eberlein_sums(self):
        # multiplicities by (n-2j+1)/(n-j+1) C(n, j), values by Eberlein
        for n in range(3, 41):
            for r in range(1, (n + 1) // 2):
                pairs = []
                for j in range(r + 1):
                    mult = Fraction(n - 2 * j + 1, n - j + 1) * math.comb(n, j)
                    assert mult.denominator == 1
                    pairs.append((sum(kneser_f(i, n, r) * eberlein(i, j, n, r)
                                      for i in range(r + 1)), int(mult)))
                assert kneser_spectrum(n, r).spectrum == Spectrum(pairs)

    def test_distance_function_matches_bfs(self):
        for n, r in ((5, 2), (7, 3), (9, 4)):
            g = kneser(n, r)
            subs = r_subsets(n, r)
            d = distance_matrix(g)
            for u in range(g.n):
                for v in range(g.n):
                    i = bin(subs[u] & ~subs[v]).count("1")
                    assert d[u][v] == kneser_f(i, n, r)

    def test_johnson_distance_is_set_difference(self):
        g = johnson(7, 3)
        subs = r_subsets(7, 3)
        d = distance_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                assert d[u][v] == bin(subs[u] & ~subs[v]).count("1")

    def test_multiplicities_sum_to_dimension(self):
        for n, r in ((7, 3), (9, 4), (9, 3)):
            total = sum(kneser_multiplicity(j, n) for j in range(r + 1))
            assert total == math.comb(n, r)
        assert kneser_multiplicity(0, 7) == 1
        assert kneser_multiplicity(1, 7) == 6


class TestProductRule:
    def test_k4_square_is_rook(self):
        k4 = complete_spectrum(4).spectrum
        assert product_spectrum(k4, k4).spectrum == \
            hamming_spectrum(2, 4).spectrum

    def test_shrikhande_square(self):
        s = shrikhande_power_spectrum(1).spectrum
        assert product_spectrum(s, s).spectrum == \
            shrikhande_power_spectrum(2).spectrum == \
            doob_spectrum(2, 0).spectrum

    def test_doob_is_shrikhande_times_hamming(self):
        left = product_spectrum(shrikhande_power_spectrum(1).spectrum,
                                hamming_spectrum(1, 4).spectrum)
        assert left.spectrum == doob_spectrum(1, 1).spectrum

    def test_cycle_product_against_numeric(self):
        pred = product_spectrum(cycle_spectrum(5).spectrum,
                                cycle_spectrum(8).spectrum)
        g = cartesian_product(cycle(5), cycle(8))
        assert_formula_matches_graph(pred, g)

    def test_hamming_recursion(self):
        pred = product_spectrum(hamming_spectrum(2, 3).spectrum,
                                hamming_spectrum(1, 3).spectrum)
        assert pred.spectrum == hamming_spectrum(3, 3).spectrum


class TestBlockLemma:
    def test_double_odd_from_johnson_blocks(self):
        pred = block_lemma_spectrum(johnson_spectrum(5, 2).spectrum,
                                    (2, 0, 0), (-2, 5, 0))
        assert pred.spectrum == double_odd_spectrum(2).spectrum

    @pytest.mark.parametrize("r", [2, 3])
    def test_double_odd_block_identity_entrywise(self, r):
        # same-side distances double the Johnson ones; opposite-side
        # distances complement them to 2r + 1
        side = 2 * r + 1
        dj = distance_matrix(johnson(side, r))
        dd = distance_matrix(double_odd(r))
        nn = len(dj)
        for u in range(nn):
            for v in range(nn):
                assert dd[2 * u][2 * v] == 2 * dj[u][v]
                assert dd[2 * u + 1][2 * v + 1] == 2 * dj[u][v]
                assert dd[2 * u][2 * v + 1] == side - 2 * dj[u][v]

    def test_generic_blocks_against_numpy(self):
        d = np.array(distance_matrix(cycle(7)), dtype=float)
        n = 7
        jj = np.ones((n, n))
        ii = np.eye(n)
        a = 1 * d + 2 * jj - 1 * ii
        b = 0 * d + 1 * jj + 3 * ii
        m = np.block([[a, b], [b, a]])
        pred = block_lemma_spectrum(cycle_spectrum(7).spectrum,
                                    (1, 2, -1), (0, 1, 3))
        ref = sorted(np.linalg.eigvalsh(m), reverse=True)
        flat = []
        for v, mult in pred.spectrum.entries:
            flat.extend([float(v)] * mult)
        assert max(abs(x - y) for x, y in zip(flat, ref)) < 1e-9


class TestDeterminantFormulas:
    def test_barbell_hand_value(self):
        assert barbell_determinant(3, 4, 2) == 280

    @pytest.mark.parametrize("k,m,l", [(2, 2, 0), (2, 3, 1), (3, 3, 3),
                                       (4, 2, 5), (5, 5, 0)])
    def test_barbell_against_exact(self, k, m, l):
        d = distance_matrix(generalized_barbell(k, m, l))
        assert det_exact(d) == barbell_determinant(k, m, l)
        assert inertia_exact(d) == barbell_inertia(k, m, l)

    def test_lollipop_zero_tail_is_complete_graph(self):
        assert lollipop_determinant(5, 0) == 4
        assert lollipop_determinant(2, 0) == -1

    @pytest.mark.parametrize("k,l", [(2, 0), (2, 3), (3, 1), (4, 4), (6, 2)])
    def test_lollipop_against_exact(self, k, l):
        d = distance_matrix(lollipop(k, l))
        assert det_exact(d) == lollipop_determinant(k, l)
        assert inertia_exact(d) == lollipop_inertia(k, l)

    def test_tree_formula_on_paths(self):
        for n in (2, 3, 5, 8):
            d = distance_matrix(path(n))
            assert det_exact(d) == tree_determinant(n)
            assert inertia_exact(d) == tree_inertia(n)
        assert tree_determinant(4) == -3 * 4

    def test_tree_formula_is_shape_independent(self):
        from conftest import enumerate_trees
        for t in enumerate_trees(7):
            assert det_exact(distance_matrix(t)) == tree_determinant(7)

    def test_inertia_values(self):
        assert barbell_inertia(4, 4, 3) == Inertia(1, 0, 10)
        assert lollipop_inertia(3, 2) == Inertia(1, 0, 4)
        assert tree_inertia(9) == Inertia(1, 0, 8)


class TestLemmaIdentities:
    @pytest.mark.parametrize("sel,kw", [
        (1, {"s": 1}), (1, {"s": 7}),
        (2, {"s": 2}), (2, {"s": 9}),
        (3, {"d": 2}), (3, {"d": 11}),
        (4, {"d": 2}), (4, {"d": 10}),
        (5, {"d": 3}), (5, {"d": 12}),
        (6, {"a": 2, "b": 0}), (6, {"a": 7, "b": 5}),
    ])
    def test_samples_hold(self, sel, kw):
        lhs, rhs = lemma_identity(sel, **kw)
        assert lhs == rhs

    def test_fourth_power_sum_fails_below_three(self):
        # the identity's stated range would include d = 2, where the two
        # sides are 4 and 3; the implementation rejects it instead
        lhs = sum((2 * i) ** 2 * math.comb(2, 2 * i) for i in range(2))
        rhs = 2 * 3 * 2 ** (-1)
        assert lhs == 4 and rhs == 3.0 and lhs != rhs
        with pytest.raises(ValueError, match="d >= 3"):
            lemma_identity(5, d=2)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            lemma_identity(1, s=0)
        with pytest.raises(ValueError):
            lemma_identity(2, s=1)
        with pytest.raises(ValueError):
            lemma_identity(3, d=1)
        with pytest.raises(ValueError):
            lemma_identity(6, a=1, b=0)
        with pytest.raises(ValueError, match="selector"):
            lemma_identity(7, s=3)

    def test_alternating_sum_with_s_one_breaks_second_identity(self):
        # shows why identity 2 needs s >= 2
        assert sum((-1) ** k * k * math.comb(1, k) for k in range(2)) == -1
