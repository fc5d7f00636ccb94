"""Strongly regular graph parameter arithmetic: feasibility, eigenvalues,
optimism, conference recognition, and the classical parameter families.

Several tests realize actual graphs and compare the parameter-level verdicts
against exact inertia of the true distance matrix.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import adjacency_matrix, degrees, numeric_spectrum
from distspec.distances import distance_matrix
from distspec.exact import inertia_exact
from distspec.graphs import (Graph, cocktail_party, complement, cycle,
                             hamming, johnson, make_graph, petersen,
                             shrikhande)
from distspec.spectra import QuadraticNumber, spectra_match
from distspec.srg import (SrgParameterError, SrgParams,
                          classify_one_positive, complement_params,
                          feasible_parameter_sets, is_conference,
                          is_optimistic, orthogonal_params, srg_eigen_data,
                          symplectic_params)


def qn(a, b, d):
    return QuadraticNumber(Fraction(a), Fraction(b), d)


def paley_13() -> Graph:
    squares = {pow(x, 2, 13) for x in range(1, 13)}
    edges = [(u, v) for u in range(13) for v in range(u + 1, 13)
             if (v - u) % 13 in squares or (u - v) % 13 in squares]
    return make_graph(13, edges)


def complete_tripartite_333() -> Graph:
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9)
             if u // 3 != v // 3]
    return make_graph(9, edges)


def srg_params_of(g: Graph) -> SrgParams:
    """Read off (n, k, lambda, mu) and assert strong regularity."""
    degs = set(degrees(g))
    assert len(degs) == 1, "graph is not regular"
    k = degs.pop()
    common = lambda u, v: len(set(g.neighbors(u)) & set(g.neighbors(v)))
    lams = {common(u, v) for u, v in g.edges}
    mus = {common(u, v) for u in range(g.n) for v in range(u + 1, g.n)
           if not g.has_edge(u, v)}
    assert len(lams) == 1 and len(mus) == 1, "graph is not strongly regular"
    return SrgParams(g.n, k, lams.pop(), mus.pop())


# (constructor, expected parameters)
REALIZED = [
    (petersen, (10, 3, 0, 1)),
    (shrikhande, (16, 6, 2, 2)),
    (lambda: cycle(5), (5, 2, 0, 1)),
    (lambda: hamming(2, 3), (9, 4, 1, 2)),
    (lambda: hamming(2, 4), (16, 6, 2, 2)),
    (lambda: johnson(5, 2), (10, 6, 3, 4)),
    (lambda: johnson(6, 2), (15, 8, 4, 4)),
    (lambda: johnson(7, 2), (21, 10, 5, 4)),
    (lambda: cocktail_party(3), (6, 4, 2, 4)),
    (lambda: cocktail_party(5), (10, 8, 6, 8)),
    (paley_13, (13, 6, 2, 3)),
    (complete_tripartite_333, (9, 6, 3, 6)),
]


class TestParams:
    def test_validation(self):
        with pytest.raises(SrgParameterError):
            SrgParams(10, 0, 0, 1)
        with pytest.raises(SrgParameterError):
            SrgParams(10, 10, 0, 1)
        with pytest.raises(SrgParameterError):
            SrgParams(10, 3, 3, 1)  # lambda must stay below k - 1
        with pytest.raises(SrgParameterError):
            SrgParams(10, 3, 0, 4)  # mu cannot exceed k

    def test_mu_zero_is_storable(self):
        # disconnected parameter sets arise as complements; they must
        # construct even though no spectral analysis applies
        p = SrgParams(8, 1, 0, 0)
        with pytest.raises(SrgParameterError):
            p.require_spectral()

    def test_feasible_examples(self):
        for tup in ((10, 3, 0, 1), (16, 6, 2, 2), (13, 6, 2, 3),
                    (17, 8, 3, 4), (28, 9, 0, 4), (40, 27, 18, 18)):
            assert SrgParams(*tup).is_feasible(), tup

    def test_counting_identity_failure(self):
        assert not SrgParams(10, 3, 1, 1).is_feasible()
        assert not SrgParams(5, 2, 0, 2).is_feasible()

    def test_divisibility_failure(self):
        # k(k - lambda - 1) = (n - k - 1) mu holds but the multiplicities
        # cannot be integers
        assert not SrgParams(15, 7, 3, 3).is_feasible()

    def test_zero_gap_requires_odd_order(self):
        assert SrgParams(13, 6, 2, 3).is_feasible()
        assert not SrgParams(16, 7, 2, 4).is_feasible()  # wrong counting
        p = SrgParams(26, 12, 5, 6)
        # gap = 24 + 25(-1) = -1, discriminant 25: -1 not divisible by 5
        assert not p.is_feasible()

    def test_realized_graphs_have_their_parameters(self):
        for ctor, params in REALIZED:
            assert srg_params_of(ctor()).as_tuple() == params


class TestEigenData:
    def test_petersen(self):
        data = srg_eigen_data(SrgParams(10, 3, 0, 1))
        assert (data.theta, data.tau) == (1, -2)
        assert (data.m_theta, data.m_tau) == (5, 4)
        assert (data.rho_d, data.theta_d, data.tau_d) == (15, -3, 0)
        assert data.distance_spectrum().entries == \
            ((15, 1), (0, 4), (-3, 5))

    def test_shrikhande(self):
        data = srg_eigen_data(SrgParams(16, 6, 2, 2))
        assert (data.theta, data.tau) == (2, -2)
        assert (data.m_theta, data.m_tau) == (6, 9)
        assert data.distance_spectrum().entries == \
            ((24, 1), (0, 9), (-4, 6))

    def test_conference_13(self):
        data = srg_eigen_data(SrgParams(13, 6, 2, 3))
        assert data.theta == qn(Fraction(-1, 2), Fraction(1, 2), 13)
        assert data.tau == qn(Fraction(-1, 2), Fraction(-1, 2), 13)
        assert data.m_theta == data.m_tau == 6
        spec = data.distance_spectrum()
        assert spec.entries == ((18, 1),
                                (qn(Fraction(-3, 2), Fraction(1, 2), 13), 6),
                                (qn(Fraction(-3, 2), Fraction(-1, 2), 13), 6))
        assert spec.inertia_counts() == (7, 0, 6)

    def test_distance_spectrum_matches_realized_graphs(self):
        for ctor, params in REALIZED:
            g = ctor()
            predicted = srg_eigen_data(SrgParams(*params)).distance_spectrum()
            assert spectra_match(predicted, numeric_spectrum(g)), params

    def test_adjacency_eigs_match_numpy(self):
        for ctor, params in REALIZED:
            g = ctor()
            data = srg_eigen_data(SrgParams(*params))
            ref = sorted(np.linalg.eigvalsh(
                np.array(adjacency_matrix(g), dtype=float)), reverse=True)
            assert abs(ref[0] - params[1]) < 1e-9
            mid = ref[1:1 + data.m_theta]
            low = ref[1 + data.m_theta:]
            assert all(abs(v - float(data.theta)) < 1e-9 for v in mid)
            assert all(abs(v - float(data.tau)) < 1e-9 for v in low)

    def test_infeasible_rejected(self):
        with pytest.raises(SrgParameterError):
            srg_eigen_data(SrgParams(10, 3, 1, 1))


class TestConference:
    def test_recognition(self):
        assert is_conference(SrgParams(5, 2, 0, 1))
        assert is_conference(SrgParams(9, 4, 1, 2))
        assert is_conference(SrgParams(13, 6, 2, 3))
        assert not is_conference(SrgParams(10, 3, 0, 1))
        assert not is_conference(SrgParams(16, 6, 2, 2))

    def test_equals_zero_multiplicity_gap(self):
        for p in feasible_parameter_sets(80):
            if p.mu == 0:
                continue
            gap = 2 * p.k + (p.n - 1) * (p.lam - p.mu)
            assert is_conference(p) == (gap == 0), p.as_tuple()


class TestOptimism:
    def test_flagship_verdicts(self):
        assert is_optimistic(SrgParams(13, 6, 2, 3))
        assert not is_optimistic(SrgParams(10, 3, 0, 1))
        assert not is_optimistic(SrgParams(15, 8, 4, 4))
        assert is_optimistic(SrgParams(40, 27, 18, 18))

    def test_conference_needs_order_13(self):
        assert not is_optimistic(SrgParams(5, 2, 0, 1))
        assert not is_optimistic(SrgParams(9, 4, 1, 2))
        assert is_optimistic(SrgParams(17, 8, 3, 4))
        assert is_optimistic(SrgParams(25, 12, 5, 6))

    def test_multiplicity_condition_can_block(self):
        # complete tripartite: tau_D > 0 but m_tau < m_theta
        assert not is_optimistic(SrgParams(9, 6, 3, 6))

    def test_equal_lambda_mu_reduces_to_degree_test(self):
        for p in feasible_parameter_sets(100):
            if p.mu > 0 and p.lam == p.mu:
                assert is_optimistic(p) == (p.k > p.mu + 4), p.as_tuple()

    def test_matches_inertia_for_all_feasible_parameters(self):
        for p in feasible_parameter_sets(120):
            if p.mu == 0:
                continue
            pos, _, neg = srg_eigen_data(p).distance_spectrum() \
                .inertia_counts()
            assert is_optimistic(p) == (pos > neg), p.as_tuple()

    def test_matches_exact_inertia_on_realized_graphs(self):
        for ctor, params in REALIZED:
            res = inertia_exact(distance_matrix(ctor()))
            assert is_optimistic(SrgParams(*params)) == \
                (res.positive > res.negative), params

    def test_m2_family_turns_optimistic_at_five(self):
        # (m^2, 3(m-1), m, 6) parameter family
        for m, expect in ((4, False), (5, True), (6, True), (7, True)):
            p = SrgParams(m * m, 3 * (m - 1), m, 6)
            assert is_optimistic(p) == expect, m


class TestComplement:
    def test_petersen_complement(self):
        c = complement_params(SrgParams(10, 3, 0, 1))
        assert c.as_tuple() == (10, 6, 3, 4)
        assert c.is_feasible()

    def test_involution(self):
        for p in feasible_parameter_sets(60):
            c = complement_params(p)
            assert complement_params(c).as_tuple() == p.as_tuple()

    def test_matches_graph_complement(self):
        g = complement(petersen())
        assert srg_params_of(g).as_tuple() == (10, 6, 3, 4)

    def test_cocktail_party_complement_disconnects(self):
        c = complement_params(SrgParams(6, 4, 2, 4))
        assert c.as_tuple() == (6, 1, 0, 0)
        with pytest.raises(SrgParameterError):
            c.require_spectral()

    @pytest.mark.parametrize("params", [(5, 4, 3, 1)] + [
        (7, 6, 5, mu) for mu in range(1, 7)])
    def test_complete_graph_has_none(self, params):
        n = params[0]
        with pytest.raises(SrgParameterError) as info:
            complement_params(SrgParams(*params))
        assert str(info.value) == (
            f"{params} is the complete graph K_{n}: its complement is "
            f"edgeless and has no strongly regular parameters")


class TestParameterFamilies:
    def test_symplectic(self):
        assert symplectic_params(2, 2).as_tuple() == (15, 8, 4, 4)
        assert symplectic_params(2, 3).as_tuple() == (40, 27, 18, 18)
        assert symplectic_params(3, 2).as_tuple() == (63, 32, 16, 16)
        assert symplectic_params(2, 4).as_tuple() == (85, 64, 48, 48)

    def test_symplectic_rejects_bad_input(self):
        with pytest.raises(SrgParameterError):
            symplectic_params(1, 2)
        with pytest.raises(SrgParameterError):
            symplectic_params(2, 6)  # not a prime power

    def test_symplectic_optimism_has_one_exception(self):
        for m in (2, 3):
            for q in (2, 3, 4, 5):
                p = symplectic_params(m, q)
                assert p.is_feasible(), (m, q)
                expect = not (m == 2 and q == 2)
                assert is_optimistic(p) == expect, (m, q)

    def test_orthogonal(self):
        assert orthogonal_params(2, 1).as_tuple() == (45, 12, 3, 3)
        assert orthogonal_params(2, -1).as_tuple() == (36, 15, 6, 6)
        for m in (2, 3):
            for e in (1, -1):
                p = orthogonal_params(m, e)
                assert p.is_feasible(), (m, e)
                assert is_optimistic(p), (m, e)

    def test_orthogonal_rejects_bad_sign(self):
        with pytest.raises(SrgParameterError):
            orthogonal_params(2, 0)
        with pytest.raises(SrgParameterError):
            orthogonal_params(1, 1)


class TestOnePositive:
    def test_complete_graph(self):
        # feasibility forces lam = n-2 at k = n-1 and leaves mu free
        for mu in range(1, 7):
            assert classify_one_positive(SrgParams(7, 6, 5, mu)), mu

    def test_pentagon(self):
        assert classify_one_positive(SrgParams(5, 2, 0, 1))

    def test_tau_minus_two_families(self):
        assert classify_one_positive(SrgParams(10, 3, 0, 1))      # Petersen
        assert classify_one_positive(SrgParams(16, 6, 2, 2))      # Shrikhande / rook
        assert classify_one_positive(SrgParams(15, 8, 4, 4))
        assert classify_one_positive(SrgParams(9, 4, 1, 2))       # conference, order 9

    def test_optimistic_graphs_are_not(self):
        assert not classify_one_positive(SrgParams(13, 6, 2, 3))
        assert not classify_one_positive(SrgParams(40, 27, 18, 18))

    def test_tripartite_mixed_case(self):
        # three positive eigenvalues but not optimistic
        assert not classify_one_positive(SrgParams(9, 6, 3, 6))

    def test_matches_positive_count_across_feasible_sets(self):
        for p in feasible_parameter_sets(100):
            if p.mu == 0:
                continue
            pos = srg_eigen_data(p).distance_spectrum().inertia_counts()[0]
            assert classify_one_positive(p) == (pos == 1), p.as_tuple()


class TestFeasibleSweep:
    def test_contains_known_sets(self):
        found = {p.as_tuple() for p in feasible_parameter_sets(20)}
        assert (10, 3, 0, 1) in found
        assert (16, 6, 2, 2) in found
        assert (13, 6, 2, 3) in found
        assert (5, 2, 0, 1) in found
        assert (15, 7, 3, 3) not in found

    def test_all_results_feasible_and_connected(self):
        sets = feasible_parameter_sets(50)
        assert sets, "sweep produced nothing"
        for p in sets:
            assert p.mu > 0
            assert p.is_feasible()

    def test_sorted_deterministic(self):
        sets = [p.as_tuple() for p in feasible_parameter_sets(40)]
        assert sets == sorted(sets)

    def test_same_list_as_the_cubic_scan(self):
        assert feasible_parameter_sets(200) == cubic_scan(200)


def cubic_scan(max_n):
    """Every (n, k, lam) with mu solved from the counting identity: the
    plain form of `feasible_parameter_sets`, in the same order."""
    out = []
    for n in range(4, max_n + 1):
        for k in range(2, n - 1):
            for lam in range(0, k):
                num, den = k * (k - lam - 1), n - k - 1
                if num % den == 0 and 1 <= num // den <= k:
                    p = SrgParams(n, k, lam, num // den)
                    if p.is_feasible():
                        out.append(p)
    return out
