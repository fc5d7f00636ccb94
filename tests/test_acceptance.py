"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s pytest shows them for failing tests only.  Each criterion
carries its tolerance and, where one applies, its runtime budget.
"""

import math
import time

from conftest import (check_tree_bounds, enumerate_trees, largest,
                      multiplicity, numeric_spectrum, smallest)
from distspec.bounds import forcing_bound, zero_forcing_number
from distspec.closedforms import (barbell_determinant, barbell_inertia,
                                  cocktail_party_spectrum, cycle_spectrum,
                                  dodecahedron_spectrum, doob_spectrum,
                                  double_odd_spectrum, halved_cube_spectrum,
                                  hamming_spectrum, icosahedron_spectrum,
                                  johnson_spectrum, kneser_spectrum,
                                  lemma_identity, lollipop_determinant,
                                  lollipop_inertia, shrikhande_power_spectrum)
from distspec.distances import distance_matrix
from distspec.exact import det_exact, inertia_exact
from distspec.graphs import (cocktail_party, complement, complete, cycle,
                             dodecahedron, double_odd, doob,
                             generalized_barbell, halved_cube, hamming,
                             hypercube, hypercube_with_leaf, icosahedron,
                             johnson, kneser, lollipop, make_graph, path,
                             petersen, shrikhande)
from distspec.spectra import spectra_match
from distspec.srg import (SrgParams, complement_params, is_conference,
                          is_optimistic, feasible_parameter_sets,
                          srg_eigen_data)

TOL = 1e-8


def report(num: int, desc: str, failures: list) -> None:
    ok = not failures
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {failures[:10]}"


def check(failures: list, ok: bool, label) -> None:
    if not ok:
        failures.append(label)


def k_mn(m, n):
    return make_graph(m + n, [(u, v) for u in range(m)
                              for v in range(m, m + n)])


def paley_13():
    squares = {pow(x, 2, 13) for x in range(1, 13)}
    return make_graph(13, [(u, v) for u in range(13)
                           for v in range(u + 1, 13)
                           if (v - u) % 13 in squares])


def tripartite_333():
    return make_graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                          if u // 3 != v // 3])


def test_criterion_01_golden_spectra():
    golden = [
        ("shrikhande", shrikhande(), shrikhande_power_spectrum(1)),
        ("petersen", petersen(), kneser_spectrum(5, 2)),
        ("icosahedron", icosahedron(), icosahedron_spectrum()),
        ("dodecahedron", dodecahedron(), dodecahedron_spectrum()),
    ]
    golden += [(f"cocktail-party({m})", cocktail_party(m),
                cocktail_party_spectrum(m)) for m in range(2, 9)]
    failures = []
    for name, g, cf in golden:
        check(failures, spectra_match(cf.spectrum, numeric_spectrum(g),
                                      tol=TOL), name)
    report(1, "golden spectra match numerics at 1e-8", failures)


def test_criterion_02_closed_form_sweep():
    t0 = time.perf_counter()
    cases = []
    cases += [(f"hamming({d},{n})", hamming(d, n),
               hamming_spectrum(d, n).spectrum)
              for d in range(1, 5) for n in range(2, 5)]
    cases += [(f"doob({m},{d})", doob(m, d), doob_spectrum(m, d).spectrum)
              for m, d in ((1, 0), (1, 1), (2, 0))]
    cases += [(f"johnson({n},{r})", johnson(n, r),
               johnson_spectrum(n, r).spectrum)
              for n in range(2, 10) for r in range(1, n)]
    cases += [(f"kneser({n},{r})", kneser(n, r),
               kneser_spectrum(n, r).spectrum)
              for n in range(3, 10) for r in range(1, (n - 1) // 2 + 1)]
    cases += [(f"double-odd({r})", double_odd(r),
               double_odd_spectrum(r).spectrum) for r in (2, 3)]
    cases += [(f"halved-cube({d})", halved_cube(d),
               halved_cube_spectrum(d).spectrum) for d in range(4, 10)]
    cases += [(f"cycle({n})", cycle(n), cycle_spectrum(n).spectrum)
              for n in range(3, 41)]
    # distance spectra derived from strongly regular parameters, on the
    # families this package realizes as graphs
    srg_realized = [
        (petersen(), (10, 3, 0, 1)),
        (shrikhande(), (16, 6, 2, 2)),
        (cycle(5), (5, 2, 0, 1)),
    ]
    srg_realized += [(cocktail_party(m), (2 * m, 2 * m - 2, 2 * m - 4,
                                          2 * m - 2)) for m in range(2, 9)]
    srg_realized += [(johnson(m, 2), (m * (m - 1) // 2, 2 * (m - 2),
                                      m - 2, 4)) for m in range(4, 8)]
    srg_realized += [(hamming(2, m), (m * m, 2 * (m - 1), m - 2, 2))
                     for m in range(3, 5)]
    cases += [(f"srg{params}", g,
               srg_eigen_data(SrgParams(*params)).distance_spectrum())
              for g, params in srg_realized]
    failures = []
    for name, g, spec in cases:
        check(failures, spectra_match(spec, numeric_spectrum(g), tol=TOL),
              name)
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 300, f"runtime {elapsed:.0f}s over budget")
    report(2, f"closed forms equal numerics across family grids "
              f"({len(cases)} instances, {elapsed:.0f}s)", failures)


def test_criterion_03_doob_1_1():
    failures = []
    cf = doob_spectrum(1, 1)
    check(failures, cf.spectrum.entries == ((144, 1), (0, 54), (-16, 9)),
          "exact values")
    g = doob(1, 1)
    check(failures, g.n == 64, "order")
    check(failures, spectra_match(cf.spectrum, numeric_spectrum(g), tol=TOL),
          "numeric agreement")
    report(3, "doob(1,1) spectrum is 144, 0^54, (-16)^9 on 64 vertices",
           failures)


def test_criterion_04_double_odd_blocks():
    failures = []
    dj = distance_matrix(johnson(5, 2))
    dd = distance_matrix(double_odd(2))
    for u in range(10):
        for v in range(10):
            check(failures, dd[2 * u][2 * v] == 2 * dj[u][v],
                  ("even", u, v))
            check(failures, dd[2 * u + 1][2 * v + 1] == 2 * dj[u][v],
                  ("even'", u, v))
            check(failures, dd[2 * u][2 * v + 1] == 5 - 2 * dj[u][v],
                  ("odd", u, v))
    cf = double_odd_spectrum(2)
    check(failures,
          cf.spectrum.entries == ((50, 1), (0, 14), (-2, 1), (-12, 4)),
          "spectrum values")
    check(failures, spectra_match(cf.spectrum,
                                  numeric_spectrum(double_odd(2)), tol=TOL),
          "numeric agreement")
    report(4, "double odd r=2 block identity and spectrum "
              "50, 0^14, (-12)^4, -2", failures)


def test_criterion_05_clique_path_determinants():
    t0 = time.perf_counter()
    failures = []
    count = 0
    for k in range(2, 9):
        for m in range(2, 9):
            for l in range(0, 9):
                d = distance_matrix(generalized_barbell(k, m, l))
                check(failures, det_exact(d) == barbell_determinant(k, m, l),
                      ("barbell det", k, m, l))
                check(failures, inertia_exact(d) == barbell_inertia(k, m, l),
                      ("barbell inertia", k, m, l))
                count += 1
    for k in range(2, 9):
        for l in range(0, 9):
            d = distance_matrix(lollipop(k, l))
            check(failures, det_exact(d) == lollipop_determinant(k, l),
                  ("lollipop det", k, l))
            check(failures, inertia_exact(d) == lollipop_inertia(k, l),
                  ("lollipop inertia", k, l))
            count += 1
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 120, f"runtime {elapsed:.0f}s over budget")
    report(5, f"determinant and inertia formulas hold on {count} "
              f"clique-path instances ({elapsed:.0f}s)", failures)


def test_criterion_06_optimism_verdicts():
    failures = []
    realized = [
        (petersen(), (10, 3, 0, 1)),
        (shrikhande(), (16, 6, 2, 2)),
        (cycle(5), (5, 2, 0, 1)),
        (hamming(2, 3), (9, 4, 1, 2)),
        (hamming(2, 4), (16, 6, 2, 2)),
        (johnson(5, 2), (10, 6, 3, 4)),
        (johnson(6, 2), (15, 8, 4, 4)),
        (johnson(7, 2), (21, 10, 5, 4)),
        (cocktail_party(3), (6, 4, 2, 4)),
        (cocktail_party(5), (10, 8, 6, 8)),
        (paley_13(), (13, 6, 2, 3)),
        (tripartite_333(), (9, 6, 3, 6)),
    ]
    for g, params in realized:
        res = inertia_exact(distance_matrix(g))
        check(failures,
              is_optimistic(SrgParams(*params)) ==
              (res.positive > res.negative), params)
    verdicts = [((13, 6, 2, 3), True), ((10, 3, 0, 1), False),
                ((15, 8, 4, 4), False), ((40, 27, 18, 18), True)]
    for params, expect in verdicts:
        check(failures, is_optimistic(SrgParams(*params)) == expect, params)
    report(6, "optimism parameter test agrees with exact distance inertia",
           failures)


def test_criterion_07_complement_sweep():
    failures = []
    checked = 0
    for p in feasible_parameter_sets(200):
        if p.mu == 0:
            continue
        comp = complement_params(p)
        both = is_optimistic(p) and comp.mu > 0 and comp.is_feasible() \
            and is_optimistic(comp)
        expect = is_conference(p) and p.n >= 13
        check(failures, both == expect, p.as_tuple())
        checked += 1
    check(failures, checked > 500, "sweep unexpectedly small")
    report(7, f"graph and complement both optimistic exactly for "
              f"conference parameters of order >= 13 ({checked} sets)",
           failures)


def test_criterion_08_summation_identities():
    failures = []
    jobs = [(1, {"s": s}) for s in range(1, 21)]
    jobs += [(2, {"s": s}) for s in range(2, 21)]
    jobs += [(3, {"d": d}) for d in range(2, 21)]
    jobs += [(4, {"d": d}) for d in range(2, 21)]
    jobs += [(5, {"d": d}) for d in range(3, 21)]
    jobs += [(6, {"a": a, "b": b}) for a in range(2, 21)
             for b in range(0, 11)]
    for sel, kw in jobs:
        lhs, rhs = lemma_identity(sel, **kw)
        check(failures, lhs == rhs, (sel, kw))
    report(8, f"all six summation identities hold on their ranges "
              f"({len(jobs)} evaluations)", failures)


def test_criterion_09_forcing_bound_corpus():
    failures = []
    corpus = [(f"path({n})", path(n)) for n in range(2, 13)]
    corpus += [(f"cycle({n})", cycle(n)) for n in range(3, 13)]
    corpus += [(f"complete({n})", complete(n)) for n in range(2, 13)]
    corpus += [(f"k({m},{n})", k_mn(m, n)) for m in range(1, 7)
               for n in range(m, 13 - m) if m + n >= 3]
    corpus += [("hypercube(3)", hypercube(3)), ("hypercube(4)", hypercube(4)),
               ("petersen", petersen())]
    corpus += [(f"lollipop({k},{l})", lollipop(k, l))
               for k in range(2, 11) for l in range(0, 11)
               if 2 <= k + l <= 12]
    for name, g in corpus:
        bound = forcing_bound(g.n, zero_forcing_number(complement(g)))
        q = len(numeric_spectrum(g).entries)
        check(failures, q >= math.ceil(bound), name)
    for name, g in (("hypercube(3)", hypercube(3)),
                    ("hypercube(4)", hypercube(4))):
        bound = forcing_bound(g.n, zero_forcing_number(complement(g)))
        q = len(numeric_spectrum(g).entries)
        check(failures, q == math.ceil(bound) == 3, ("tightness", name))
    report(9, f"forcing bound on distinct distance eigenvalues holds on "
              f"{len(corpus)} graphs, tight on both cubes", failures)


def test_criterion_10_tree_sweep():
    t0 = time.perf_counter()
    failures = []
    expect = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
              11: 235, 12: 551}
    for order, want in expect.items():
        trees = enumerate_trees(order)
        check(failures, len(trees) == want, ("count", order, len(trees)))
        for t in trees:
            rep = check_tree_bounds(t)
            check(failures, rep.distinct_lower >= rep.diameter + 1,
                  ("bound", order, t.edges))
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 600, f"runtime {elapsed:.0f}s over budget")
    report(10, f"all {sum(expect.values())} trees through order 12 have "
               f"more distance eigenvalues than their diameter "
               f"({elapsed:.0f}s)", failures)


def test_criterion_11_cube_with_leaf():
    failures = []
    g = hypercube_with_leaf(4)
    spec = numeric_spectrum(g)
    check(failures, len(spec.entries) == 5,
          f"{len(spec.entries)} clusters")
    check(failures, round(float(largest(spec)), 4) == 36.0366, "largest")
    check(failures, round(float(smallest(spec)), 4) == -10.3149, "smallest")
    check(failures, multiplicity(spec, 0.0, tol=1e-8) == 11, "null mult")
    check(failures, multiplicity(spec, -8.0, tol=1e-8) == 3, "mult at -8")
    d = distance_matrix(g)
    check(failures, g.n - (len(d) - inertia_exact(d).zero) == 11,
          "exact null rank")
    shifted = [[d[i][j] + (8 if i == j else 0) for j in range(g.n)]
               for i in range(g.n)]
    check(failures, g.n - (len(shifted) - inertia_exact(shifted).zero) == 3,
          "exact rank at -8")
    report(11, "leaf on the 4-cube: five eigenvalue clusters with the "
               "expected extremes and exact multiplicities", failures)
