"""The command line's family registry: orders, domains and default grids."""

import itertools
import math

import pytest

from distspec.bounds import ZF_ORDER_CAP
from distspec.cli import FAMILIES, ORDER_BITS, _grid_instances, build_parser
from distspec.distances import DisconnectedError, distance_array
from distspec.exact import EXACT_ORDER_CAP
from distspec.graphs import GraphError
from distspec.jacobi import MAX_ORDER

# The `verify` default grids as they stood when the registry replaced the
# per-command tables, written out independently of it.
EXPECTED_GRIDS = {
    "hamming": [(d, n) for d in range(1, 5) for n in range(2, 5)],
    "hypercube": [(d,) for d in range(1, 9)],
    "doob": [(m, d) for m in range(1, 3) for d in range(0, 2)],
    "johnson": [(n, r) for n in range(2, 10) for r in range(1, 9)
                if r <= n - 1],
    "kneser": [(n, r) for n in range(3, 10) for r in range(1, 5)
               if n > 2 * r],
    "odd": [(r,) for r in range(2, 5)],
    "double-odd": [(2,), (3,)],
    "halved-cube": [(d,) for d in range(4, 10)],
    "cocktail-party": [(m,) for m in range(2, 9)],
    "cycle": [(n,) for n in range(3, 41)],
    "complete": [(n,) for n in range(2, 26)],
    "shrikhande": [()],
    "petersen": [()],
    "icosahedron": [()],
    "dodecahedron": [()],
    "barbell": [(k, m, l) for k in range(2, 7) for m in range(2, 7)
                for l in range(0, 7)],
    "lollipop": [(k, l) for k in range(2, 9) for l in range(0, 9)],
}


def verify_args(*flags):
    return build_parser().parse_args(["verify", "target", *flags])


def sweep_cap(name):
    return EXACT_ORDER_CAP if FAMILIES[name].det is not None else MAX_ORDER


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_order_agrees_with_generator_and_closed_form(name):
    fam = FAMILIES[name]
    for p in itertools.product(range(-1, 8), repeat=len(fam.params)):
        n = fam.order(*p)
        assert type(n) is int, p
        cf = None
        if fam.closed is not None and fam.domain(*p):
            # the closed form accepts its family's whole domain
            cf = fam.closed(*p)
            assert cf.spectrum.dimension == n, p
        if n > 3000:
            continue
        try:
            g = fam.gen(*p)
        except GraphError:
            assert cf is None, p  # the closed form accepts only real graphs
            assert n <= ZF_ORDER_CAP, p  # the generator's message comes first
        else:
            assert g.n == n, p


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_domain_is_where_the_generator_builds_a_connected_graph(name):
    fam = FAMILIES[name]
    for p in itertools.product(range(-1, 8), repeat=len(fam.params)):
        if fam.order(*p) > 600:
            continue
        try:
            g = fam.gen(*p)
        except GraphError:
            assert not fam.domain(*p), p
            continue
        try:
            distance_array(g)
            connected = True
        except DisconnectedError:
            connected = False
        # K(2, 1) is K_2, left out with the rest of kneser's n <= 2r
        assert fam.domain(*p) == connected or \
            (name, p) == ("kneser", (2, 1)), p


def test_default_grids_unchanged():
    verifiable = {name for name, fam in FAMILIES.items()
                  if fam.closed is not None or fam.det is not None}
    assert verifiable == set(EXPECTED_GRIDS)
    for name, expected in EXPECTED_GRIDS.items():
        assert len(FAMILIES[name].grid) == len(FAMILIES[name].params)
        got, dropped = _grid_instances(name, verify_args(), sweep_cap(name))
        assert got == expected, name
        axes = FAMILIES[name].grid
        assert dropped == math.prod(map(len, axes)) - len(expected), name


def test_grid_points_over_the_cap_are_dropped():
    args = verify_args("--d", "1..7", "--n", "4")
    got = _grid_instances("hamming", args, MAX_ORDER)
    # 4**5 = 1024 <= 1500
    assert got == ([(d, 4) for d in range(1, 6)], 2)
    args = verify_args("--k", f"{EXACT_ORDER_CAP - 4}..{EXACT_ORDER_CAP}",
                       "--l", "3")
    got = _grid_instances("lollipop", args, EXACT_ORDER_CAP)
    assert got == ([(k, 3) for k in range(EXACT_ORDER_CAP - 4,
                                          EXACT_ORDER_CAP - 2)], 3)


def test_orders_are_exact_up_to_the_bound_and_inf_past_it():
    def expect(exact):
        return exact if exact <= 2 ** ORDER_BITS else math.inf

    def order(name, *p):
        return FAMILIES[name].order(*p)

    for d in range(ORDER_BITS - 3, ORDER_BITS + 4):
        assert order("hypercube", d) == expect(2 ** d), d
        assert order("hypercube-leaf", d) == expect(2 ** d) + 1, d
        assert order("halved-cube", d) == expect(2 ** (d - 1)), d
    for d in range(690, 700):  # 3**694 < 2**1100 < 3**695
        assert order("hamming", d, 3) == expect(3 ** d), d
    for m, d in ((275, 0), (274, 2), (274, 3), (275, 1)):
        assert order("doob", m, d) == expect(4 ** (2 * m + d)), (m, d)
    for n, rs in ((1200, range(-1, 1202)), (10**11, range(0, 60)),
                  (-3, range(-2, 3))):
        for r in rs:
            exact = math.comb(n, r) if 0 <= r <= n else 0
            assert order("johnson", n, r) == expect(exact), (n, r)
            assert order("kneser", n, r) == expect(exact), (n, r)
    for r in range(545, 560):  # C(2r+1, r) passes 2**1100 at r = 553
        assert order("odd", r) == expect(math.comb(2 * r + 1, r)), r
        assert order("double-odd", r) == 2 * expect(math.comb(2 * r + 1, r))
