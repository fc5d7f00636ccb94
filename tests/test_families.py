"""The command line's family registry: orders, domains and default grids."""

import itertools

import pytest

from distspec.bounds import ZF_ORDER_CAP
from distspec.cli import FAMILIES, _grid_instances, build_parser
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
            try:
                cf = fam.closed(*p)
            except ValueError:
                pass
            else:
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
        got = _grid_instances(name, verify_args(), sweep_cap(name))
        assert got == expected, name


def test_grid_points_over_the_cap_are_dropped():
    args = verify_args("--d", "1..7", "--n", "4")
    got = _grid_instances("hamming", args, MAX_ORDER)
    assert got == [(d, 4) for d in range(1, 6)]  # 4**5 = 1024 <= 1500
    args = verify_args("--k", f"{EXACT_ORDER_CAP - 4}..{EXACT_ORDER_CAP}",
                       "--l", "3")
    got = _grid_instances("lollipop", args, EXACT_ORDER_CAP)
    assert got == [(k, 3) for k in range(EXACT_ORDER_CAP - 4,
                                         EXACT_ORDER_CAP - 2)]
