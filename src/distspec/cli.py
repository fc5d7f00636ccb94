"""Command line interface.

Subcommands:

  spectrum      distance spectrum of one graph (closed form and/or numeric)
  verify        sweep a family grid, closed form against the numeric solver
  srg           analyse a strongly regular parameter set
  verify-trees  distinct-eigenvalue bounds over all trees of small order
  zf-bound      zero-forcing lower bound on distinct distance eigenvalues
  matrix        print the distance matrix
  det           exact determinant and inertia of the distance matrix

Everything known about a graph family is one `Family` record in `FAMILIES`:
its parameters, generator, order, domain, closed forms and default `verify`
grid.  Each route checks the order of a request against its own cap before
it builds a graph: `jacobi.MAX_ORDER` for numeric spectra, `verify` spectrum
sweeps and `matrix`, `exact.EXACT_ORDER_CAP` for `det` and determinant
sweeps, and `bounds.ZF_ORDER_CAP` for `zf-bound`; `bounds.TREE_ORDER_CAP`
and `closedforms.LEMMA_CAP` bound the `verify-trees` and `lemma-identities`
sweeps, and `SWEEP_POINT_CAP` the grid points a family sweep walks.
A request over its cap is a usage error, and a grid point over it
is left out of the sweep, and the sweep's output says how many points it
left out; a sweep left with no point is a usage error too.
A closed-form `spectrum` builds no graph at all, nor does `--verify` where
the family has no closed form.  The solver's error estimate comes from the
eigenvalues (`spectra.error_bound`); numeric eigenvalues closer than twice
it are grouped as one.  A closed form and the numeric spectrum match when
both their deviation and that estimate are below `MATCH_TOL`, 1e-8.

Exit codes: 0 success (and every check passed), 1 a verification failed,
2 bad usage or invalid parameters.  `main` refuses every bad request, the
parser's own usage errors included, with one `error: ...` line on stderr.
Output is deterministic; floats are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional, Sequence

from .bounds import (TREE_ORDER_CAP, ZF_ORDER_CAP, check_trees_bounds,
                     forcing_bound, tree_distances, trees_by_order,
                     zero_forcing_number)
from .closedforms import (LEMMA_CAP, LEMMA_RANGES, ClosedFormSpectrum,
                          barbell_determinant, barbell_inertia,
                          cocktail_party_spectrum, complete_spectrum,
                          cycle_spectrum, dodecahedron_spectrum,
                          doob_spectrum, double_odd_spectrum,
                          halved_cube_spectrum, hamming_spectrum,
                          icosahedron_spectrum, johnson_spectrum,
                          kneser_spectrum, lemma_identity,
                          lollipop_determinant, lollipop_inertia,
                          shrikhande_power_spectrum)
from .distances import distance_array, format_matrix
from .exact import (EXACT_ORDER_CAP, Inertia, det_exact,
                    distinct_eigenvalue_count, inertia_exact)
from .graphs import (Graph, GraphError, cocktail_party, complement, complete,
                     cycle, dodecahedron, double_odd, doob,
                     generalized_barbell, halved_cube, hamming, hypercube,
                     hypercube_with_leaf, icosahedron, johnson, kneser,
                     lollipop, odd_graph, path, petersen, shrikhande)
from .jacobi import MAX_ORDER, sym_eigenvalues
from .spectra import (MATCH_TOL, _fmt, cluster_to_spectrum, error_bound,
                      max_deviation)
from .srg import (SrgParams, classify_one_positive, complement_params,
                  is_conference, is_optimistic, srg_eigen_data)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
# `verify` grid points walked at most, checked before the walk
SWEEP_POINT_CAP = 10**5
# no order past 2**ORDER_BITS is computed: every cap and the float range
# lie below it, while 2**(10**11) alone would exhaust the memory
ORDER_BITS = 1100


def _power(base: int, exp: int) -> int | float:
    """base**exp for base, exp >= 0, or inf past 2**ORDER_BITS."""
    big = base > 1 and exp > ORDER_BITS / math.log2(base)
    return math.inf if big else base ** exp


def _binom(a: int, b: int) -> int | float:
    """C(a, b), zero outside 0 <= b <= a, or inf past 2**ORDER_BITS: as
    C(a, j) >= 2**j for j <= a/2, at most ORDER_BITS + 1 steps run."""
    c = int(0 <= b <= a)
    for j in range(min(b, a - b)):
        c = c * (a - j) // (j + 1)
        if c > 1 << ORDER_BITS:
            return math.inf
    return c


@dataclass(frozen=True)
class Family:
    """A graph family on the command line.

    `order` is total over the integers: the generator's order where the
    generator accepts the parameters, a few vertices at most elsewhere,
    and inf where that order is past 2**ORDER_BITS.
    `domain` holds where the generator builds a connected graph (its
    precondition, and for kneser and cocktail-party connectedness too):
    there the closed form answers without building, and only those
    `verify` grid points stay; `grid` has one default range per parameter.
    """

    params: tuple[str, ...]
    gen: Callable[..., Graph]
    order: Callable[..., int | float]
    grid: tuple[range, ...] = ()
    closed: Optional[Callable[..., ClosedFormSpectrum]] = None
    domain: Callable[..., bool] = lambda *params: True
    det: Optional[Callable[..., int]] = None
    inertia: Optional[Callable[..., Inertia]] = None


FAMILIES: dict[str, Family] = {
    "complete": Family(("n",), complete, lambda n: n, (range(2, 26),),
                       complete_spectrum, domain=lambda n: n >= 2),
    "path": Family(("n",), path, lambda n: n, domain=lambda n: n >= 2),
    "cycle": Family(("n",), cycle, lambda n: n, (range(3, 41),),
                    cycle_spectrum, domain=lambda n: n >= 3),
    "hypercube": Family(("d",), hypercube, lambda d: _power(2, max(d, 0)),
                        (range(1, 9),), lambda d: hamming_spectrum(d, 2),
                        domain=lambda d: d >= 1),
    "hamming": Family(("d", "n"), hamming,
                      lambda d, n: _power(max(n, 0), max(d, 0)),
                      (range(1, 5), range(2, 5)), hamming_spectrum,
                      domain=lambda d, n: d >= 1 and n >= 2),
    "shrikhande": Family((), shrikhande, lambda: 16, (),
                         lambda: shrikhande_power_spectrum(1)),
    "doob": Family(("m", "d"), doob,
                   lambda m, d: (_power(4, 2 * m + d)
                                 if m >= 1 and d >= 0 else 0),
                   (range(1, 3), range(0, 2)), doob_spectrum,
                   domain=lambda m, d: m >= 1 and d >= 0),
    "johnson": Family(("n", "r"), johnson, _binom, (range(2, 10), range(1, 9)),
                      johnson_spectrum, domain=lambda n, r: 1 <= r <= n - 1),
    "kneser": Family(("n", "r"), kneser, _binom, (range(3, 10), range(1, 5)),
                     kneser_spectrum, domain=lambda n, r: 1 <= r and n > 2 * r),
    "odd": Family(("r",), odd_graph, lambda r: _binom(2 * r + 1, r),
                  (range(2, 5),), lambda r: kneser_spectrum(2 * r + 1, r),
                  domain=lambda r: r >= 2),
    "double-odd": Family(("r",), double_odd,
                         lambda r: 2 * _binom(2 * r + 1, r), (range(2, 4),),
                         double_odd_spectrum, domain=lambda r: r >= 2),
    "halved-cube": Family(("d",), halved_cube,
                          lambda d: _power(2, max(d - 1, 0)),
                          (range(4, 10),), halved_cube_spectrum,
                          domain=lambda d: d >= 2),
    "cocktail-party": Family(("m",), cocktail_party, lambda m: 2 * m,
                             (range(2, 9),), cocktail_party_spectrum,
                             domain=lambda m: m >= 2),
    "petersen": Family((), petersen, lambda: 10, (), lambda: kneser_spectrum(5, 2)),
    "icosahedron": Family((), icosahedron, lambda: 12, (), icosahedron_spectrum),
    "dodecahedron": Family((), dodecahedron, lambda: 20, (), dodecahedron_spectrum),
    "lollipop": Family(("k", "l"), lollipop,
                       lambda k, l: k + l if k >= 2 and l >= 0 else 0,
                       (range(2, 9), range(0, 9)),
                       domain=lambda k, l: k >= 2 and l >= 0,
                       det=lollipop_determinant, inertia=lollipop_inertia),
    "barbell": Family(("k", "m", "l"), generalized_barbell,
                      lambda k, m, l: k + m + l if min(k, m) >= 2 and l >= 0 else 0,
                      (range(2, 7), range(2, 7), range(0, 7)),
                      domain=lambda k, m, l: min(k, m) >= 2 and l >= 0,
                      det=barbell_determinant, inertia=barbell_inertia),
    "hypercube-leaf": Family(("d",), hypercube_with_leaf,
                             lambda d: _power(2, max(d, 0)) + 1,
                             domain=lambda d: d >= 1),
}


# the parameters that `verify` takes a range flag for
RANGE_PARAMS = sorted({p for f in FAMILIES.values() for p in f.params})


def _family(name: str, params: Sequence[int]) -> Family:
    fam = FAMILIES[name]
    if len(params) != len(fam.params):
        want = " ".join(fam.params) if fam.params else "(no parameters)"
        raise GraphError(f"{name} takes {len(fam.params)} parameter(s): {want}")
    return fam


def _build(fam: Family, params: Sequence[int], cap: int, what: str) -> Graph:
    """The graph, after its order is checked against the route's cap."""
    n = fam.order(*params)
    if n > cap:
        size = n if n < math.inf else f"over 2^{ORDER_BITS}"
        raise ValueError(f"order {size} exceeds the {what} cap {cap}")
    return fam.gen(*params)


def _parse_range(pname: str, text: str) -> range:
    """Parse the value of --pname: "a..b" (inclusive) or a single integer."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ValueError(f"argument --{pname}: invalid range {text!r}: "
                         "expected A..B or A") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# spectrum and det: one report per route, shared with `verify`


def _spectrum_report(name: str, params: Sequence[int], *,
                     verify: bool = False, numeric: bool = False) -> dict:
    """The `spectrum` JSON document of one instance.

    The closed form answers inside the family's domain, which is exactly
    where it accepts the parameters, and builds no graph.  The numeric
    route builds one under numeric or verify, where the family has no
    closed form, and outside the domain, where bad parameters meet the
    generator's or the distance search's refusal.
    """
    fam = _family(name, params)
    if verify and fam.closed is None:
        raise ValueError(f"{name} has no closed-form spectrum to verify")
    n = fam.order(*params)
    out: dict = {"family": name, "params": list(params), "n": n}
    closed_route = not numeric and fam.closed is not None and fam.domain(*params)
    if verify or not closed_route:
        graph = _build(fam, params, MAX_ORDER, "supported")
    if fam.closed is None:
        out["note"] = "no closed form for this family; using numeric solver"
    if closed_route:
        # D's largest eigenvalue is at least its least row sum, >= n - 1
        if n - 1 > sys.float_info.max:
            raise ValueError("value beyond the float range +-1.8e308")
        cf = fam.closed(*params)
        closed = cf.spectrum
        out["closed_form"] = {**closed.to_json_dict(), "formula": cf.formula}
        if not verify:
            return out

    vals = sym_eigenvalues(distance_array(graph))
    num = cluster_to_spectrum(vals)
    out["numeric"] = num.to_json_dict()
    if closed_route:
        # a solver that cannot promise MATCH_TOL proves nothing
        bound = error_bound(vals)
        dev = max_deviation(closed, num)
        out["match"] = dev < MATCH_TOL and bound < MATCH_TOL
        out["max_deviation"] = _fmt(dev)
        out["error_bound"] = _fmt(bound)
    return out


def cmd_spectrum(args: argparse.Namespace) -> int:
    out = _spectrum_report(args.family, args.params, verify=args.verify,
                           numeric=args.numeric)
    if args.format == "text":
        print(f"{args.family} {' '.join(map(str, args.params))}  n={out['n']}")
        for e in (out.get("closed_form") or out["numeric"])["eigs"]:
            tail = f"  [{e['exact']}]" if e["exact"] else ""
            print(f"  {e['value']:.12g} ^ {e['mult']}{tail}")
        if "match" in out:
            print(f"  match={str(out['match']).lower()}"
                  f"  max_deviation={out['max_deviation']:.3g}"
                  f"  error_bound={out['error_bound']:.3g}")
        if "note" in out:
            print(f"  note: {out['note']}")
    else:
        print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_FAIL if out.get("match") is False else EXIT_OK


def _det_report(name: str, params: Sequence[int]) -> dict:
    """The `det` JSON document of one instance: exact determinant and
    inertia, against the family's formulas where it has them."""
    fam = _family(name, params)
    dm = distance_array(_build(fam, params, EXACT_ORDER_CAP, "exact search"))
    det, inertia = det_exact(dm), inertia_exact(dm)
    out: dict = {"family": name, "params": list(params), "n": len(dm),
                 "det": det, "inertia": list(inertia.as_tuple())}
    if fam.det is not None:
        formula_inertia = fam.inertia(*params)
        out["formula_det"] = fam.det(*params)
        out["formula_inertia"] = list(formula_inertia.as_tuple())
        out["match"] = out["formula_det"] == det and formula_inertia == inertia
    return out


def cmd_det(args: argparse.Namespace) -> int:
    out = _det_report(args.family, args.params)
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_FAIL if out.get("match") is False else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _refuse_other_range_flags(target: str, takes: Sequence[str],
                              args: argparse.Namespace) -> None:
    for pname in RANGE_PARAMS:
        if getattr(args, f"range_{pname}") is not None and pname not in takes:
            raise ValueError(f"{target} takes no parameter {pname}")
    for flag in ("max", "max_b"):
        if getattr(args, flag) is not None and target != "lemma-identities":
            raise ValueError(f"{target} takes no option --{flag.replace('_', '-')}")


def _grid_instances(name: str, args: argparse.Namespace,
                    cap: int) -> tuple[list[tuple[int, ...]], int]:
    """The points of the family's grid (each axis its range flag if given)
    inside the domain and cap, and the number of points left out; they are
    counted against SWEEP_POINT_CAP before any is walked."""
    fam = FAMILIES[name]
    _refuse_other_range_flags(name, fam.params, args)
    axes = []
    for pname, default in zip(fam.params, fam.grid):
        flag = getattr(args, f"range_{pname}")
        axes.append(default if flag is None else _parse_range(pname, flag))
    points = math.prod(r.stop - r.start for r in axes)
    if points > SWEEP_POINT_CAP:
        raise ValueError(f"the {name} sweep has {points} grid points, over "
                         f"the cap {SWEEP_POINT_CAP}")
    jobs = [p for p in itertools.product(*axes)
            if fam.domain(*p) and fam.order(*p) <= cap]
    return jobs, points - len(jobs)


def _pick(doc: dict, *keys: str) -> dict:
    """One `verify` row: the instance and the given keys of its report."""
    return {k: doc[k] for k in ("family", "params", "n", *keys)}


def _lemma_jobs(max_index: int, max_b: int) -> list[tuple[int, dict]]:
    """Every identity over its range: b up to max_b, the rest to max_index."""
    for flag, top in (("--max", max_index), ("--max-b", max_b)):
        if top > LEMMA_CAP:
            raise ValueError(f"{flag} {top} exceeds the lemma-identities "
                             f"cap {LEMMA_CAP}")
    return [(sel, dict(zip(lows, point)))
            for sel, lows in LEMMA_RANGES.items()
            for point in itertools.product(
                *(range(lo, (max_b if p == "b" else max_index) + 1)
                  for p, lo in lows.items()))]


def _lemma_row(job: tuple[int, dict]) -> dict:
    sel, kw = job
    lhs, rhs = lemma_identity(sel, **kw)
    return {"identity": sel, **kw, "lhs": lhs, "rhs": rhs, "match": lhs == rhs}


def cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    fam = FAMILIES.get(target)

    if target == "lemma-identities":
        _refuse_other_range_flags(target, (), args)
        jobs = _lemma_jobs(20 if args.max is None else args.max,
                           10 if args.max_b is None else args.max_b)
        check, dropped = _lemma_row, 0
    elif fam is None:
        raise ValueError(f"unknown verify target {target!r}")
    elif fam.det is not None:
        jobs, dropped = _grid_instances(target, args, EXACT_ORDER_CAP)
        check = lambda p: _pick(_det_report(target, p), "det", "inertia",
                                "match")
    elif fam.closed is None:
        raise ValueError(f"{target} has no closed-form spectrum to verify")
    else:
        jobs, dropped = _grid_instances(target, args, MAX_ORDER)
        check = lambda p: _pick(_spectrum_report(target, p, verify=True),
                                "match", "max_deviation", "error_bound")
    if not jobs:  # a sweep that checks nothing must not pass
        raise ValueError(f"the {target} sweep has no instance inside its "
                         f"domain and cap")
    results = [check(job) for job in jobs]

    failures = sum(1 for r in results if not r["match"])
    note = f"{dropped} point(s) dropped"
    if args.format == "csv":
        import csv
        w = csv.DictWriter(sys.stdout, fieldnames=list(
            dict.fromkeys(k for r in results for k in r)))
        w.writeheader()
        w.writerows(results)
        if dropped:
            print(f"note: {note}", file=sys.stderr)
    elif args.format == "json":
        doc = {"target": target, "instances": len(results),
               "failures": failures, "results": results}
        if dropped:
            doc["dropped"] = dropped
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r in results:
            bits = [f"{k}={v}" for k, v in r.items() if k != "match"]
            status = "ok" if r["match"] else "MISMATCH"
            print(f"{status:8s} {'  '.join(bits)}")
        print(f"{len(results)} instance(s), {failures} failure(s)"
              + (f", {note}" if dropped else ""))
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# srg


def cmd_srg(args: argparse.Namespace) -> int:
    p = SrgParams(args.n, args.k, args.lam, args.mu)
    out: dict = {"params": [p.n, p.k, p.lam, p.mu], "feasible": p.is_feasible()}
    if out["feasible"] and p.mu > 0:
        data = srg_eigen_data(p)
        out["conference"] = is_conference(p)
        out["optimistic"] = is_optimistic(p)
        out["one_positive_distance_eigenvalue"] = classify_one_positive(p)
        out["adjacency"] = {
            "theta": _fmt(data.theta), "tau": _fmt(data.tau),
            "m_theta": data.m_theta, "m_tau": data.m_tau,
        }
        out["distance"] = {
            "rho": _fmt(data.rho_d),
            "theta": _fmt(data.theta_d), "tau": _fmt(data.tau_d),
            "spectrum": data.distance_spectrum().to_json_dict(),
        }
        if not data.m_theta:  # K_n: theta does not occur, and moves with mu
            del out["adjacency"]["theta"], out["adjacency"]["m_theta"]
            del out["distance"]["theta"]
        out["complement_connected"] = False
        if p.k < p.n - 1:
            comp = complement_params(p)
            out["complement"] = [comp.n, comp.k, comp.lam, comp.mu]
            out["complement_connected"] = comp.mu > 0
            if comp.mu > 0:
                out["complement_optimistic"] = is_optimistic(comp)
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-trees


def cmd_verify_trees(args: argparse.Namespace) -> int:
    if not 2 <= args.max_order <= TREE_ORDER_CAP:
        raise ValueError(f"--max-order {args.max_order} is outside "
                         f"2..{TREE_ORDER_CAP}")
    failures = 0
    for order, trees in enumerate(trees_by_order(args.max_order), start=2):
        reps = check_trees_bounds(tree_distances(trees))
        strong = sum(not r.strong_holds for r in reps)
        weak = sum(not r.half_floor_holds for r in reps)
        failures += strong + weak
        print(json.dumps({"order": order, "trees": len(trees),
                          "strong_violations": strong,
                          "weak_violations": weak}, sort_keys=True))
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# zf-bound and matrix


def cmd_zf_bound(args: argparse.Namespace) -> int:
    g = _build(_family(args.family, args.params), args.params, ZF_ORDER_CAP,
               "zero forcing search")
    z = zero_forcing_number(complement(g))
    bound = forcing_bound(g.n, z)
    qd = distinct_eigenvalue_count(distance_array(g))
    ceil_bound = math.ceil(bound)
    out = {"family": args.family, "params": list(args.params), "n": g.n,
           "zero_forcing_complement": z,
           "bound": _fmt(bound),
           "bound_exact": f"{bound.numerator}/{bound.denominator}",
           "bound_ceiling": ceil_bound,
           "distinct_distance_eigenvalues": qd,
           "holds": qd >= ceil_bound,
           "tight": qd == ceil_bound}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if out["holds"] else EXIT_FAIL


def cmd_matrix(args: argparse.Namespace) -> int:
    g = _build(_family(args.family, args.params), args.params, MAX_ORDER,
               "supported")
    sys.stdout.write(format_matrix(distance_array(g)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _add_family_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("family", choices=sorted(FAMILIES),
                    help="graph family name")
    sp.add_argument("params", nargs="*", type=int,
                    help="family parameters, e.g. `hamming 2 4`")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `distspec` parser, built on the first call and shared by every
    later one in the process.  argparse keeps no parse state on a parser,
    so reuse changes no output; callers must not mutate it."""
    ap = _Parser(
        prog="distspec",
        description="distance spectra of graphs: exact formulas, "
                    "numeric checks, and bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="distance spectrum of one graph")
    _add_family_arg(sp)
    route = sp.add_mutually_exclusive_group()
    route.add_argument("--verify", action="store_true",
                       help="compute both closed form and numeric, compare")
    route.add_argument("--numeric", action="store_true",
                       help="force the numeric route even when a formula "
                            "exists")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("verify",
                        help="sweep a family grid against the numeric solver")
    sp.add_argument("target",
                    help="family name, or `lemma-identities`")
    for pname in RANGE_PARAMS:
        sp.add_argument(f"--{pname}", dest=f"range_{pname}", default=None,
                        metavar="A..B", help=f"range for parameter {pname}")
    sp.add_argument("--max", type=int, default=None,
                    help="upper index bound for lemma-identities")
    sp.add_argument("--max-b", type=int, default=None,
                    help="upper bound for the shift parameter b")
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("srg", help="strongly regular parameter analysis")
    for name in ("n", "k", "lam", "mu"):
        sp.add_argument(name, type=int)
    sp.set_defaults(fn=cmd_srg)

    sp = sub.add_parser("verify-trees",
                        help="distinct-eigenvalue bounds over all trees")
    sp.add_argument("--max-order", type=int, default=10)
    sp.set_defaults(fn=cmd_verify_trees)

    sp = sub.add_parser("zf-bound",
                        help="zero-forcing bound on distinct eigenvalues")
    _add_family_arg(sp)
    sp.set_defaults(fn=cmd_zf_bound)

    sp = sub.add_parser("matrix", help="print the distance matrix")
    _add_family_arg(sp)
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("det",
                        help="exact determinant and inertia of D")
    _add_family_arg(sp)
    sp.set_defaults(fn=cmd_det)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  Every call parses with
    the one shared `build_parser()`, which callers must not mutate."""
    # GraphError, DisconnectedError and SrgParameterError are ValueErrors
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
