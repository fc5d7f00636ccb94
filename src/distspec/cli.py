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
sweeps, and `bounds.ZF_ORDER_CAP` for `zf-bound`.  A request over its cap is
a usage error, and a grid point over it is left out of the sweep.  A
closed-form `spectrum` builds no graph at all, nor does `--verify` where the
family has no closed form.  The solver's error estimate comes from the
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
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional, Sequence

from .bounds import (ZF_ORDER_CAP, check_tree_bounds, enumerate_trees,
                     forcing_bound, zero_forcing_number)
from .closedforms import (LEMMA_RANGES, ClosedFormSpectrum, _comb0,
                          barbell_determinant, barbell_inertia,
                          cocktail_party_spectrum, complete_spectrum,
                          cycle_spectrum, dodecahedron_spectrum,
                          doob_spectrum, double_odd_spectrum,
                          halved_cube_spectrum, hamming_spectrum,
                          icosahedron_spectrum, johnson_spectrum,
                          kneser_spectrum, lemma_identity,
                          lollipop_determinant, lollipop_inertia,
                          shrikhande_power_spectrum)
from .distances import distance_matrix, format_matrix
from .exact import (EXACT_ORDER_CAP, Inertia, det_exact,
                    distinct_eigenvalue_count, inertia_exact)
from .graphs import (Graph, GraphError, cocktail_party, complement, complete,
                     cycle, dodecahedron, double_odd, doob,
                     generalized_barbell, halved_cube, hamming, hypercube,
                     hypercube_with_leaf, icosahedron, johnson, kneser,
                     lollipop, odd_graph, path, petersen, shrikhande)
from .jacobi import MAX_ORDER, sym_eigenvalues
from .spectra import (Spectrum, _fmt, cluster_to_spectrum, error_bound,
                      exact_string, max_deviation)
from .srg import (SrgParams, classify_one_positive, complement_params,
                  is_conference, is_optimistic, srg_eigen_data)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
MATCH_TOL = 1e-8


@dataclass(frozen=True)
class Family:
    """A graph family on the command line.

    `order` is total over the integers: the generator's order where the
    generator accepts the parameters, a few vertices at most elsewhere.
    `domain` holds where the closed form is tried before building and which
    `verify` grid points stay; `grid` has one default range per parameter.
    """

    params: tuple[str, ...]
    gen: Callable[..., Graph]
    order: Callable[..., int]
    grid: tuple[range, ...] = ()
    closed: Optional[Callable[..., ClosedFormSpectrum]] = None
    domain: Callable[..., bool] = lambda *params: True
    det: Optional[Callable[..., int]] = None
    inertia: Optional[Callable[..., Inertia]] = None


FAMILIES: dict[str, Family] = {
    "complete": Family(("n",), complete, lambda n: n, (range(2, 26),), complete_spectrum),
    "path": Family(("n",), path, lambda n: n),
    "cycle": Family(("n",), cycle, lambda n: n, (range(3, 41),), cycle_spectrum),
    "hypercube": Family(("d",), hypercube, lambda d: 1 << max(d, 0),
                        (range(1, 9),), lambda d: hamming_spectrum(d, 2)),
    "hamming": Family(("d", "n"), hamming, lambda d, n: max(n, 0) ** max(d, 0),
                      (range(1, 5), range(2, 5)), hamming_spectrum),
    "shrikhande": Family((), shrikhande, lambda: 16, (),
                         lambda: shrikhande_power_spectrum(1)),
    "doob": Family(("m", "d"), doob,
                   lambda m, d: 4 ** (2 * m + d) if m >= 1 and d >= 0 else 0,
                   (range(1, 3), range(0, 2)), doob_spectrum),
    "johnson": Family(("n", "r"), johnson, _comb0, (range(2, 10), range(1, 9)),
                      johnson_spectrum, domain=lambda n, r: 1 <= r <= n - 1),
    "kneser": Family(("n", "r"), kneser, _comb0, (range(3, 10), range(1, 5)),
                     kneser_spectrum, domain=lambda n, r: 1 <= r and n > 2 * r),
    "odd": Family(("r",), odd_graph, lambda r: _comb0(2 * r + 1, r),
                  (range(2, 5),), lambda r: kneser_spectrum(2 * r + 1, r),
                  domain=lambda r: r >= 2),
    "double-odd": Family(("r",), double_odd,
                         lambda r: 2 * _comb0(2 * r + 1, r), (range(2, 4),),
                         double_odd_spectrum),
    "halved-cube": Family(("d",), halved_cube, lambda d: 1 << max(d - 1, 0),
                          (range(4, 10),), halved_cube_spectrum),
    "cocktail-party": Family(("m",), cocktail_party, lambda m: 2 * m,
                             (range(2, 9),), cocktail_party_spectrum),
    "petersen": Family((), petersen, lambda: 10, (), lambda: kneser_spectrum(5, 2)),
    "icosahedron": Family((), icosahedron, lambda: 12, (), icosahedron_spectrum),
    "dodecahedron": Family((), dodecahedron, lambda: 20, (), dodecahedron_spectrum),
    "lollipop": Family(("k", "l"), lollipop,
                       lambda k, l: k + l if k >= 2 and l >= 0 else 0,
                       (range(2, 9), range(0, 9)),
                       det=lollipop_determinant, inertia=lollipop_inertia),
    "barbell": Family(("k", "m", "l"), generalized_barbell,
                      lambda k, m, l: k + m + l if min(k, m) >= 2 and l >= 0 else 0,
                      (range(2, 7), range(2, 7), range(0, 7)),
                      det=barbell_determinant, inertia=barbell_inertia),
    "hypercube-leaf": Family(("d",), hypercube_with_leaf,
                             lambda d: (1 << max(d, 0)) + 1),
}


# the parameters that `verify` takes a range flag for
RANGE_PARAMS = sorted({p for f in FAMILIES.values() for p in f.params})


def _family(name: str, params: Sequence[int]) -> Family:
    fam = FAMILIES[name]
    if len(params) != len(fam.params):
        want = " ".join(fam.params) if fam.params else "(no parameters)"
        raise GraphError(f"{name} takes {len(fam.params)} parameter(s): {want}")
    return fam


def _build(name: str, params: Sequence[int], cap: int, what: str) -> Graph:
    """The graph, after its order is checked against the route's cap."""
    fam = _family(name, params)
    n = fam.order(*params)
    if n > cap:
        raise ValueError(f"order {n} exceeds the {what} cap {cap}")
    return fam.gen(*params)


def _parse_range(text: str) -> range:
    """Parse "a..b" (inclusive) or a single integer "a"."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# spectrum and det: one report per route, shared with `verify`


def _spectrum_report(name: str, params: Sequence[int], *,
                     verify: bool = False,
                     numeric: bool = False) -> tuple[dict, Spectrum]:
    """The `spectrum` JSON document of one instance, and the spectrum it
    reports: the closed form if one was used, else the numeric one.

    Inside the family's domain the closed form comes first, and the graph
    is built only for the numeric route; outside it the graph is built
    first, so bad parameters meet the generator's message.  A closed form
    that refuses the parameters hands over to the numeric route with a note,
    or raises if verify is set: there is then nothing to verify against.
    """
    fam = _family(name, params)
    if verify and fam.closed is None:
        raise ValueError(f"{name} has no closed-form spectrum to verify")
    out: dict = {"family": name, "params": list(params),
                 "n": fam.order(*params)}
    use_closed = fam.closed is not None and not numeric
    g = None
    if verify or not (use_closed and fam.domain(*params)):
        g = _build(name, params, MAX_ORDER, "supported")
    closed: Optional[Spectrum] = None
    note: Optional[str] = None
    if use_closed:
        # D's largest eigenvalue is at least its least row sum, >= n - 1
        if out["n"] - 1 > sys.float_info.max:
            raise ValueError("value beyond the float range +-1.8e308")
        try:
            cf = fam.closed(*params)
        except ValueError as exc:
            if verify:
                raise
            note = f"closed form unavailable here ({exc}); using numeric solver"
        else:
            closed = cf.spectrum
            out["closed_form"] = {**closed.to_json_dict(),
                                  "formula": cf.formula}
    elif fam.closed is None:
        note = "no closed form for this family; using numeric solver"

    if verify or closed is None:
        if g is None:
            g = _build(name, params, MAX_ORDER, "supported")
        vals = sym_eigenvalues(distance_matrix(g))
        num = cluster_to_spectrum(vals)
        out["numeric"] = num.to_json_dict()
        if closed is not None:
            # a solver that cannot promise MATCH_TOL proves nothing
            bound = error_bound(vals)
            dev = max_deviation(closed, num)
            out["match"] = dev < MATCH_TOL and bound < MATCH_TOL
            out["max_deviation"] = _fmt(dev)
            out["error_bound"] = _fmt(bound)
    if note:
        out["note"] = note
    return out, num if closed is None else closed


def cmd_spectrum(args: argparse.Namespace) -> int:
    out, spec = _spectrum_report(args.family, args.params, verify=args.verify,
                                 numeric=args.numeric)
    if args.format == "text":
        print(f"{args.family} {' '.join(map(str, args.params))}  n={out['n']}")
        for value, mult in spec.entries:
            exact = exact_string(value)
            tail = f"  [{exact}]" if exact else ""
            print(f"  {_fmt(value):.12g} ^ {mult}{tail}")
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
    g = _build(name, params, EXACT_ORDER_CAP, "exact search")
    dm = distance_matrix(g)
    det, inertia = det_exact(dm), inertia_exact(dm)
    out: dict = {"family": name, "params": list(params), "n": g.n,
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
                    cap: int) -> list[tuple[int, ...]]:
    """The family's default grid, each axis replaced by its range flag if
    one is given, less the points outside the domain or above cap."""
    fam = FAMILIES[name]
    _refuse_other_range_flags(name, fam.params, args)
    axes = []
    for pname, default in zip(fam.params, fam.grid):
        flag = getattr(args, f"range_{pname}")
        axes.append(default if flag is None else _parse_range(flag))
    return [p for p in itertools.product(*axes)
            if fam.domain(*p) and fam.order(*p) <= cap]


def _pick(doc: dict, *keys: str) -> dict:
    """One `verify` row: the instance and the given keys of its report."""
    return {k: doc[k] for k in ("family", "params", "n", *keys)}


def _lemma_jobs(max_index: int, max_b: int) -> list[tuple[int, dict]]:
    """Every identity over its range: b up to max_b, the rest to max_index."""
    return [(sel, dict(zip(lows, point)))
            for sel, lows in LEMMA_RANGES.items()
            for point in itertools.product(
                *(range(lo, (max_b if p == "b" else max_index) + 1)
                  for p, lo in lows.items()))]


def cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    results: list[dict] = []
    fam = FAMILIES.get(target)

    if target == "lemma-identities":
        _refuse_other_range_flags(target, (), args)
        for sel, kw in _lemma_jobs(20 if args.max is None else args.max,
                                   10 if args.max_b is None else args.max_b):
            lhs, rhs = lemma_identity(sel, **kw)
            results.append({"identity": sel, **kw, "lhs": lhs, "rhs": rhs,
                            "match": lhs == rhs})
    elif fam is None:
        raise ValueError(f"unknown verify target {target!r}")
    elif fam.det is not None:
        results = [_pick(_det_report(target, p), "det", "inertia", "match")
                   for p in _grid_instances(target, args, EXACT_ORDER_CAP)]
    elif fam.closed is None:
        raise ValueError(f"{target} has no closed-form spectrum to verify")
    else:
        results = [_pick(_spectrum_report(target, p, verify=True)[0],
                         "match", "max_deviation", "error_bound")
                   for p in _grid_instances(target, args, MAX_ORDER)]

    failures = sum(1 for r in results if not r["match"])
    if args.format == "csv":
        _print_csv(results)
    elif args.format == "json":
        print(json.dumps({"target": target, "instances": len(results),
                          "failures": failures, "results": results},
                         indent=2, sort_keys=True))
    else:
        for r in results:
            bits = [f"{k}={v}" for k, v in r.items() if k != "match"]
            status = "ok" if r["match"] else "MISMATCH"
            print(f"{status:8s} {'  '.join(bits)}")
        print(f"{len(results)} instance(s), {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _print_csv(results: list[dict]) -> None:
    import csv
    keys: list[str] = []
    for r in results:
        for k in r:
            if k not in keys:
                keys.append(k)
    w = csv.DictWriter(sys.stdout, fieldnames=keys)
    w.writeheader()
    for r in results:
        w.writerow(r)


# ---------------------------------------------------------------------------
# srg


def cmd_srg(args: argparse.Namespace) -> int:
    p = SrgParams(args.n, args.k, args.lam, args.mu)
    out: dict = {"params": [p.n, p.k, p.lam, p.mu]}
    feasible = p.is_feasible()
    out["feasible"] = feasible
    if feasible and p.mu > 0:
        data = srg_eigen_data(p)
        out["conference"] = is_conference(p)
        out["optimistic"] = is_optimistic(p)
        out["one_positive_distance_eigenvalue"] = classify_one_positive(
            p.n, p.k, p.lam, p.mu)
        out["adjacency"] = {
            "theta": _fmt(data.theta), "tau": _fmt(data.tau),
            "m_theta": data.m_theta, "m_tau": data.m_tau,
        }
        out["distance"] = {
            "rho": _fmt(data.rho_d),
            "theta": _fmt(data.theta_d), "tau": _fmt(data.tau_d),
            "spectrum": data.distance_spectrum().to_json_dict(),
        }
        comp = complement_params(p)
        out["complement"] = [comp.n, comp.k, comp.lam, comp.mu]
        out["complement_connected"] = comp.k > 0 and comp.mu > 0
        if comp.mu > 0 and comp.is_feasible():
            out["complement_optimistic"] = is_optimistic(comp)
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-trees


def cmd_verify_trees(args: argparse.Namespace) -> int:
    any_strong = 0
    for order in range(2, args.max_order + 1):
        strong = weak = 0
        count = 0
        for t in enumerate_trees(order):
            rep = check_tree_bounds(t)
            count += 1
            if not rep.strong_holds:
                strong += 1
            if not rep.half_floor_holds:
                weak += 1
        any_strong += strong + weak
        print(json.dumps({"order": order, "trees": count,
                          "strong_violations": strong,
                          "weak_violations": weak}, sort_keys=True))
    return EXIT_OK if any_strong == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# zf-bound and matrix


def cmd_zf_bound(args: argparse.Namespace) -> int:
    g = _build(args.family, args.params, ZF_ORDER_CAP, "zero forcing search")
    z = zero_forcing_number(complement(g))
    bound = forcing_bound(g.n, z)
    qd = distinct_eigenvalue_count(distance_matrix(g))
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
    g = _build(args.family, args.params, MAX_ORDER, "supported")
    sys.stdout.write(format_matrix(distance_matrix(g)))
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


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("lam", type=int)
    sp.add_argument("mu", type=int)
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
    # GraphError, DisconnectedError and SrgParameterError are ValueErrors
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
