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
it builds a graph: `jacobi.MAX_ORDER` for numeric spectra and `verify`
spectrum sweeps, `exact.EXACT_ORDER_CAP` for `det` and determinant sweeps,
and `bounds.ZF_ORDER_CAP` for `zf-bound`; `matrix` has no cap.  A request
over its cap is a usage error, and a grid point over it is left out of the
sweep.  A closed-form `spectrum` builds no graph at all.

Exit codes: 0 success (and every check passed), 1 a verification failed,
2 bad usage or invalid parameters.  Output is deterministic; floats are
printed with 12 significant digits.  The environment variable
DISTSPEC_WORKERS overrides the worker count for `verify` sweeps;
parallelism is across instances only, never inside one computation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bounds import (ZF_ORDER_CAP, check_tree_bounds, enumerate_trees,
                     zero_forcing_number, zf_eigenvalue_bound)
from .closedforms import (ClosedFormSpectrum, _comb0, barbell_determinant,
                          barbell_inertia, cocktail_party_spectrum,
                          complete_spectrum, cycle_spectrum,
                          dodecahedron_spectrum, doob_spectrum,
                          double_odd_spectrum, halved_cube_spectrum,
                          hamming_spectrum, icosahedron_spectrum,
                          johnson_spectrum, kneser_spectrum, lemma_identity,
                          lollipop_determinant, lollipop_inertia,
                          shrikhande_power_spectrum)
from .distances import DisconnectedError, distance_matrix, format_matrix
from .exact import (EXACT_ORDER_CAP, Inertia, det_exact,
                    distinct_eigenvalue_count, inertia_exact)
from .graphs import (Graph, GraphError, cocktail_party, complement, complete,
                     cycle, dodecahedron, double_odd, doob,
                     generalized_barbell, halved_cube, hamming, hypercube,
                     hypercube_with_leaf, icosahedron, johnson, kneser,
                     lollipop, odd_graph, path, petersen, shrikhande)
from .jacobi import MAX_ORDER, sym_eigenvalues
from .spectra import (Spectrum, cluster_to_spectrum, exact_string,
                      max_deviation, spectra_match)
from .srg import (SrgParameterError, SrgParams, classify_one_positive,
                  complement_params, is_conference, is_optimistic,
                  srg_eigen_data)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _fmt(x: float) -> float:
    """Round a float to 12 significant digits for stable output."""
    return float(f"{float(x):.12g}")


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


def _worker_count(args: argparse.Namespace) -> int:
    """--workers, else DISTSPEC_WORKERS, else 1; anything but a positive
    integer is a usage error."""
    if args.workers is not None:
        count, source = args.workers, "--workers"
    else:
        env = os.environ.get("DISTSPEC_WORKERS")
        if not env:
            return 1
        source = "DISTSPEC_WORKERS"
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"{source} must be a positive integer, "
                             f"got {env!r}") from None
    if count < 1:
        raise ValueError(f"{source} must be a positive integer, got {count}")
    return count


# ---------------------------------------------------------------------------
# spectrum and det: one report per route, shared with `verify`


def _spectrum_report(name: str, params: Sequence[int], tol: float,
                     match_tol: float, cluster_tol: Optional[float] = None, *,
                     verify: bool = False, numeric: bool = False,
                     fallback: bool = True) -> tuple[dict, Optional[Spectrum]]:
    """The `spectrum` JSON document of one instance, and the closed-form
    spectrum if one was used.

    Inside the family's domain the closed form comes first, and the graph
    is built only for the numeric route; outside it the graph is built
    first, so bad parameters meet the generator's message.  A closed form
    that refuses the parameters hands over to the numeric route with a note,
    or raises if fallback is False.
    """
    fam = _family(name, params)
    out: dict = {"family": name, "params": list(params),
                 "n": fam.order(*params)}
    use_closed = fam.closed is not None and not numeric
    g = None
    if verify or not (use_closed and fam.domain(*params)):
        g = _build(name, params, MAX_ORDER, "supported")
    closed: Optional[Spectrum] = None
    note: Optional[str] = None
    if use_closed:
        try:
            cf = fam.closed(*params)
        except ValueError as exc:
            if not fallback:
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
        vals = sym_eigenvalues(distance_matrix(g), tol=tol)
        num = cluster_to_spectrum(vals, cluster_tol=cluster_tol)
        out["numeric"] = num.to_json_dict()
        if closed is not None:
            out["match"] = spectra_match(closed, num, tol=match_tol)
            out["max_deviation"] = _fmt(max_deviation(closed, num))
    if note:
        out["note"] = note
    return out, closed


def cmd_spectrum(args: argparse.Namespace) -> int:
    out, spec = _spectrum_report(args.family, args.params, args.tol,
                                 args.match_tol, args.cluster_tol,
                                 verify=args.verify, numeric=args.numeric)
    if args.format == "text":
        if spec is None:
            spec = Spectrum([(e["value"], e["mult"])
                             for e in out["numeric"]["eigs"]])
        print(f"{args.family} {' '.join(map(str, args.params))}  n={out['n']}")
        for value, mult in spec.entries:
            exact = exact_string(value)
            tail = f"  [{exact}]" if exact else ""
            print(f"  {float(value):.12g} ^ {mult}{tail}")
        if "match" in out:
            print(f"  match={str(out['match']).lower()}"
                  f"  max_deviation={out['max_deviation']:.3g}")
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


def _grid_instances(name: str, args: argparse.Namespace,
                    cap: int) -> list[tuple[int, ...]]:
    """The family's default grid, each axis replaced by its range flag if
    one is given, less the points outside the domain or above cap."""
    fam = FAMILIES[name]
    axes = []
    for pname, default in zip(fam.params, fam.grid):
        flag = getattr(args, f"range_{pname}")
        axes.append(default if flag is None else _parse_range(flag))
    return [p for p in itertools.product(*axes)
            if fam.domain(*p) and fam.order(*p) <= cap]


def _verify_spectrum_instance(job: tuple[str, tuple[int, ...], float, float]) -> dict:
    out, _ = _spectrum_report(*job, verify=True, fallback=False)
    return {k: out[k] for k in ("family", "params", "n", "match",
                                "max_deviation")}


def _verify_det_instance(job: tuple[str, tuple[int, ...]]) -> dict:
    out = _det_report(*job)
    return {k: out[k] for k in ("family", "params", "n", "det", "inertia",
                                "match")}


def _lemma_jobs(max_index: int, max_b: int) -> list[tuple[int, dict]]:
    jobs: list[tuple[int, dict]] = []
    jobs += [(1, {"s": s}) for s in range(1, max_index + 1)]
    jobs += [(2, {"s": s}) for s in range(2, max_index + 1)]
    jobs += [(3, {"d": d}) for d in range(2, max_index + 1)]
    jobs += [(4, {"d": d}) for d in range(2, max_index + 1)]
    jobs += [(5, {"d": d}) for d in range(3, max_index + 1)]
    jobs += [(6, {"a": a, "b": b}) for a in range(2, max_index + 1)
             for b in range(0, max_b + 1)]
    return jobs


def cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    workers = _worker_count(args)
    results: list[dict] = []
    fam = FAMILIES.get(target)

    if target == "lemma-identities":
        for sel, kw in _lemma_jobs(args.max, args.max_b):
            lhs, rhs = lemma_identity(sel, **kw)
            results.append({"identity": sel, **kw, "lhs": lhs, "rhs": rhs,
                            "match": lhs == rhs})
    elif fam is None:
        print(f"error: unknown verify target {target!r}", file=sys.stderr)
        return EXIT_USAGE
    elif fam.det is not None:
        jobs = [(target, p)
                for p in _grid_instances(target, args, EXACT_ORDER_CAP)]
        results = _run_jobs(_verify_det_instance, jobs, workers)
    elif fam.closed is None:
        print(f"error: {target} has no closed-form spectrum to verify",
              file=sys.stderr)
        return EXIT_USAGE
    else:
        jobs = [(target, p, args.tol, args.match_tol)
                for p in _grid_instances(target, args, MAX_ORDER)]
        results = _run_jobs(_verify_spectrum_instance, jobs, workers)

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


def _run_jobs(fn: Callable, jobs: list, workers: int) -> list[dict]:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


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
    try:
        p = SrgParams(args.n, args.k, args.lam, args.mu)
    except SrgParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
            "theta": _fmt(float(data.theta)), "tau": _fmt(float(data.tau)),
            "m_theta": data.m_theta, "m_tau": data.m_tau,
        }
        out["distance"] = {
            "rho": _fmt(float(data.rho_d)),
            "theta": _fmt(float(data.theta_d)), "tau": _fmt(float(data.tau_d)),
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
    comp = complement(g)
    z = zero_forcing_number(comp)
    bound = zf_eigenvalue_bound(g)
    qd = distinct_eigenvalue_count(distance_matrix(g))
    ceil_bound = math.ceil(bound)
    out = {"family": args.family, "params": list(args.params), "n": g.n,
           "zero_forcing_complement": z,
           "bound": _fmt(float(bound)),
           "bound_exact": f"{bound.numerator}/{bound.denominator}"
           if isinstance(bound, Fraction) else str(bound),
           "bound_ceiling": ceil_bound,
           "distinct_distance_eigenvalues": qd,
           "holds": qd >= ceil_bound,
           "tight": qd == ceil_bound}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if out["holds"] else EXIT_FAIL


def cmd_matrix(args: argparse.Namespace) -> int:
    g = _family(args.family, args.params).gen(*args.params)
    sys.stdout.write(format_matrix(distance_matrix(g)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_family_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("family", choices=sorted(FAMILIES),
                    help="graph family name")
    sp.add_argument("params", nargs="*", type=int,
                    help="family parameters, e.g. `hamming 2 4`")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distspec",
        description="distance spectra of graphs: exact formulas, "
                    "numeric checks, and bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="distance spectrum of one graph")
    _add_family_arg(sp)
    sp.add_argument("--verify", action="store_true",
                    help="compute both closed form and numeric, compare")
    sp.add_argument("--numeric", action="store_true",
                    help="force the numeric route even when a formula exists")
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="Jacobi convergence tolerance")
    sp.add_argument("--cluster-tol", type=float, default=None,
                    help="eigenvalue clustering tolerance")
    sp.add_argument("--match-tol", type=float, default=1e-8,
                    help="tolerance for closed-form/numeric comparison")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("verify",
                        help="sweep a family grid against the numeric solver")
    sp.add_argument("target",
                    help="family name, or `lemma-identities`")
    for pname in sorted({p for f in FAMILIES.values() for p in f.params}):
        sp.add_argument(f"--{pname}", dest=f"range_{pname}", default=None,
                        metavar="A..B", help=f"range for parameter {pname}")
    sp.add_argument("--max", type=int, default=20,
                    help="upper index bound for lemma-identities")
    sp.add_argument("--max-b", type=int, default=10,
                    help="upper bound for the shift parameter b")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--match-tol", type=float, default=1e-8)
    sp.add_argument("--workers", type=int, default=None,
                    help="parallel workers across instances "
                         "(default: DISTSPEC_WORKERS or 1)")
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
