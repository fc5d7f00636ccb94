"""Command line interface.

Subcommands:

  spectrum      distance spectrum of one graph (closed form and/or numeric)
  verify        sweep a family grid, closed form against the numeric solver
  srg           analyse a strongly regular parameter set
  verify-trees  distinct-eigenvalue bounds over all trees of small order
  zf-bound      zero-forcing lower bound on distinct distance eigenvalues
  matrix        print the distance matrix
  det           exact determinant and inertia of the distance matrix

Exit codes: 0 success (and every check passed), 1 a verification failed,
2 bad usage or invalid parameters.  Output is deterministic; floats are
printed with 12 significant digits.  The environment variable
DISTSPEC_WORKERS overrides the worker count for `verify` sweeps;
parallelism is across instances only, never inside one computation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bounds import (check_tree_bounds, enumerate_trees, zero_forcing_number,
                     zf_eigenvalue_bound)
from .closedforms import (ClosedFormSpectrum, barbell_determinant,
                          barbell_inertia, cocktail_party_spectrum,
                          complete_spectrum, cycle_spectrum,
                          dodecahedron_spectrum, doob_spectrum,
                          double_odd_spectrum, halved_cube_spectrum,
                          hamming_spectrum, icosahedron_spectrum,
                          johnson_spectrum, kneser_spectrum, lemma_identity,
                          lollipop_determinant, lollipop_inertia,
                          shrikhande_power_spectrum)
from .distances import DisconnectedError, distance_matrix, format_matrix
from .exact import det_exact, distinct_eigenvalue_count, inertia_exact
from .graphs import (Graph, GraphError, cocktail_party, complement, complete,
                     cycle, dodecahedron, double_odd, doob,
                     generalized_barbell, halved_cube, hamming, hypercube,
                     hypercube_with_leaf, icosahedron, johnson, kneser,
                     lollipop, odd_graph, path, petersen, shrikhande)
from .jacobi import sym_eigenvalues
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
    """A named graph family exposed on the command line."""

    params: tuple[str, ...]
    gen: Callable[..., Graph]
    closed: Optional[Callable[..., ClosedFormSpectrum]] = None


FAMILIES: dict[str, Family] = {
    "complete": Family(("n",), complete, complete_spectrum),
    "path": Family(("n",), path),
    "cycle": Family(("n",), cycle, cycle_spectrum),
    "hypercube": Family(("d",), hypercube, lambda d: hamming_spectrum(d, 2)),
    "hamming": Family(("d", "n"), hamming, hamming_spectrum),
    "shrikhande": Family((), shrikhande, lambda: shrikhande_power_spectrum(1)),
    "doob": Family(("m", "d"), doob, doob_spectrum),
    "johnson": Family(("n", "r"), johnson, johnson_spectrum),
    "kneser": Family(("n", "r"), kneser, kneser_spectrum),
    "odd": Family(("r",), odd_graph, lambda r: kneser_spectrum(2 * r + 1, r)),
    "double-odd": Family(("r",), double_odd, double_odd_spectrum),
    "halved-cube": Family(("d",), halved_cube, halved_cube_spectrum),
    "cocktail-party": Family(("m",), cocktail_party, cocktail_party_spectrum),
    "petersen": Family((), petersen, lambda: kneser_spectrum(5, 2)),
    "icosahedron": Family((), icosahedron, icosahedron_spectrum),
    "dodecahedron": Family((), dodecahedron, dodecahedron_spectrum),
    "lollipop": Family(("k", "l"), lollipop),
    "barbell": Family(("k", "m", "l"), generalized_barbell),
    "hypercube-leaf": Family(("d",), hypercube_with_leaf),
}

# Families whose distance matrix determinant and inertia have closed formulas.
DET_FORMULAS: dict[str, tuple[Callable[..., int], Callable[..., tuple]]] = {
    "lollipop": (lollipop_determinant, lollipop_inertia),
    "barbell": (barbell_determinant, barbell_inertia),
}


def _build(name: str, params: Sequence[int]) -> Graph:
    fam = FAMILIES[name]
    if len(params) != len(fam.params):
        want = " ".join(fam.params) if fam.params else "(no parameters)"
        raise GraphError(f"{name} takes {len(fam.params)} parameter(s): {want}")
    return fam.gen(*params)


def _numeric_spectrum(g: Graph, tol: float, cluster_tol: Optional[float]) -> Spectrum:
    dm = distance_matrix(g)
    vals = sym_eigenvalues(dm, tol=tol)
    return cluster_to_spectrum(vals, cluster_tol=cluster_tol)


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
# spectrum


def cmd_spectrum(args: argparse.Namespace) -> int:
    name = args.family
    fam = FAMILIES[name]
    g = _build(name, args.params)
    out: dict = {"family": name, "params": list(args.params), "n": g.n}
    closed_spec: Optional[Spectrum] = None
    note = None
    if fam.closed is not None and not args.numeric:
        try:
            cf = fam.closed(*args.params)
            closed_spec = cf.spectrum
            out["closed_form"] = closed_spec.to_json_dict()
            out["closed_form"]["formula"] = cf.formula
        except ValueError as exc:
            note = f"closed form unavailable here ({exc}); using numeric solver"
    elif fam.closed is None:
        note = "no closed form for this family; using numeric solver"

    need_numeric = args.verify or args.numeric or closed_spec is None
    if need_numeric:
        num = _numeric_spectrum(g, args.tol, args.cluster_tol)
        out["numeric"] = num.to_json_dict()
        if closed_spec is not None:
            ok = spectra_match(closed_spec, num, tol=args.match_tol)
            out["match"] = ok
            out["max_deviation"] = _fmt(max_deviation(closed_spec, num))
    if note:
        out["note"] = note

    if args.format == "text":
        spec = closed_spec
        if spec is None:
            spec = Spectrum([(e["value"], e["mult"])
                             for e in out["numeric"]["eigs"]])
        print(f"{name} {' '.join(map(str, args.params))}  n={g.n}")
        for value, mult in spec.entries:
            exact = exact_string(value)
            tail = f"  [{exact}]" if exact else ""
            print(f"  {float(value):.12g} ^ {mult}{tail}")
        if "match" in out:
            print(f"  match={str(out['match']).lower()}"
                  f"  max_deviation={out['max_deviation']:.3g}")
        if note:
            print(f"  note: {note}")
    else:
        print(json.dumps(out, indent=2, sort_keys=True))
    if out.get("match") is False:
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

# Default parameter grids for `verify <family>` with no range flags.  These
# match the ranges exercised by the acceptance suite.
DEFAULT_GRIDS: dict[str, dict[str, range]] = {
    "hamming": {"d": range(1, 5), "n": range(2, 5)},
    "hypercube": {"d": range(1, 9)},
    "doob": {"m": range(1, 3), "d": range(0, 2)},
    "johnson": {"n": range(2, 10), "r": range(1, 9)},
    "kneser": {"n": range(3, 10), "r": range(1, 5)},
    "odd": {"r": range(2, 5)},
    "double-odd": {"r": range(2, 4)},
    "halved-cube": {"d": range(4, 10)},
    "cocktail-party": {"m": range(2, 9)},
    "cycle": {"n": range(3, 41)},
    "complete": {"n": range(2, 26)},
    "shrikhande": {},
    "petersen": {},
    "icosahedron": {},
    "dodecahedron": {},
    "barbell": {"k": range(2, 7), "m": range(2, 7), "l": range(0, 7)},
    "lollipop": {"k": range(2, 9), "l": range(0, 9)},
}

_VERIFY_MAX_ORDER = 1024


def _grid_instances(name: str, args: argparse.Namespace) -> list[tuple[int, ...]]:
    fam = FAMILIES[name]
    grid = dict(DEFAULT_GRIDS.get(name, {}))
    for pname in fam.params:
        flag = getattr(args, f"range_{pname}", None)
        if flag is not None:
            grid[pname] = _parse_range(flag)
    for pname in fam.params:
        if pname not in grid:
            raise ValueError(f"no default range for parameter {pname!r} of "
                             f"{name}; pass --{pname} a..b")
    axes = [grid[p] for p in fam.params]
    out: list[tuple[int, ...]] = []

    def rec(i: int, acc: tuple[int, ...]) -> None:
        if i == len(axes):
            out.append(acc)
            return
        for v in axes[i]:
            rec(i + 1, acc + (v,))

    rec(0, ())
    return [p for p in out if _instance_admissible(name, p)]


def _instance_admissible(name: str, params: tuple[int, ...]) -> bool:
    """Drop grid points that fall outside a family's domain."""
    if name == "johnson":
        n, r = params
        return 1 <= r <= n - 1
    if name == "kneser":
        n, r = params
        return 1 <= r and n > 2 * r
    if name == "doob":
        m, d = params
        return 4 ** (2 * m + d) <= _VERIFY_MAX_ORDER
    if name == "hamming":
        d, n = params
        return n ** d <= _VERIFY_MAX_ORDER
    if name == "halved-cube":
        return 2 ** (params[0] - 1) <= _VERIFY_MAX_ORDER
    return True


def _verify_spectrum_instance(job: tuple[str, tuple[int, ...], float, float]) -> dict:
    name, params, tol, match_tol = job
    g = _build(name, params)
    cf = FAMILIES[name].closed(*params)
    num = _numeric_spectrum(g, tol, None)
    ok = spectra_match(cf.spectrum, num, tol=match_tol)
    return {"family": name, "params": list(params), "n": g.n,
            "match": ok, "max_deviation": _fmt(max_deviation(cf.spectrum, num))}


def _verify_det_instance(job: tuple[str, tuple[int, ...]]) -> dict:
    name, params = job
    det_f, inertia_f = DET_FORMULAS[name]
    g = _build(name, params)
    dm = distance_matrix(g)
    det = det_exact(dm)
    inertia = inertia_exact(dm)
    det_ok = det == det_f(*params)
    in_ok = inertia == inertia_f(*params)
    return {"family": name, "params": list(params), "n": g.n,
            "det": det, "inertia": list(inertia.as_tuple()),
            "match": det_ok and in_ok}


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

    if target == "lemma-identities":
        for sel, kw in _lemma_jobs(args.max, args.max_b):
            lhs, rhs = lemma_identity(sel, **kw)
            results.append({"identity": sel, **kw, "lhs": lhs, "rhs": rhs,
                            "match": lhs == rhs})
    elif target in DET_FORMULAS:
        jobs = [(target, p) for p in _grid_instances(target, args)]
        results = _run_jobs(_verify_det_instance, jobs, workers)
    elif target in FAMILIES:
        if FAMILIES[target].closed is None:
            print(f"error: {target} has no closed-form spectrum to verify",
                  file=sys.stderr)
            return EXIT_USAGE
        jobs = [(target, p, args.tol, args.match_tol)
                for p in _grid_instances(target, args)]
        results = _run_jobs(_verify_spectrum_instance, jobs, workers)
    else:
        print(f"error: unknown verify target {target!r}", file=sys.stderr)
        return EXIT_USAGE

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
# zf-bound


def cmd_zf_bound(args: argparse.Namespace) -> int:
    g = _build(args.family, args.params)
    comp = complement(g)
    z = zero_forcing_number(comp)
    bound = zf_eigenvalue_bound(g)
    qd = distinct_eigenvalue_count(distance_matrix(g))
    import math
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


# ---------------------------------------------------------------------------
# matrix / det


def cmd_matrix(args: argparse.Namespace) -> int:
    g = _build(args.family, args.params)
    sys.stdout.write(format_matrix(distance_matrix(g)))
    return EXIT_OK


def cmd_det(args: argparse.Namespace) -> int:
    g = _build(args.family, args.params)
    dm = distance_matrix(g)
    det = det_exact(dm)
    inertia = inertia_exact(dm)
    out: dict = {"family": args.family, "params": list(args.params),
                 "n": g.n, "det": det,
                 "inertia": list(inertia.as_tuple())}
    ok = True
    if args.family in DET_FORMULAS:
        det_f, inertia_f = DET_FORMULAS[args.family]
        formula_inertia = inertia_f(*args.params)
        out["formula_det"] = det_f(*args.params)
        out["formula_inertia"] = list(formula_inertia.as_tuple())
        ok = out["formula_det"] == det and formula_inertia == inertia
        out["match"] = ok
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_FAIL


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
