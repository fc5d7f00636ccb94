"""One workload in its own process: set up, warm up, then run whole passes.

`run.py` starts this file; it is not meant to be run by hand.  It prints
READY once set-up is done (the parent times set-up up to that line), then
one JSON line with the measurements.  With --mode setup it stops after
READY.  With --trace 1 it runs exactly one pass with spans on, reports the
per-module metrics, re-runs a few requests with tracing off and on to
measure the tracing overhead, and checks that the work counts of those
requests repeat exactly.
"""

import os

# one process, one thread: fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import distspec  # noqa: E402
from hostspeed import PROBE_SHARE, HostSpeed  # noqa: E402
from spans import COUNT_KEYS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALIBRATION_S = 0.3
CALIBRATION_REPS = 5


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__}


def tail_percentile(pass_size: int) -> float:
    """Highest percentile with at least ten samples of one pass beyond it:
    over one pass, the eleventh largest sample."""
    return max(50.0, 100 * (pass_size - 11) / (pass_size - 1))


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; inf stays inf."""
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0:
        return vals[lo]
    return vals[lo] * (1 - frac) + vals[lo + 1] * frac


def run_request(req, tracer, request_id, speed, corrupt=False):
    """Time one request, probe the host speed, then check the answer.

    Returns (wall seconds, reference seconds, ok, deviation)."""
    if tracer:
        tracer.begin(request_id)
    t0 = time.perf_counter()
    try:
        ans = req.run()
    except Exception:
        traceback.print_exc()
        ans = None
    finally:
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end()
    speed.sample(PROBE_SHARE * dt)
    ref = dt * speed.scale()
    if ans is None:
        return dt, ref, False, 0.0
    if corrupt:
        ans = req.corrupt(ans)
    try:
        ok, dev = req.check(ans)
    except Exception:
        traceback.print_exc()
        return dt, ref, False, 0.0
    if not ok:
        print(f"wrong answer: {req.label}", file=sys.stderr)
    return dt, ref, bool(ok), dev


def calibrate(tracer, reqs, lat, speed) -> tuple[float, bool]:
    """Tracing overhead on a slice of the pass, and whether the work counts
    of the re-run requests equal those of the pass."""
    order = sorted(range(len(reqs)), key=lambda i: lat[i])
    chosen, total = [], 0.0
    for i in order[len(order) // 2:]:
        chosen.append(i)
        total += lat[i]
        if total >= CALIBRATION_S:
            break

    def timed(rep, traced):
        t0 = time.perf_counter()
        for i in chosen:
            if traced:
                tracer.begin(("repeat", rep, i))
            reqs[i].run()
            if traced:
                tracer.end()
        dt = time.perf_counter() - t0
        speed.sample(PROBE_SHARE * dt)
        return dt * speed.scale()

    off, on = [], []
    for rep in range(CALIBRATION_REPS):
        tracer.uninstall()
        off.append(timed(rep, False))
        tracer.install()
        on.append(timed(rep, True))
    repeat_ok = True
    for i in chosen:
        first = tracer.counts({(0, i)})
        for rep in range(CALIBRATION_REPS):
            again = tracer.counts({("repeat", rep, i)})
            if any(again[k] != first[k] for k in COUNT_KEYS):
                print(f"work counts differ on a re-run of {reqs[i].label}",
                      file=sys.stderr)
                repeat_ok = False
    return min(on) / min(off) - 1, repeat_ok


def layer_metrics(tracer, max_dev) -> dict:
    values = {**tracer.counts(), **tracer.busy()}
    values["jacobi.max_abs_error"] = max_dev
    values["graphs.useful_ratio"] = tracer.useful_ratio()
    values["trace.spans"] = len(tracer.spans)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def report_lines(wl, reqs, lat, tracer) -> list[str]:
    """The solver times and CLI timing the ROADMAP baseline table lists."""
    lines = []
    for i, req in enumerate(reqs):
        if wl.name == "family-spectra" and req.label.endswith(
                (" n=64", " n=126", " n=256")):
            solver = tracer.busy({(0, i)})["jacobi.busy_s"]
            lines.append(f"solver {req.label}: {solver:.3f} s")
        if wl.name == "cli-mixed" and req.label == "spectrum hamming 6 6":
            lines.append(f"cli `{req.label}`: {lat[i]:.3f} s")
    return sorted(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first LIMIT requests of one pass")
    ap.add_argument("--corrupt-first", action="store_true",
                    help="damage the first answer before it is checked")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    reqs = wl.pass_requests(0)
    speed = HostSpeed()
    warm_ok = all(run_request(r, None, None, speed)[2] for r in wl.warmup())
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer(distspec) if args.trace else None
    if tracer:
        tracer.install()
    one_pass = bool(args.trace or args.limit)
    if args.limit:
        reqs = reqs[:args.limit]
    wall, lat, oks, max_dev = [], [], [], 0.0
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        for i, req in enumerate(reqs):
            dt, ref, ok, dev = run_request(req, tracer, (k, i), speed,
                                           args.corrupt_first and k == 0 and i == 0)
            wall.append(dt)
            lat.append(ref)
            oks.append(ok)
            if math.isfinite(dev):
                max_dev = max(max_dev, dev)
        now = time.perf_counter()
        k += 1
        if one_pass or (now - start) + (now - pass_start) > args.seconds:
            break
        reqs = wl.pass_requests(k)

    attempted, failed = len(lat), oks.count(False)
    tail_pct = tail_percentile(wl.pass_size)
    timed = sum(lat)
    tail = percentile([t if ok else math.inf for t, ok in zip(lat, oks)], tail_pct)
    out = {
        "warmup_ok": warm_ok, "attempted": attempted, "failed": failed,
        "passes": k, "pass_size": wl.pass_size, "timed_s": timed,
        "wall": {"timed_s": sum(wall), "latency_p50_s": statistics.median(wall),
                 "latency_tail_s": percentile(wall, tail_pct)},
        "throughput_rps": (attempted - failed) / timed,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail if math.isfinite(tail) else timed,
        "tail_pct": tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(), "repeat_ok": True, "report": [],
    }
    if tracer:
        out["report"] = report_lines(wl, reqs, wall, tracer)
        # taken first: the calibration re-runs add spans of their own
        layers = layer_metrics(tracer, max_dev)
        overhead, out["repeat_ok"] = calibrate(tracer, reqs, wall, speed)
        layers["trace.overhead_ratio"]["value"] = overhead
        tracer.uninstall()
        out["layers"] = layers
        trace_dir = ROOT / "bench" / "out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "env": out["env"],
            "metrics": layers, "spans": tracer.span_dicts()}))
        out["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
