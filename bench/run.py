"""distspec benchmark: four single-process, closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check [--seed N]

Run from the repository root.  The package is imported from `src/` of the
same checkout; nothing needs installing.  Each run starts the workload in a
fresh process (`worker.py`) with one client that sends its next request
when the previous one is done.  The process runs whole passes of the
workload until the next pass would end after --seconds; a pass always
completes.  With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-module metrics of
one traced pass instead, and the spans go to bench/out/.

Set-up time is measured from process start to the first timed request, in
SETUP_SAMPLES separate processes, and reported as their median.  Every time
is scaled to a reference host speed (see hostspeed.py); the wall-clock
values are printed on a line of their own.

--self-check damages one answer per workload and checks that it is counted
as failed, runs two traced passes with the same seed and checks that the
work counts repeat exactly, and checks the metric names against
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import COUNT_KEYS, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("family-spectra", "random-spectra", "exact-invariants", "cli-mixed")
END_TO_END = (("throughput_rps", "req/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 5
SETUP_PROBE_S = 0.02
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, float, str]:
    """Run the worker once; return (wall and reference seconds until
    READY, rest of stdout)."""
    speed = HostSpeed()
    speed.sample(SETUP_PROBE_S)
    scale = speed.scale()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    return setup, setup * scale, rest


def measure(workload: str, seed: int, seconds: float, trace: int,
            extra: tuple[str, ...] = ()) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), *extra]
    runs = [spawn(args + ["--mode", "setup"], deadline)
            for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    runs.append(spawn(args, deadline))
    lines = runs[-1][2].strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = statistics.median(ref for _, ref, _ in runs)
    result["wall"]["setup_s"] = statistics.median(wall for wall, _, _ in runs)
    result["setup_samples"] = len(runs)
    return result


def emit(workload: str, result: dict, trace: int) -> None:
    env = result["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: {attempted} requests in {result['passes']} pass(es) "
          f"of {result['pass_size']}, {result['timed_s']:.3f} s timed")
    if trace:
        metrics = result["layers"]
        for line in result["report"]:
            print(line)
        print(f"tracing overhead {metrics['trace.overhead_ratio']['value']:+.2%} "
              f"(traced vs untraced re-run of part of the pass); "
              f"traced throughput {result['throughput_rps']:.4g} req/s; "
              f"spans in {result['trace_file']}")
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"failure_ratio = {failed / attempted:.6g} 1 "
              f"({failed} of {attempted})")
        raw = result["wall"]
        print(f"wall clock, before scaling to the reference host speed: "
              f"throughput {(attempted - failed) / raw['timed_s']:.6g} req/s, "
              f"p50 {raw['latency_p50_s']:.6g} s, "
              f"p{result['tail_pct']:.2f} {raw['latency_tail_s']:.6g} s, "
              f"setup {raw['setup_s']:.6g} s")
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{result['tail_pct']:.2f} of {attempted} samples)"
        elif name == "setup_s":
            note = f"  (median of {result['setup_samples']} processes)"
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    correct = failed == 0 and result["warmup_ok"] and result["repeat_ok"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def self_check(seed: int) -> list[str]:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in END_TO_END]:
        problems.append("end_to_end names differ from BENCHMARK.json")
    if [m["name"] for m in spec["per_layer"]] != [n for n, _ in PER_LAYER]:
        problems.append("per_layer names differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for w in WORKLOADS:
        bad = measure(w, seed, 1, 0, ("--limit", "6", "--corrupt-first"))
        if (bad["attempted"], bad["failed"]) != (6, 1):
            problems.append(f"{w}: damaged answer not counted "
                            f"({bad['failed']} of {bad['attempted']} failed)")
        runs = [measure(w, seed, 1, 1, ("--limit", "6")) for _ in range(2)]
        counts = [{k: r["layers"].get(k, {"value": 0})["value"]
                   for k in COUNT_KEYS} for r in runs]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in COUNT_KEYS
                    if counts[0][k] != counts[1][k]}
            problems.append(f"{w}: work counts differ between runs: {diff}")
        if not all(r["repeat_ok"] and r["failed"] == 0 for r in runs):
            problems.append(f"{w}: traced run failed or did not repeat")
        print(f"self-check {w}: damaged answer counted, counts "
              f"{'repeat' if counts[0] == counts[1] else 'DIFFER'}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "distspec" / "__init__.py").is_file():
        print(f"error: no distspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.self_check:
            problems = self_check(args.seed)
            for p in problems:
                print(f"self-check FAILED: {p}", file=sys.stderr)
            return 1 if problems else 0
        if args.workload is None:
            ap.error("--workload is required")
        emit(args.workload, measure(args.workload, args.seed, args.seconds,
                                    args.trace), args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
