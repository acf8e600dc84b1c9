"""Benchmark of the cuspidal package: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Every
pass runs in a fresh worker process (perfbench/worker.py), so the package's
lru_caches start cold as they do for a command-line user.  Passes repeat
until --seconds have elapsed.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs each pass untraced and then traced and
reports the per-layer metrics plus the tracing overhead.  The last stdout
line is the JSON result; a copy with the environment is written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

TIME_LIMIT_S = 170    # a run must end within 180 s; start no pass that would overrun


class BenchError(Exception):
    pass


def run_child(argv, timeout):
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:3]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[:3]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def run_passes(args, work_dir, start):
    """Worker results until --seconds have elapsed; pairs (untraced, traced)
    when tracing."""
    deadline = start + TIME_LIMIT_S
    modes = (False, True) if args.trace else (False,)
    passes = []
    t0 = perf_counter()
    longest = 0.0
    k = 0
    while not passes or (perf_counter() - t0 < args.seconds
                         and perf_counter() + longest < deadline):
        t_pass = perf_counter()
        group = []
        for traced in modes:
            argv = [WORKER, "--workload", args.workload, "--seed", str(args.seed),
                    "--pass", str(k), "--work-dir", work_dir]
            group.append(json.loads(run_child(argv + ["--trace"] * traced,
                                              deadline - perf_counter())))
        passes.append(group)
        longest = max(longest, perf_counter() - t_pass)
        k += 1
    return passes


def quantile_ms(times, q):
    """Nearest-rank percentile: the 90th of six levels is the slowest level,
    not a blend of the two slowest."""
    return 1e3 * sorted(times)[math.ceil(q / 100 * len(times)) - 1]


def end_to_end(passes):
    runs = [g[0] for g in passes]
    by_level = {}
    for r in runs:
        for n, t in r["level_times"]:
            by_level.setdefault(n, []).append(t)
    # certify-composite and batch-small repeat their levels in every pass.
    # Each level counts once, at its median over the passes, so the
    # percentiles do not depend on how many passes fitted in the run.
    level_medians = [statistics.median(ts) for ts in by_level.values()]
    times = [t for ts in by_level.values() for t in ts]
    return {
        "setup_s": statistics.median(r["import_s"] for r in runs),
        "levels_per_s": len(times) / sum(times),
        "level_p50_ms": 1e3 * statistics.median(level_medians),
        "level_p90_ms": quantile_ms(level_medians, 90),
        "pass_s": statistics.median(r["pass_s"] for r in runs),
    }


def per_layer(passes):
    traced = [g[1] for g in passes]
    metrics = {name: statistics.median(r["per_layer"][name] for r in traced)
               for name in traced[0]["per_layer"]}
    metrics["trace.overhead_s"] = statistics.median(
        t["pass_s"] - u["pass_s"] for u, t in passes)
    return metrics


def workload_view(workload, passes):
    """Figures named after what each workload runs, from its untraced passes."""
    runs = [g[0] for g in passes]
    pass_s = statistics.median(r["pass_s"] for r in runs)
    if workload == "certify-composite":
        steps = sum(r["certificate_steps"] for r in runs)
        return {"certify_s": (pass_s, "s"),
                "certify_steps_per_s": (steps / sum(r["pass_s"] for r in runs), "1/s")}
    if workload == "batch-small":
        replays = [t for r in runs for t in r["replay_s"]]
        return {"batch_s": (pass_s, "s"),
                "batch_replay_s": (statistics.median(replays), "s")}
    return {}


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "cuspidal"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    def git_commit():
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return None
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() or None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {"python": platform.python_version(), "sympy": sympy,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "seed": seed, "commit": git_commit(),
            "source_sha256": source_digest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "cuspidal", "__init__.py")):
        print(f"error: no package source at {os.path.join(SRC, 'cuspidal')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    work_dir = os.path.join(OUT_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)

    try:
        passes = run_passes(args, work_dir, start)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    runs = [r for g in passes for r in g]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = environment(args.seed)
    report = {"workload": args.workload, "trace": args.trace, "passes": len(passes),
              "levels_timed": sum(len(g[0]["level_times"]) for g in passes),
              "ops_failed_frac": failed / attempted, "env": env,
              "failures": [f for r in runs for f in r["failures"]][:50]}
    print(f"cuspidal benchmark: {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{report['passes']} passes, {report['levels_timed']} timed levels")
    print("env " + json.dumps(env, sort_keys=True))
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    for name, (value, unit) in workload_view(args.workload, passes).items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':<40} {report['ops_failed_frac']:>14.6g} "
          f"({failed} of {attempted})")
    if args.trace:
        report["traced_functions"] = passes[-1][1]["functions"]
        report["slowest_levels"] = passes[-1][1]["slowest"]
        print(f"  {passes[-1][1]['spans']} spans; slowest levels of the last traced pass:")
        for row in report["slowest_levels"]:
            print("   ", json.dumps(row, sort_keys=True))
    for f in report["failures"]:
        print("  FAIL", f)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    report["result"] = result
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
