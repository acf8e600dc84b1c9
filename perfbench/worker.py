"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed S --pass K --work-dir DIR [--trace]

run.py starts one worker per pass, so every lru_cache in cuspidal starts
cold, as it does for a command-line user.  The worker times the workload,
checks every output outside the timed region and prints one JSON object on
its last stdout line.  With --trace the public functions of the cuspidal
modules are wrapped by spans.Tracer for the timed part; the spans and the
per-level size counters are written under --work-dir.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")

WORKLOADS = ("group-sample", "certify-composite", "batch-small")

GROUP_LEVELS = 1000          # levels per group-sample pass
MAX_LEVEL = 10 ** 6          # cuspidal.cli.MAX_LEVEL at the time the benchmark was defined
ORACLE_SIGMA0 = 8            # group-sample levels with sigma0 <= this are checked by snf_oracle
LADDER = (5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12)
BATCH_MAX = 720
REPLAYS = 10


def sample_levels(seed: int, k: int) -> list:
    """The group-sample levels of pass k: uniform on [1, MAX_LEVEL]."""
    rng = random.Random(f"group-sample:{seed}:{k}")
    return [rng.randint(1, MAX_LEVEL) for _ in range(GROUP_LEVELS)]


def group_digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(name):
    with open(os.path.join(REFERENCE, name)) as fh:
        return json.load(fh) if name.endswith(".json") else fh.read()


class LevelClock:
    """Wall time of each outermost per-level call; stamps the level on spans."""

    def __init__(self, tracer):
        self.times = []
        self.tracer = tracer

    def time(self, n, fn, *args):
        if self.tracer:
            self.tracer.level = n
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.times.append((n, perf_counter() - t0))
            if self.tracer:
                self.tracer.level = 0


class Result:
    def __init__(self):
        self.pass_s = 0.0
        self.attempted = 0
        self.failures = {}   # level -> reason
        self.per_layer = {"cli.batch.cache_bytes": 0, "cli.batch.replay_s": 0.0}
        self.replay_s = []
        self.steps = 0

    def fail(self, n, why):
        self.failures.setdefault(n, why)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def run_group(seed, k, clock, res, stop_tracing):
    from cuspidal.structure import compute_group, group_to_json
    levels = sample_levels(seed, k)
    outputs = []
    t0 = perf_counter()
    for n in levels:
        try:
            outputs.append(clock.time(n, lambda: group_to_json(compute_group(n))))
        except Exception:
            outputs.append(traceback.format_exc(limit=3))
    res.pass_s = perf_counter() - t0
    stop_tracing()

    from cuspidal.intarith import divisors
    from cuspidal.structure import snf_oracle
    reference = load_reference("group-seed0.json")["digests"]
    for n, out in zip(levels, outputs):
        res.attempted += 1
        if isinstance(out, str):
            res.fail(n, out)
            continue
        want = reference.get(str(n))
        if want is not None and group_digest(out) != want:
            res.fail(n, "group_to_json differs from the reference digest")
            continue
        invs = [int(x) for x in out["invariant_factors"]]
        if math.prod(invs) != int(out["group_order"]):
            res.fail(n, "group_order is not the product of the invariant factors")
            continue
        if len(divisors(n)) <= ORACLE_SIGMA0:
            try:
                oracle = list(snf_oracle(n).invariant_factors)
            except Exception:
                res.fail(n, traceback.format_exc(limit=3))
                continue
            if oracle != invs:
                res.fail(n, f"invariant factors {invs} but snf_oracle gives {oracle}")


def run_certify(clock, res, stop_tracing):
    from cuspidal.structure import verify_certificates
    reports = []
    t0 = perf_counter()
    for n in LADDER:
        try:
            reports.append(clock.time(n, verify_certificates, n))
        except Exception:
            reports.append(traceback.format_exc(limit=3))
    res.pass_s = perf_counter() - t0
    stop_tracing()

    reference = load_reference("certify.json")
    for n, rep in zip(LADDER, reports):
        res.attempted += 1
        if isinstance(rep, str):
            res.fail(n, rep)
            continue
        res.steps += len(rep.steps)
        criteria = Counter(s["criterion"] for s in rep.steps)
        if not rep.passed:
            res.fail(n, f"certificate failures: {rep.failures()[:3]}")
        elif criteria != Counter(reference[str(n)]):
            res.fail(n, f"criterion counts {dict(criteria)} differ from the reference")


def _check_batch(path, want, res, label):
    """Every record must match the reference line; a missing file fails all."""
    try:
        with open(path) as fh:
            got = fh.read()
    except FileNotFoundError:
        got = ""
    if got == want:
        return
    got_lines = got.splitlines()
    bad = False
    for n, line in enumerate(want.splitlines(), start=1):
        if n > len(got_lines) or got_lines[n - 1] != line:
            res.fail(n, f"{label}: record differs from the reference")
            bad = True
    if not bad:
        res.fail(0, f"{label}: JSONL is not byte-identical to the reference")


def _batch(cli, argv, res, label):
    try:
        rc = _quiet(cli.main, argv)
    except Exception:
        res.fail(0, f"{label}: {traceback.format_exc(limit=3)}")
        return
    if rc != 0:
        res.fail(0, f"{label}: batch exited with {rc}")


def run_batch(work_dir, clock, res, stop_tracing):
    import cuspidal.cli as cli
    want = load_reference(f"batch-{BATCH_MAX}.jsonl")
    path = os.path.join(work_dir, f"batch-{os.getpid()}.jsonl")
    argv = ["batch", "--max", str(BATCH_MAX), "--out", path]
    res.attempted = BATCH_MAX
    inner = cli.crosscheck
    cli.crosscheck = lambda n: clock.time(n, inner, n)
    try:
        t0 = perf_counter()
        _batch(cli, argv + ["--force"], res, "fresh")
        res.pass_s = perf_counter() - t0
    finally:
        cli.crosscheck = inner
        stop_tracing()
    try:
        _check_batch(path, want, res, "fresh")
        if os.path.exists(path):
            res.per_layer["cli.batch.cache_bytes"] = os.path.getsize(path)
        for _ in range(REPLAYS):
            t0 = perf_counter()
            _batch(cli, argv, res, "replay")
            res.replay_s.append(perf_counter() - t0)
            _check_batch(path, want, res, "replay")
    finally:
        if os.path.exists(path):
            os.remove(path)
    res.per_layer["cli.batch.replay_s"] = sorted(res.replay_s)[len(res.replay_s) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import cuspidal.cli
    import_s = perf_counter() - t0
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(cuspidal.cli.__file__).startswith(src):
        print(f"error: cuspidal was imported from {cuspidal.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    summary = {}

    def stop_tracing():
        if tracer is not None and tracer.originals:
            tracer.uninstall()
            summary.update(tracer.summary())

    clock = LevelClock(tracer)
    res = Result()
    if args.workload == "group-sample":
        run_group(args.seed, args.pass_index, clock, res, stop_tracing)
    elif args.workload == "certify-composite":
        run_certify(clock, res, stop_tracing)
    else:
        run_batch(args.work_dir, clock, res, stop_tracing)

    out = {
        "import_s": import_s,
        "pass_s": res.pass_s,
        "level_times": clock.times,
        "attempted": res.attempted,
        "failed": min(len(res.failures), res.attempted),
        "failures": [f"N={n}: {why}" for n, why in sorted(res.failures.items())[:20]],
        "replay_s": res.replay_s,
        "certificate_steps": res.steps,
    }
    if tracer is not None:
        stem = os.path.join(args.work_dir, f"{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + ".spans.csv.gz")
        levels = tracer.level_table(clock.times)
        with open(stem + ".levels.json", "w") as fh:
            json.dump(list(levels.values()), fh, indent=1, sort_keys=True)
        out["per_layer"] = {**summary["metrics"], **res.per_layer}
        out["functions"] = summary["functions"]
        out["spans"] = summary["spans"]
        out["slowest"] = sorted(levels.values(), key=lambda row: -row["wall_s"])[:5]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
