"""Command-line interface.

Verbs: cusps, order, eta, group, verify, batch.  Exit codes: 0 success,
1 usage/parse error or a file that cannot be read or written (an OSError,
or a batch cache line that is not a record with an integer "N" and a
boolean "pass"), 2 verification failure (a failed check, or an
ArithmeticError from an identity that does not hold).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .cusps import enumerate_cusps, width
from .divisors import CuspDivisor, divisor_to_json, format_terms, from_dict
from .etalinalg import eta_qexpansion, format_qexpansion
from .intarith import divisors
from .orderengine import eta_certificate, profile, profile_to_json
from .structure import compute_group, crosscheck, group_to_json

MAX_LEVEL = 10 ** 6
MAX_QEXP = 1000  # eta --qexp costs about K^2 series steps
BATCH_SLICE_PER_JOB = 64  # batch --jobs submits at most this many levels per job at once
BATCH_CHUNK = 16  # levels per pool task, so a task's round trip is paid once per run

# order and eta format their output in full before printing it; the only
# ValueError there is str() of an integer past Python's digit limit
_TOO_LARGE = "the divisor's numbers are too large to print"

_TERM = re.compile(r"([+-]?\d+)\*\((\d+)\)", re.ASCII)


def _is_int(x) -> bool:
    """An integer parsed from JSON; bool is a subclass of int, so true and
    false are ruled out by hand."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_loads(text: str, parse_int=int):
    """json.loads, with nesting too deep for the decoder as a ValueError."""
    try:
        return json.loads(text, parse_int=parse_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _read_int(digits: str) -> int:
    """int(digits), with a number past Python's digit limit named as the
    divisor's, not as an interpreter setting."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError("the divisor's numbers are too large to read") from None


def parse_divisor_spec(text: str, n: int) -> CuspDivisor:
    """Parse "c*(d)" terms joined by commas or +/-, or the JSON object form
    {"N": ..., "coeffs": {"d": c, ...}}."""
    text = text.strip()
    if text.startswith("{"):
        obj = _json_loads(text, _read_int)
        if not (isinstance(obj, dict) and isinstance(obj.get("coeffs"), dict)
                and all(_is_int(c) for c in obj["coeffs"].values())):
            raise ValueError('a JSON divisor needs "coeffs": {"d": c, ...} with integer c')
        level = obj.get("N", n)
        if not _is_int(level):
            raise ValueError(f'a JSON divisor\'s "N" must be an integer, not {level!r}')
        if level != n:
            raise ValueError(f"divisor level {level} does not match N={n}")
        bad = next((d for d in obj["coeffs"] if not (d.isascii() and d.isdigit())), None)
        if bad is not None:
            raise ValueError(f"a JSON divisor key must be decimal digits 0-9, not {bad!r}")
        terms = [(_read_int(d), c) for d, c in obj["coeffs"].items()]
    else:
        compact = text.replace(",", "+").replace(" ", "")
        terms = []
        pos = 0
        for m in _TERM.finditer(compact):
            gap = compact[pos: m.start()]
            if gap not in ("", "+"):
                raise ValueError(f"parse error at position {pos}: {gap!r}")
            terms.append((_read_int(m.group(2)), _read_int(m.group(1))))
            pos = m.end()
        if pos != len(compact) or not compact:
            raise ValueError(f"parse error at position {pos}: {compact[pos:]!r}")
    # Keys such as "1" and "01" name one divisor: their terms are summed.
    coeffs: dict = {}
    for d, c in terms:
        coeffs[d] = coeffs.get(d, 0) + c
    return from_dict(n, coeffs)


def cmd_cusps(args) -> int:
    cs = enumerate_cusps(args.N)
    if args.json:
        out = [{"cusp": str(c), "x": c.x, "d": c.d, "width": width(c)} for c in cs]
        print(json.dumps({"N": args.N, "count": len(cs), "cusps": out}))
    else:
        print(f"X0({args.N}): {len(cs)} cusps")
        for c in cs:
            print(f"  {c}  width {width(c)}")
    return 0


def cmd_order(args) -> int:
    D = parse_divisor_spec(args.divisor, args.N)
    prof = profile(D)
    # format all, then print: a str() past the digit limit leaves stdout empty
    try:
        if args.json:
            out = json.dumps({"N": args.N, "divisor": divisor_to_json(D.n, D.support),
                              **profile_to_json(prof)})
        else:
            out = "\n".join([f"degree {prof.degree}",
                             f"V    = {list(prof.V)}",
                             f"GCD  = {prof.gcd_value}",
                             f"Vbar = {list(prof.Vbar) if prof.Vbar else None}",
                             f"Pw   = {prof.pw}",
                             f"h    = {prof.h}",
                             f"order = {prof.order}"])
    except ValueError:
        raise ValueError(_TOO_LARGE) from None
    print(out)
    return 0


def cmd_eta(args) -> int:
    if not 1 <= args.qexp <= MAX_QEXP:
        raise ValueError(f"--qexp must be in [1, {MAX_QEXP}]")
    D = parse_divisor_spec(args.divisor, args.N)
    order, r = eta_certificate(D)
    lead, series = eta_qexpansion(args.N, r, args.qexp)
    exps = {d: e for d, e in zip(divisors(args.N), r) if e}
    try:
        if args.json:
            out = json.dumps({"N": args.N, "order": str(order),
                              "exponents": {str(d): e for d, e in exps.items()},
                              "qexp": format_qexpansion(lead, series)})
        else:
            out = "\n".join([f"order = {order}", f"exponents: {exps}",
                             f"q-expansion: {format_qexpansion(lead, series)}"])
    except ValueError:
        raise ValueError(_TOO_LARGE) from None
    print(out)
    return 0


def cmd_group(args) -> int:
    G = compute_group(args.N)
    if args.json:
        print(json.dumps(group_to_json(G)))
        return 0
    if not G.cyclic_factors:
        print(f"C({args.N}) is trivial")
        return 0
    desc = " x ".join(f"Z/{d}" for d in G.invariant_factors)
    print(f"C({args.N}) = {desc}  (order {G.group_order})")
    for lab, terms, o in G.cyclic_factors:
        print(f"  {lab}: order {o}, divisor {format_terms(terms())}")
    return 0


def cmd_verify(args) -> int:
    report = crosscheck(args.N)
    if args.json:
        print(json.dumps(report))
    else:
        status = "pass" if report["pass"] else "FAIL"
        invs = " x ".join(f"Z/{d}" for d in report["invariant_factors"]) or "trivial"
        print(f"N={args.N}: {status}, C = {invs}")
        for m in report["mismatches"]:
            print(f"  mismatch: {m}")
    return 0 if report["pass"] else 2


def _cache_path(out):
    if out:
        return out
    base = os.environ.get("CUSPIDAL_CACHE_DIR", os.path.join(os.path.expanduser("~"),
                                                             ".cache", "cuspidal"))
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, "batch.jsonl")


def cmd_batch(args) -> int:
    if not 1 <= args.max <= MAX_LEVEL:
        raise ValueError(f"--max must be in [1, {MAX_LEVEL}]")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be in [1, {cpus}]")
    path = _cache_path(args.out)
    cached = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rec = _json_loads(line)
                    if not (isinstance(rec, dict) and _is_int(rec.get("N"))
                            and isinstance(rec.get("pass"), bool)):
                        raise ValueError(f"{path} holds a line that is not a batch record")
                    cached[rec["N"]] = rec
    # The temporary file is opened before the first level, so an --out that
    # cannot be written fails at once.  Every record goes back, those above
    # --max too; the rename is atomic.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w")
    except OSError as e:
        raise OSError(f"cannot write {path}: {e.strerror}") from None
    try:
        with fh:
            todo = [n for n in range(1, args.max + 1) if args.force or n not in cached]
            if todo:
                if args.jobs > 1:
                    from concurrent.futures import ProcessPoolExecutor
                    step = BATCH_SLICE_PER_JOB * args.jobs
                    with ProcessPoolExecutor(max_workers=args.jobs) as ex:
                        for i in range(0, len(todo), step):
                            for rec in ex.map(crosscheck, todo[i:i + step],
                                              chunksize=BATCH_CHUNK):
                                cached[rec["N"]] = rec
                else:
                    for n in todo:
                        cached[n] = crosscheck(n)
            for n in sorted(cached):
                fh.write(json.dumps(cached[n], sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    records = [cached[n] for n in range(1, args.max + 1)]
    npass = sum(1 for rec in records if rec["pass"])
    print(f"{npass}/{len(records)} pass (results in {path})")
    if npass != len(records):
        for rec in records:
            if not rec["pass"]:
                print(f"  FAIL N={rec['N']}")
        return 2
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cuspidal",
                                 description="Rational cuspidal divisor class groups of X0(N)")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, func, needs_n=True):
        p = sub.add_parser(name)
        if needs_n:
            p.add_argument("N", type=int)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    add("cusps", cmd_cusps)
    p = add("order", cmd_order)
    p.add_argument("--divisor", required=True)
    p = add("eta", cmd_eta)
    p.add_argument("--divisor", required=True)
    p.add_argument("--qexp", type=int, default=20)
    add("group", cmd_group)
    add("verify", cmd_verify)
    p = add("batch", cmd_batch, needs_n=False)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        if not 1 <= getattr(args, "N", 1) <= MAX_LEVEL:
            raise ValueError(f"N must be in [1, {MAX_LEVEL}]")
        return args.func(args)
    except (ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
