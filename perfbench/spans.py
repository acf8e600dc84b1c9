"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the cuspidal modules from outside the
package: for each traced function it rebinds the name in every cuspidal
module that holds the original object (``structure``, ``cli`` and
``orderengine`` each import their own ``profile``/``crosscheck``/
``upsilon_apply`` binding, so patching the defining module alone misses
calls).  Each call becomes a span (name, start, end, parent span, level id)
kept in flat arrays in memory; ``summary`` derives self times and the
per-layer metrics, ``write_spans`` dumps the spans when the pass is over.

Very hot helpers (``divisors``, ``valuation``, ``from_dict``) are not traced:
they run hundreds of thousands of times per pass and would swamp the spans
with wrapper cost.  Their time shows up in the self time of their callers.
"""

from __future__ import annotations

import csv
import gzip
import sys
from array import array
from time import perf_counter

MODULES = ("intarith", "divisors", "generators", "etalinalg", "orderengine",
           "structure", "cli")

# (module, function) pairs that get a span.  Keep in step with summary().
TRACED = (
    ("intarith", "factor"),
    ("divisors", "tensor_join"),
    ("generators", "construct_Z"),
    ("generators", "construct_Y"),
    ("generators", "order_primes"),
    ("generators", "divisor_orderings"),
    ("generators", "predicted_order"),
    ("etalinalg", "upsilon"),
    ("etalinalg", "upsilon_apply"),
    ("etalinalg", "eta_divisor"),
    ("orderengine", "profile"),
    ("structure", "compute_group"),
    ("structure", "group_to_json"),
    ("structure", "verify_certificates"),
    ("structure", "snf_oracle"),
    ("structure", "eta_unit_lattice"),
    ("structure", "invariant_factors_of_quotient"),
    ("structure", "crosscheck"),
    ("cli", "cmd_batch"),
)


def _observe_profile(tracer, idx, args, result):
    coeffs = args[0].coeffs
    tracer.count("profile.nnz", sum(1 for c in coeffs if c))
    tracer.count("profile.len", len(coeffs))
    tracer.level_size("profiles", 1)


def _observe_snf(tracer, idx, args, result):
    rows = args[0]
    bits = max((abs(x).bit_length() for r in rows for x in r), default=0)
    tracer.count("snf.rows", len(rows))
    tracer.count_max("snf.max_entry_bits", bits)
    tracer.level_size("relation_rows", len(rows))
    tracer.level_size("max_entry_bits", bits, combine=max)


def _observe_certificates(tracer, idx, args, result):
    tracer.count("certificate_steps", len(result.steps))
    tracer.level_size("certificate_steps", len(result.steps))


def _observe_upsilon(tracer, idx, args, result):
    # The lru_cache is unbounded and the process fresh, so the first call per
    # level is the one that builds the matrix.
    if args[0] not in tracer.upsilon_built:
        tracer.upsilon_built.add(args[0])
        tracer.build_spans.append(idx)


OBSERVERS = {
    "orderengine.profile": _observe_profile,
    "structure.invariant_factors_of_quotient": _observe_snf,
    "structure.verify_certificates": _observe_certificates,
    "etalinalg.upsilon": _observe_upsilon,
}


class Tracer:
    """Collects spans of the traced cuspidal functions in one process."""

    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_level = array("l")
        self.stack = []
        self.level = 0           # level id stamped on new spans; set by the caller
        self.counters = {}
        self.sizes = {}          # level -> {size counter: value}
        self.upsilon_built = set()
        self.build_spans = []
        self.originals = []      # (module, name, original) to undo install()
        self.wrapped = {}        # traced name -> original function

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def count_max(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def level_size(self, key, value, combine=None):
        row = self.sizes.setdefault(self.level, {})
        if key in row:
            value = combine(row[key], value) if combine else row[key] + value
        row[key] = value

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, span_level, stack = self.parent, self.span_level, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            span_level.append(tracer.level)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(tracer, idx, args, result)
            return result

        return traced

    def install(self):
        mods = {m: sys.modules[f"cuspidal.{m}"] for m in MODULES}
        for mod_name, fn_name in TRACED:
            original = getattr(mods[mod_name], fn_name)
            self.wrapped[f"{mod_name}.{fn_name}"] = original
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods.values():
                if getattr(mod, fn_name, None) is original:
                    self.originals.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, fn_name, original in reversed(self.originals):
            setattr(mod, fn_name, original)
        self.originals.clear()

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def summary(self) -> dict:
        """Per-function totals and the per-layer benchmark metrics."""
        dur, own = self.self_times()
        per_fn = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_of):
            row = per_fn[self.names[nid]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += own[i]

        def get(name, key):
            return per_fn[name][key]

        info = self.wrapped["intarith.factor"].cache_info()
        lookups = info.hits + info.misses
        c = self.counters
        metrics = {
            "intarith.factor.s": get("intarith.factor", "self_s"),
            "intarith.factor.calls": get("intarith.factor", "calls"),
            "intarith.factor.hit_ratio": info.hits / lookups if lookups else 0.0,
            "generators.construct.s": (get("generators.construct_Z", "self_s")
                                       + get("generators.construct_Y", "self_s")),
            "generators.order_primes.s": get("generators.order_primes", "self_s"),
            "generators.divisor_orderings.s": get("generators.divisor_orderings", "self_s"),
            "generators.predicted_order.s": get("generators.predicted_order", "self_s"),
            "divisors.tensor_join.s": get("divisors.tensor_join", "self_s"),
            "divisors.tensor_join.calls": get("divisors.tensor_join", "calls"),
            "orderengine.profile.s": get("orderengine.profile", "self_s"),
            "orderengine.profile.calls": get("orderengine.profile", "calls"),
            "orderengine.profile.input_nnz_frac": (
                c["profile.nnz"] / c["profile.len"] if c.get("profile.len") else 0.0),
            "etalinalg.upsilon_apply.s": get("etalinalg.upsilon_apply", "self_s"),
            "etalinalg.upsilon_apply.calls": get("etalinalg.upsilon_apply", "calls"),
            "etalinalg.upsilon.build_s": sum(dur[i] for i in self.build_spans),
            "etalinalg.eta_divisor.s": get("etalinalg.eta_divisor", "self_s"),
            "etalinalg.eta_divisor.calls": get("etalinalg.eta_divisor", "calls"),
            "structure.snf.s": get("structure.invariant_factors_of_quotient", "self_s"),
            "structure.snf.calls": get("structure.invariant_factors_of_quotient", "calls"),
            "structure.snf.rows": c.get("snf.rows", 0),
            "structure.snf.max_entry_bits": c.get("snf.max_entry_bits", 0),
            "structure.unit_lattice.s": get("structure.eta_unit_lattice", "self_s"),
            "structure.verify_certificates.s": get("structure.verify_certificates", "s"),
            "structure.certificate_steps": c.get("certificate_steps", 0),
            "structure.compute_group.s": get("structure.compute_group", "s"),
            "cli.batch.self_s": get("cli.cmd_batch", "self_s"),
        }
        return {"metrics": metrics, "functions": per_fn, "spans": len(self.start)}

    def level_table(self, level_times) -> dict:
        """Per level: wall time, sigma0(N) and the size counters observed."""
        from cuspidal.intarith import divisors
        levels = {}
        for n, t in level_times:
            row = levels.setdefault(n, {"N": n, "wall_s": 0.0, "sigma0": len(divisors(n))})
            row["wall_s"] += t
            row.update(self.sizes.get(n, {}))
        return levels

    def write_spans(self, path):
        """All spans as gzipped CSV: name, start, end, parent index, level."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("name", "start", "end", "parent", "level"))
            names = self.names
            for nid, s, e, p, lv in zip(self.name_of, self.start, self.end,
                                         self.parent, self.span_level):
                w.writerow((names[nid], f"{s:.9f}", f"{e:.9f}", p, lv))
