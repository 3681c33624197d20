"""Run one ``condbound`` CLI command with spans around each layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON ARG...

The ARGs are passed to ``condbound.cli.dispatch`` unchanged, so stdout and
the exit code are those of ``condbound ARG...``.  Before dispatching, the
public functions listed in HOOKS are replaced, at every name a condbound
module binds them under, by wrappers that record a span (name, start,
end, parent index) and a few counters; the first dotted part of a span's
name is its layer.  Spans stay in memory and
are written to SPANS_JSON at exit, together with the time the import of
``condbound.cli`` took.  The spans nest on one stack, so commands must run
on one thread (``--threads 1``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

clock = time.perf_counter


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _nth_root_bits(args, kwargs, result) -> dict:
    fr = Fraction(args[0])
    return {"operand_bits": fr.numerator.bit_length()
            + fr.denominator.bit_length()}


def _mul_vec_counts(args, kwargs, result) -> dict:
    # operands read and product written, from the shapes (int64 elements)
    return {"elems": result.size,
            "bytes_computed": 8 * (_size(args[1]) + _size(args[2])
                                   + result.size)}


# (module, attribute path, span name, counter function or None)
HOOKS = [
    ("serialize", "rational_dict", "serialize.rational_dict", None),
    ("serialize", "interval_dict", "serialize.interval_dict", None),
    ("serialize", "certificate_dict", "serialize.certificate_dict", None),
    ("serialize", "moment_dict", "serialize.moment_dict", None),
    ("serialize", "verdict_dict", "serialize.verdict_dict", None),
    ("serialize", "gap_rows_dict", "serialize.gap_rows_dict", None),
    ("serialize", "report_dict", "serialize.report_dict", None),
    ("serialize", "envelope", "serialize.envelope", None),
    ("serialize", "to_json", "serialize.to_json", None),
    ("serialize", "to_generic_csv", "serialize.to_generic_csv", None),
    ("condenser", "positive_params", "condenser.positive_params", None),
    ("condenser", "heavy_bin_reduction", "condenser.heavy_bin_reduction",
     None),
    ("condenser", "impossibility_certificate",
     "condenser.impossibility_certificate", None),
    ("condenser", "necessary_independence", "condenser.minq", None),
    ("condenser", "asymptotic_gap_report", "condenser.asymptotic_gap_report",
     None),
    ("anticonc", "pz_bound", "anticonc.pz_bound", None),
    ("anticonc", "lemma2_certificate", "anticonc.lemma2_certificate", None),
    ("anticonc", "bell_bound_at_theta", "anticonc.bell_bound_at_theta", None),
    ("anticonc", "certificate_ordering", "anticonc.certificate_ordering",
     None),
    ("asymptotic", "stirling_max_log_estimate",
     "asymptotic.stirling_max_log_estimate", None),
    ("asymptotic", "bell_log_estimate", "asymptotic.bell_log_estimate", None),
    ("asymptotic", "estimate_residual", "asymptotic.estimate_residual", None),
    ("asymptotic", "sandwich_holds", "asymptotic.sandwich_holds", None),
    ("moments", "raw_moment", "moments.raw_moment", None),
    ("moments", "moment_norm", "moments.moment_norm", None),
    ("moments", "moment_sandwich", "moments.moment_sandwich", None),
    ("combinat", "BellSequence.stream", "combinat.bell_stream",
     lambda a, k, r: {"q_sum": r.q_max}),
    ("combinat", "StirlingTable.build", "combinat.stirling_build", None),
    ("combinat", "BellSequence.save", "combinat.bell_cache.save",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("combinat", "BellSequence.load", "combinat.bell_cache.load",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("intervals", "ln_interval", "intervals.ln", None),
    ("intervals", "ln_interval_of_int", "intervals.ln", None),
    ("intervals", "log2_interval", "intervals.log2", None),
    ("intervals", "log2_fraction", "intervals.log2", None),
    ("intervals", "nth_root", "intervals.nth_root", _nth_root_bits),
    ("intervals", "pow_fraction", "intervals.pow_fraction", None),
    ("hashsim", "run_trials", "hashsim.run_trials",
     lambda a, k, r: {"trials": a[0].trials}),
    ("hashsim", "independent_oracle", "hashsim.independent_oracle", None),
    ("hashsim", "exact_small_oracle", "hashsim.exact_small_oracle",
     lambda a, k, r: {"seeds": a[0].seed_count}),
    ("hashsim", "exhaustive_assignment_histogram",
     "hashsim.exhaustive_assignment", None),
    ("gf2", "GFTables.__init__", "gf2.tables", None),
    ("gf2", "GFTables.mul_vec", "gf2.mul_vec", _mul_vec_counts),
]


class Tracer:
    """In-memory span recorder; one open-span stack for the main thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def call(self, name, fn, args, kwargs, count):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, clock(), 0.0, parent, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            self.stack.pop()
        if count is not None:
            rec[4] = count(args, kwargs, result)
        return result

    def wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "condbound" or n.startswith("condbound.")]
        for mod_name, path, name, count in HOOKS:
            mod = sys.modules.get(f"condbound.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{mod_name}.{path}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.wrap(raw.__func__, name, count)))
                continue
            traced = self.wrap(raw, name, count)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, binding, traced)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = clock()
    import condbound.cli
    import_s = clock() - t0
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.call("cli.dispatch", condbound.cli.dispatch, (argv,),
                           {}, None)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "missing": tracer.missing,
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
