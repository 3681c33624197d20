"""Command line entry point.

Payloads go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 2 usage or range error (with the violated precondition
named: ``error: argument --x: ...`` when an option's type refuses its
value, before any work), 3 when --strict is set and the verdict is
vacuous or undetermined.  Epsilon is always passed as --log2eps (the
exponent of 2^-E) so that nothing underflows at eps = 2^-512.

Execution knobs (--threads, --format, --cache-dir) and --strict never
appear in the parameter echo: reports are bit-identical across thread
counts, and --threads is at most the available parallelism.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize
from .combinat import DEFAULT_QMAX_CAP, BellSequence
from .errors import CapacityError, CondboundError, PreconditionError
from .intervals import parse_dyadic
from .moments import BallsBinsInstance, raw_moment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STRICT = 3
# cap on --log2m, --k and a value's exponent: each power is an exact
# integer; moment --balls and --bins are capped at the same power of 2
LOG2_SIZE_CAP = 1024
_EXPONENT = re.compile(r"[eE^][-+]?(\d[\d_]*)")


def _value(parse, domain: str = "", ok=None, echo: bool = False):
    """An option's argparse type: ``parse`` the text once, refusing first
    an exponent above LOG2_SIZE_CAP, and require ``ok(value)``, else name
    ``domain``; ``echo`` returns the text, carrying the parsed ``value``."""
    def typed(text: str):
        try:
            exponent = max(map(int, _EXPONENT.findall(text)), default=0)
            if exponent > LOG2_SIZE_CAP:
                raise argparse.ArgumentTypeError(
                    f"exponent must be <= {LOG2_SIZE_CAP}, got {exponent}")
            value = parse(text)
        except PreconditionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"malformed value {text!r}") from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text}")
        if not echo:
            return value
        kept = _Text(text)
        kept.value = value
        return kept
    return typed


class _Text(str):
    """An option's text, which the parameter echo prints as typed."""


def _ints(lo: int, hi: int | None = None, shown: str | None = None):
    """An integer type over [lo, hi], unbounded above without ``hi``."""
    domain = f">= {lo}" if hi is None else f"in [{lo}, {shown or hi}]"
    return _value(int, domain, lambda v: lo <= v and (hi is None or v <= hi))


def _listed(parse):
    """Comma separated entries; an empty text holds none."""
    return lambda text: tuple(map(parse, text.split(",") if text else ()))


def _threads(args) -> int:
    """--threads, else the available parallelism, which also caps it."""
    cpus = os.cpu_count() or 1
    return min(args.threads or cpus, cpus)


class BellCache:
    """--cache-dir: seeds the built prefix of a command's Bell sequence from
    the cache file and, once the command has run, saves the prefix if it
    grew."""

    def __init__(self, directory: str):
        if not directory:    # Path('') is the working directory
            raise argparse.ArgumentTypeError("must name a directory, got ''")
        self.directory = Path(directory)
        self.path = self.directory / "bell_tables.bin"
        self.bells = None
        self.loaded = -1

    def _oserror(self, exc: OSError) -> PreconditionError:
        return PreconditionError(
            f"--cache-dir {str(self.directory)!r}: {exc.strerror or exc}")

    def open(self) -> BellSequence:
        bells = BellSequence()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                bells = BellSequence.load(self.path)
                self.loaded = bells.built
        except OSError as exc:
            raise self._oserror(exc) from None
        self.bells = bells
        return bells

    def save(self) -> None:
        if self.bells.built > self.loaded:
            try:
                self.bells.save(self.path)
            except OSError as exc:
                raise self._oserror(exc) from None


def _bells(cache: BellCache | None) -> BellSequence:
    """The command's Bell sequence; it grows as the command reads it."""
    return BellSequence() if cache is None else cache.open()


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="condbound", exit_on_error=False,
        description="Exact balls-into-bins load moments, anti-concentration "
                    "certificates, and condenser impossibility bounds.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="exit 3 on vacuous or undetermined verdicts")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", type=BellCache, default=None,
                       help="directory for cached Bell tables")

    even_q = _value(int, f"an even integer in [4, {DEFAULT_QMAX_CAP}]",
                    lambda q: q % 2 == 0 and 4 <= q <= DEFAULT_QMAX_CAP)
    log2m = _ints(0, LOG2_SIZE_CAP)
    k = _ints(1, LOG2_SIZE_CAP)
    window = _ints(4, DEFAULT_QMAX_CAP)     # a search window starts at q = 4
    loss = _value(Fraction, ">= 0", lambda v: v >= 0, echo=True)
    log2eps = _value(Fraction, "> 0 (eps = 2^-E below 1)", lambda v: v > 0,
                     echo=True)

    def leaf(group, command, run, summary, parents=(), fmt="json"):
        p = group.add_parser(command.rpartition(" ")[2], help=summary,
                             parents=parents, exit_on_error=False)
        p.add_argument("--format", choices=("json", "csv"), default=fmt)
        p.set_defaults(subcommand=command, run=run)
        return p

    p = leaf(sub, "table", _run_table,
             "dump the Stirling triangle or Bell numbers", fmt="csv")
    p.add_argument("--qmax", type=_ints(0, DEFAULT_QMAX_CAP), required=True)
    p.add_argument("--what", choices=("stirling", "bell"), default="stirling")

    size = _ints(1, 1 << LOG2_SIZE_CAP, f"2^{LOG2_SIZE_CAP}")
    p = leaf(sub, "moment", _run_moment, "exact E S^order for M balls, N bins")
    p.add_argument("--balls", type=size, required=True)
    p.add_argument("--bins", type=size, required=True)
    p.add_argument("--q", type=_ints(1), required=True,
                   help="independence level (and default moment order)")
    p.add_argument("--order", type=_ints(1, DEFAULT_QMAX_CAP), default=None)

    p = leaf(sub, "lemma2", _run_lemma2,
             "Bell-number anti-concentration certificate", (strict, cache))
    p.add_argument("--q", type=even_q, required=True)
    p.add_argument("--log2m", type=log2m, required=True,
                   help="balls = bins = 2^log2m")

    p = leaf(sub, "pz", _run_pz,
             "Paley-Zygmund certificate from exact moments")
    p.add_argument("--q", type=even_q, required=True)
    p.add_argument("--log2m", type=log2m, required=True)
    p.add_argument("--theta", required=True,
                   type=_value(Fraction, "in (0, 1)", lambda v: 0 < v < 1,
                               echo=True), help="rational in (0,1), e.g. 1/2")

    p = leaf(sub, "asymptotics", _run_asymptotics,
             "closed-form Bell growth estimate vs exact values", (cache,),
             fmt="csv")
    p.add_argument("--qmin", type=_ints(3), default=8)
    p.add_argument("--qmax", type=_ints(3, DEFAULT_QMAX_CAP), required=True)
    p.add_argument("--step", type=_ints(1), default=1)

    p = sub.add_parser("condense", help="condenser feasibility analysis",
                       exit_on_error=False)
    csub = p.add_subparsers(dest="subcommand", required=True)

    c = leaf(csub, "condense check", _run_check,
             "impossibility region at given q, k", (strict, cache))
    c.add_argument("--q", type=even_q, required=True)
    c.add_argument("--k", type=k, required=True)
    c.add_argument("--loss", type=loss, default=None)
    c.add_argument("--log2eps", type=log2eps, default=None)

    c = leaf(csub, "condense minq", _run_minq,
             "largest q whose certificate rules out the target (loss, eps)",
             (strict, cache))
    c.add_argument("--log2eps", type=log2eps, required=True)
    c.add_argument("--k", type=k, required=True)
    c.add_argument("--loss", type=loss, required=True)
    c.add_argument("--qmax", type=window, default=1024)

    c = leaf(csub, "condense sweep", _run_sweep,
             "positive vs certified independence across a list of eps "
             "targets", (strict, cache))
    # the positive construction each row compares against needs eps < 1/2
    eps_list = _value(_listed(Fraction),
                      "a list of values > 1 (eps = 2^-E below 1/2)",
                      lambda Ls: Ls and min(Ls) > 1, echo=True)
    c.add_argument("--log2eps", type=eps_list, required=True,
                   help="comma separated exponents, e.g. 64,128,256,512")
    c.add_argument("--k", type=k, required=True)
    c.add_argument("--loss", type=loss, default="1")
    c.add_argument("--qmax", type=window, default=1024)

    p = leaf(sub, "simulate", _run_simulate,
             "load experiments over a q-wise independent polynomial family")
    p.add_argument("--mode", choices=("mc", "exact", "independent"),
                   default="mc")
    p.add_argument("--w", type=int, help="field bits (mc and exact modes)")
    p.add_argument("--q", type=int, help="independence level (degree+1)")
    p.add_argument("--output-bits", type=int, default=None)
    p.add_argument("--balls", type=_ints(1), default=None)
    p.add_argument("--bins", type=_ints(1), default=None,
                   help="independent mode only")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--orders", type=_value(_listed(int), echo=True),
                   default="1,2")
    p.add_argument("--thresholds", type=_value(_listed(parse_dyadic),
                                               echo=True), default="",
                   help="comma separated dyadic thresholds, e.g. 1,3/2^1")
    p.add_argument("--threads", type=_ints(1), default=None,
                   help="worker threads (default and cap: available "
                        "parallelism)")

    return top


# Handlers return (payload, CSV rows or None for field/value rows, verdict ok)
def _run_table(args) -> tuple[dict, list, bool]:
    result = serialize.table_dict(args.qmax, args.what)
    return result, serialize.table_rows(result), True


def _run_moment(args) -> tuple[dict, None, bool]:
    if args.order is None and args.q > DEFAULT_QMAX_CAP:
        raise CapacityError(f"--q must be <= {DEFAULT_QMAX_CAP} when it is "
                            f"the moment order (no --order), got {args.q}")
    inst = BallsBinsInstance(args.balls, args.bins, args.q)
    res = raw_moment(inst, args.q if args.order is None else args.order)
    return serialize.moment_dict(res), None, True


def _run_lemma2(args) -> tuple[dict, None, bool]:
    from .anticonc import lemma2_certificate

    cert = lemma2_certificate(args.q, 1 << args.log2m, _bells(args.cache_dir))
    return serialize.certificate_dict(cert), None, not cert.vacuous


def _run_pz(args) -> tuple[dict, None, bool]:
    from .anticonc import pz_bound

    M = 1 << args.log2m
    cert = pz_bound(BallsBinsInstance(M, M, args.q), args.theta.value)
    return serialize.certificate_dict(cert), None, True


def _run_asymptotics(args) -> tuple[dict, list, bool]:
    from .asymptotic import estimate_residual

    if args.qmin > args.qmax:
        raise PreconditionError(
            f"--qmin must be <= --qmax {args.qmax}, got {args.qmin}")
    bells = _bells(args.cache_dir)
    result = serialize.asymptotics_dict(
        [estimate_residual(q, bells)
         for q in range(args.qmin, args.qmax + 1, args.step)])
    return result, serialize.asymptotics_rows(result), True


def _run_check(args) -> tuple[dict, None, bool]:
    from .condenser import FEASIBLE_IMPOSSIBLE, impossibility_certificate

    verdict = impossibility_certificate(
        args.q, args.k, _bells(args.cache_dir),
        loss=getattr(args.loss, "value", None),
        log2_inv_eps=getattr(args.log2eps, "value", None))
    return (serialize.verdict_dict(verdict), None,
            verdict.feasible == FEASIBLE_IMPOSSIBLE)


def _run_minq(args) -> tuple[dict, None, bool]:
    from .condenser import necessary_independence

    L, loss = args.log2eps.value, args.loss.value
    verdict = necessary_independence(L, args.k, loss, _bells(args.cache_dir),
                                     args.qmax)
    return (serialize.minq_dict(args.k, loss, L, verdict), None,
            verdict is not None)


def _run_sweep(args) -> tuple[dict, None, bool]:
    from .condenser import asymptotic_gap_report

    rows = asymptotic_gap_report(args.log2eps.value, args.k,
                                 _bells(args.cache_dir), args.qmax,
                                 loss=args.loss.value)
    ok = all(r.q_minus is not None for r in rows)
    return serialize.gap_rows_dict(rows), None, ok


# simulate options that a mode never reads, so must not be given (and
# echoed) there
_SIMULATE_UNREAD = {"mc": ("bins",), "exact": ("balls", "bins"),
                    "independent": ("w", "q", "output_bits")}


def _run_simulate(args) -> tuple[dict, list | None, bool]:
    # the simulator calls no BLAS routine, yet numpy's OpenBLAS starts a
    # thread per core as it loads: keep it at one unless the user set it
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for name in _SIMULATE_UNREAD[args.mode]:
        if getattr(args, name) is not None:
            option = "--" + name.replace("_", "-")
            raise PreconditionError(
                f"simulate --mode {args.mode} does not read {option}")
    orders, thresholds = args.orders.value, args.thresholds.value
    if args.mode == "independent":
        from .independent import independent_oracle

        if args.balls is None or args.bins is None:
            raise CondboundError(
                "independent mode requires --balls and --bins")
        report = independent_oracle(
            args.balls, args.bins, orders, args.trials, args.master_seed,
            thresholds=thresholds, threads=_threads(args))
    else:
        # the polynomial family needs numpy, so only these modes import it
        from .hashsim import HashFamilySpec, exact_small_oracle, run_trials

        if args.w is None or args.q is None:
            raise CondboundError("simulate requires --w and --q")
        spec = HashFamilySpec.create(args.w, args.q,
                                     output_bits=args.output_bits)
        if args.mode == "exact":
            return serialize.distribution_dict(
                spec, exact_small_oracle(spec), orders, thresholds), None, True
        report = run_trials(spec, args.trials, args.master_seed, orders,
                            thresholds, balls=args.balls,
                            threads=_threads(args))
    result = serialize.report_dict(report)
    return result, serialize.histogram_rows(result), True


def _parameter_echo(args) -> dict:
    skip = {"subcommand", "run", "format", "strict", "threads", "cache_dir"}
    return {key: value for key, value in sorted(vars(args).items())
            if key not in skip and value is not None}


def dispatch(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result, csv_rows, ok = args.run(args)
        if getattr(args, "cache_dir", None) is not None:
            args.cache_dir.save()
    except (argparse.ArgumentError, CondboundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        env = serialize.envelope(args.subcommand, _parameter_echo(args), result)
        serialize.write_json(env, sys.stdout)
    else:
        if csv_rows is None:
            csv_rows = [("field", "value"), *serialize.flatten(result)]
        serialize.write_csv(csv_rows, sys.stdout)
    strict = getattr(args, "strict", False)
    return EXIT_STRICT if strict and not ok else EXIT_OK


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot fail again, and exit 1 without a traceback (the
        # recipe of the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
