"""Command line entry point.

Payloads go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 2 usage or range error (with the violated precondition
named), 3 when --strict is set and the verdict is vacuous or
undetermined.  Epsilon is always passed as --log2eps (the exponent of
2^-E) so that nothing underflows at eps = 2^-512.

Execution knobs (--threads, --format, --cache-dir) and --strict never
appear in the parameter echo: reports are bit-identical across thread
counts.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize
from .asymptotic import estimate_residual
from .combinat import DEFAULT_QMAX_CAP, BellSequence
from .condenser import (FEASIBLE_IMPOSSIBLE, asymptotic_gap_report,
                        impossibility_certificate, necessary_independence)
from .anticonc import lemma2_certificate, pz_bound
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


def _parse(option: str, parse, text: str | None):
    """parse(text), or None for an absent option; a malformed value, a
    value that ``parse`` rejects, or an exponent above LOG2_SIZE_CAP
    (checked first), raises naming the option."""
    if text is None:
        return None
    try:
        exponent = max(map(int, _EXPONENT.findall(text)), default=0)
        _at_most(option + " exponent", exponent, LOG2_SIZE_CAP)
        return parse(text)
    except PreconditionError as exc:
        raise PreconditionError(f"{option}: {exc}") from None
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(
            f"{option}: malformed value {text!r}") from None


def _parse_list(option: str, parse, text: str) -> tuple:
    """An empty text is no value; otherwise every entry must parse."""
    return tuple(_parse(option, parse, tok)
                 for tok in (text.split(",") if text else ()))


def _loss(text: str | None) -> Fraction | None:
    loss = _parse("--loss", Fraction, text)
    return None if loss is None else _at_least("--loss", loss, 0)


def _log2eps(text: str | None) -> Fraction | None:
    """--log2eps E names eps = 2^-E, a target only for eps < 1 (E > 0)."""
    L = _parse("--log2eps", Fraction, text)
    if L is not None and L <= 0:
        raise PreconditionError(
            f"--log2eps must be > 0 (eps = 2^-E below 1), got {L}")
    return L


def _at_least(option: str, value: int, floor: int) -> int:
    if value < floor:
        raise PreconditionError(f"{option} must be >= {floor}, got {value}")
    return value


def _at_most(option: str, value: int, cap: int) -> int:
    if value > cap:
        raise CapacityError(f"{option} must be <= {cap}, got {value}")
    return value


def _threads(args) -> int:
    """--threads, else CONDBOUND_THREADS, else available parallelism."""
    if args.threads is not None:
        option, threads = "--threads", args.threads
    elif os.environ.get("CONDBOUND_THREADS"):
        option = "CONDBOUND_THREADS"
        threads = _parse(option, int, os.environ[option])
    else:
        return os.cpu_count() or 1
    return _at_least(option, threads, 1)


class BellCache:
    """--cache-dir: seeds the built prefix of a command's Bell sequence from
    the cache file and, once the command has run, saves the prefix if it
    grew."""

    def __init__(self, directory: str):
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
        prog="condbound",
        description="Exact balls-into-bins load moments, anti-concentration "
                    "certificates, and condenser impossibility bounds.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="exit 3 on vacuous or undetermined verdicts")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", type=BellCache, default=None,
                       help="directory for cached Bell tables")

    def leaf(group, command, run, summary, parents=(), fmt="json"):
        p = group.add_parser(command.rpartition(" ")[2], help=summary,
                             parents=parents)
        p.add_argument("--format", choices=("json", "csv"), default=fmt)
        p.set_defaults(subcommand=command, run=run)
        return p

    p = leaf(sub, "table", _run_table,
             "dump the Stirling triangle or Bell numbers", fmt="csv")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--what", choices=("stirling", "bell"), default="stirling")

    p = leaf(sub, "moment", _run_moment, "exact E S^order for M balls, N bins")
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="independence level (and default moment order)")
    p.add_argument("--order", type=int, default=None)

    p = leaf(sub, "lemma2", _run_lemma2,
             "Bell-number anti-concentration certificate", (strict, cache))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--log2m", type=int, required=True,
                   help="balls = bins = 2^log2m")

    p = leaf(sub, "pz", _run_pz,
             "Paley-Zygmund certificate from exact moments")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--log2m", type=int, required=True)
    p.add_argument("--theta", type=str, required=True,
                   help="rational in (0,1), e.g. 1/2")

    p = leaf(sub, "asymptotics", _run_asymptotics,
             "closed-form Bell growth estimate vs exact values", (cache,),
             fmt="csv")
    p.add_argument("--qmin", type=int, default=8)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--step", type=int, default=1)

    p = sub.add_parser("condense", help="condenser feasibility analysis")
    csub = p.add_subparsers(dest="subcommand", required=True)

    c = leaf(csub, "condense check", _run_check,
             "impossibility region at given q, k", (strict, cache))
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--loss", type=str, default=None)
    c.add_argument("--log2eps", type=str, default=None)

    c = leaf(csub, "condense minq", _run_minq,
             "largest q whose certificate rules out the target (loss, eps)",
             (strict, cache))
    c.add_argument("--log2eps", type=str, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--loss", type=str, required=True)
    c.add_argument("--qmax", type=int, default=1024)

    c = leaf(csub, "condense sweep", _run_sweep,
             "positive vs certified independence across a list of eps "
             "targets", (strict, cache))
    c.add_argument("--log2eps", type=str, required=True,
                   help="comma separated exponents, e.g. 64,128,256,512")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--loss", type=str, default="1")
    c.add_argument("--qmax", type=int, default=1024)

    p = leaf(sub, "simulate", _run_simulate,
             "load experiments over a q-wise independent polynomial family")
    p.add_argument("--mode", choices=("mc", "exact", "independent"),
                   default="mc")
    p.add_argument("--w", type=int, help="field bits (mc and exact modes)")
    p.add_argument("--q", type=int, help="independence level (degree+1)")
    p.add_argument("--output-bits", type=int, default=None)
    p.add_argument("--balls", type=int, default=None)
    p.add_argument("--bins", type=int, default=None,
                   help="independent mode only")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--orders", type=str, default="1,2")
    p.add_argument("--thresholds", type=str, default="",
                   help="comma separated dyadic thresholds, e.g. 1,3/2^1")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: CONDBOUND_THREADS "
                        "or available parallelism)")

    return top


# Handlers return (payload, CSV rows or None for field/value rows, verdict ok)
def _run_table(args) -> tuple[dict, list, bool]:
    result = serialize.table_dict(args.qmax, args.what)
    return result, serialize.table_rows(result), True


def _run_moment(args) -> tuple[dict, None, bool]:
    order = args.order if args.order is not None else args.q
    for option, size in (("--balls", args.balls), ("--bins", args.bins)):
        if size > 1 << LOG2_SIZE_CAP:
            raise CapacityError(f"{option} must be <= 2^{LOG2_SIZE_CAP}")
    inst = BallsBinsInstance(args.balls, args.bins, args.q)
    res = raw_moment(inst, order)
    return serialize.moment_dict(res), None, True


def _run_lemma2(args) -> tuple[dict, None, bool]:
    log2m = _at_least("--log2m", args.log2m, 0)
    M = 1 << _at_most("--log2m", log2m, LOG2_SIZE_CAP)
    cert = lemma2_certificate(args.q, M, _bells(args.cache_dir))
    return serialize.certificate_dict(cert), None, not cert.vacuous


def _run_pz(args) -> tuple[dict, None, bool]:
    log2m = _at_least("--log2m", args.log2m, 0)
    M = 1 << _at_most("--log2m", log2m, LOG2_SIZE_CAP)
    inst = BallsBinsInstance(M, M, args.q)
    cert = pz_bound(inst, _parse("--theta", Fraction, args.theta))
    return serialize.certificate_dict(cert), None, True


def _run_asymptotics(args) -> tuple[dict, list, bool]:
    step = _at_least("--step", args.step, 1)
    qmax = _at_most("--qmax", args.qmax, DEFAULT_QMAX_CAP)
    qmin = _at_most("--qmin", _at_least("--qmin", args.qmin, 3), qmax)
    bells = _bells(args.cache_dir)
    result = serialize.asymptotics_dict(
        [estimate_residual(q, bells) for q in range(qmin, qmax + 1, step)])
    return result, serialize.asymptotics_rows(result), True


def _run_check(args) -> tuple[dict, None, bool]:
    k = _at_most("--k", _at_least("--k", args.k, 1), LOG2_SIZE_CAP)
    loss, L = _loss(args.loss), _log2eps(args.log2eps)
    verdict = impossibility_certificate(
        args.q, k, _bells(args.cache_dir), loss=loss, log2_inv_eps=L)
    return (serialize.verdict_dict(verdict), None,
            verdict.feasible == FEASIBLE_IMPOSSIBLE)


def _run_minq(args) -> tuple[dict, None, bool]:
    k = _at_most("--k", _at_least("--k", args.k, 1), LOG2_SIZE_CAP)
    L, loss = _log2eps(args.log2eps), _loss(args.loss)
    verdict = necessary_independence(L, k, loss, _bells(args.cache_dir),
                                     args.qmax)
    return (serialize.minq_dict(k, loss, L, verdict), None,
            verdict is not None)


def _run_sweep(args) -> tuple[dict, None, bool]:
    eps_list = _parse_list("--log2eps", Fraction, args.log2eps)
    if not eps_list:
        raise PreconditionError(f"--log2eps: no value in {args.log2eps!r}")
    # the positive construction each row compares against needs eps < 1/2
    for L in eps_list:
        if L <= 1:
            raise PreconditionError(
                f"--log2eps must be > 1 (eps = 2^-E below 1/2), got {L}")
    loss = _loss(args.loss)
    k = _at_most("--k", _at_least("--k", args.k, 1), LOG2_SIZE_CAP)
    rows = asymptotic_gap_report(eps_list, k, _bells(args.cache_dir),
                                 args.qmax, loss=loss)
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
    orders = _parse_list("--orders", int, args.orders)
    thresholds = _parse_list("--thresholds", parse_dyadic, args.thresholds)
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
    args = build_parser().parse_args(argv)
    try:
        result, csv_rows, ok = args.run(args)
        if getattr(args, "cache_dir", None) is not None:
            args.cache_dir.save()
    except CondboundError as exc:
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
