"""Command line entry point.

Payloads go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 2 usage or range error (with the violated precondition
named), 3 when --strict is set and the verdict is vacuous or
undetermined.  Epsilon is always passed as --log2eps (the exponent of
2^-E) so that nothing underflows at eps = 2^-512.

Execution knobs (--threads, --format, --cache-dir) never appear in the
parameter echo: reports are bit-identical across thread counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize
from .asymptotic import estimate_residual
from .combinat import BellSequence, StirlingTable
from .condenser import (FEASIBLE_IMPOSSIBLE, asymptotic_gap_report,
                        impossibility_certificate, necessary_independence)
from .anticonc import lemma2_certificate, pz_bound
from .errors import CondboundError, PreconditionError
from .hashsim import (HashFamilySpec, SimulationConfig, exact_small_oracle,
                      independent_oracle, run_trials)
from .intervals import parse_dyadic
from .moments import BallsBinsInstance, raw_moment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STRICT = 3


def _parse(option: str, parse, text: str | None):
    """parse(text), or None for an absent option; a malformed value raises
    PreconditionError naming the option."""
    if text is None:
        return None
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(
            f"{option}: malformed value {text!r}") from None


def _parse_list(option: str, parse, text: str) -> tuple:
    return tuple(_parse(option, parse, tok)
                 for tok in filter(None, text.split(",")))


def _threads(args) -> int:
    """--threads, else CONDBOUND_THREADS, else available parallelism."""
    if args.threads is not None:
        option, threads = "--threads", args.threads
    elif os.environ.get("CONDBOUND_THREADS"):
        option = "CONDBOUND_THREADS"
        threads = _parse(option, int, os.environ[option])
    else:
        return os.cpu_count() or 1
    if threads < 1:
        raise PreconditionError(f"{option} must be >= 1, got {threads}")
    return threads


def _bells(q_max: int, cache_dir: Path | None) -> BellSequence:
    if cache_dir is None:
        return BellSequence.stream(q_max)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / "bell_tables.bin"
    if path.exists():
        cached = BellSequence.load(path)
        if cached.q_max >= q_max:
            return cached
    bells = BellSequence.stream(q_max)
    bells.save(path)
    return bells


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
    cache.add_argument("--cache-dir", type=Path, default=None,
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
    result = serialize.table_dict(StirlingTable.build(args.qmax), args.what)
    return result, serialize.table_rows(result), True


def _run_moment(args) -> tuple[dict, None, bool]:
    order = args.order if args.order is not None else args.q
    table = StirlingTable.build(order)
    inst = BallsBinsInstance(args.balls, args.bins, args.q)
    res = raw_moment(inst, order, table)
    return serialize.moment_dict(res), None, True


def _run_lemma2(args) -> tuple[dict, None, bool]:
    table = _bells(args.q, args.cache_dir)
    cert = lemma2_certificate(args.q, 1 << args.log2m, table)
    return serialize.certificate_dict(cert), None, not cert.vacuous


def _run_pz(args) -> tuple[dict, None, bool]:
    table = StirlingTable.build(args.q)
    inst = BallsBinsInstance(1 << args.log2m, 1 << args.log2m, args.q)
    cert = pz_bound(inst, _parse("--theta", Fraction, args.theta), table)
    return serialize.certificate_dict(cert), None, True


def _run_asymptotics(args) -> tuple[dict, list, bool]:
    bells = _bells(args.qmax, args.cache_dir)
    result = serialize.asymptotics_dict(
        [estimate_residual(q, bells)
         for q in range(max(3, args.qmin), args.qmax + 1, args.step)])
    return result, serialize.asymptotics_rows(result), True


def _run_check(args) -> tuple[dict, None, bool]:
    table = _bells(args.q, args.cache_dir)
    verdict = impossibility_certificate(
        args.q, args.k, table,
        loss=_parse("--loss", Fraction, args.loss),
        log2_inv_eps=_parse("--log2eps", Fraction, args.log2eps))
    return (serialize.verdict_dict(verdict), None,
            verdict.feasible == FEASIBLE_IMPOSSIBLE)


def _run_minq(args) -> tuple[dict, None, bool]:
    table = _bells(args.qmax, args.cache_dir)
    L = _parse("--log2eps", Fraction, args.log2eps)
    loss = _parse("--loss", Fraction, args.loss)
    q_minus = necessary_independence(L, args.k, loss, table)
    verdict = None if q_minus is None else impossibility_certificate(
        q_minus, args.k, table, loss=loss, log2_inv_eps=L)
    return (serialize.minq_dict(args.k, loss, L, q_minus, verdict), None,
            q_minus is not None)


def _run_sweep(args) -> tuple[dict, None, bool]:
    table = _bells(args.qmax, args.cache_dir)
    eps_list = _parse_list("--log2eps", Fraction, args.log2eps)
    rows = asymptotic_gap_report(eps_list, args.k, table,
                                 loss=_parse("--loss", Fraction, args.loss))
    ok = all(r.q_minus is not None for r in rows)
    return serialize.gap_rows_dict(rows), None, ok


def _run_simulate(args) -> tuple[dict, list | None, bool]:
    orders = _parse_list("--orders", int, args.orders)
    thresholds = _parse_list("--thresholds", parse_dyadic, args.thresholds)
    if args.mode == "independent":
        if args.balls is None or args.bins is None:
            raise CondboundError(
                "independent mode requires --balls and --bins")
        report = independent_oracle(
            args.balls, args.bins, orders, args.trials, args.master_seed,
            thresholds=thresholds, threads=_threads(args))
    else:
        if args.w is None or args.q is None:
            raise CondboundError("simulate requires --w and --q")
        spec = HashFamilySpec.create(args.w, args.q,
                                     output_bits=args.output_bits)
        if args.mode == "exact":
            return serialize.distribution_dict(
                spec, exact_small_oracle(spec), orders, thresholds), None, True
        config = SimulationConfig(spec, trials=args.trials,
                                  master_seed=args.master_seed,
                                  balls=args.balls, moment_orders=orders,
                                  thresholds=thresholds)
        report = run_trials(config, threads=_threads(args))
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
    except CondboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        env = serialize.envelope(args.subcommand, _parameter_echo(args), result)
        sys.stdout.write(serialize.to_json(env) + "\n")
    else:
        if csv_rows is None:
            csv_rows = [("field", "value"), *serialize.flatten(result)]
        sys.stdout.write(serialize.to_csv(csv_rows))
    strict = getattr(args, "strict", False)
    return EXIT_STRICT if strict and not ok else EXIT_OK


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
