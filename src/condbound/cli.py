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


def _add_common(parser, default_format="json"):
    parser.add_argument("--format", choices=("json", "csv"),
                        default=default_format)
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 on vacuous or undetermined verdicts")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: CONDBOUND_THREADS "
                             "or available parallelism)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for cached Bell tables")


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

    p = sub.add_parser("table", help="dump the Stirling triangle or Bell numbers")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--what", choices=("stirling", "bell"), default="stirling")
    _add_common(p, default_format="csv")

    p = sub.add_parser("moment", help="exact E S^order for M balls, N bins")
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="independence level (and default moment order)")
    p.add_argument("--order", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("lemma2", help="Bell-number anti-concentration certificate")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--log2m", type=int, required=True,
                   help="balls = bins = 2^log2m")
    _add_common(p)

    p = sub.add_parser("pz", help="Paley-Zygmund certificate from exact moments")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--log2m", type=int, required=True)
    p.add_argument("--theta", type=str, required=True,
                   help="rational in (0,1), e.g. 1/2")
    _add_common(p)

    p = sub.add_parser("asymptotics",
                       help="closed-form Bell growth estimate vs exact values")
    p.add_argument("--qmin", type=int, default=8)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    _add_common(p, default_format="csv")

    p = sub.add_parser("condense", help="condenser feasibility analysis")
    csub = p.add_subparsers(dest="condense_cmd", required=True)

    c = csub.add_parser("check", help="impossibility region at given q, k")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--loss", type=str, default=None)
    c.add_argument("--log2eps", type=str, default=None)
    _add_common(c)

    c = csub.add_parser("minq", help="largest q whose certificate rules out "
                                     "the target (loss, eps)")
    c.add_argument("--log2eps", type=str, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--loss", type=str, required=True)
    c.add_argument("--qmax", type=int, default=1024)
    _add_common(c)

    c = csub.add_parser("sweep", help="positive vs certified independence "
                                      "across a list of eps targets")
    c.add_argument("--log2eps", type=str, required=True,
                   help="comma separated exponents, e.g. 64,128,256,512")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--loss", type=str, default="1")
    c.add_argument("--qmax", type=int, default=1024)
    _add_common(c)

    p = sub.add_parser("simulate", help="load experiments over a q-wise "
                                        "independent polynomial family")
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
    _add_common(p)

    return top


def _run_table(args) -> tuple[dict, str | None, bool]:
    table = StirlingTable.build(args.qmax)
    if args.what == "stirling":
        result = {"q_max": args.qmax, "what": "stirling",
                  "rows": [[str(v) for v in row] for row in table.rows]}
        csv_text = "\n".join(",".join(str(v) for v in row)
                             for row in table.rows) + "\n"
    else:
        bells = table.bells()
        result = {"q_max": args.qmax, "what": "bell",
                  "bells": [str(v) for v in bells.values]}
        csv_text = "q,bell\n" + "\n".join(
            f"{q},{v}" for q, v in enumerate(bells.values)) + "\n"
    return result, csv_text, True


def _run_moment(args) -> tuple[dict, str | None, bool]:
    order = args.order if args.order is not None else args.q
    table = StirlingTable.build(order)
    inst = BallsBinsInstance(args.balls, args.bins, args.q)
    res = raw_moment(inst, order, table)
    return serialize.moment_dict(res), None, True


def _run_lemma2(args) -> tuple[dict, str | None, bool]:
    table = _bells(args.q, args.cache_dir)
    cert = lemma2_certificate(args.q, 1 << args.log2m, table)
    return serialize.certificate_dict(cert), None, not cert.vacuous


def _run_pz(args) -> tuple[dict, str | None, bool]:
    table = StirlingTable.build(args.q)
    inst = BallsBinsInstance(1 << args.log2m, 1 << args.log2m, args.q)
    cert = pz_bound(inst, _parse("--theta", Fraction, args.theta), table)
    return serialize.certificate_dict(cert), None, not cert.vacuous


def _run_asymptotics(args) -> tuple[dict, str | None, bool]:
    bells = _bells(args.qmax, args.cache_dir)
    rows = []
    for q in range(max(3, args.qmin), args.qmax + 1, args.step):
        est = estimate_residual(q, bells)
        rows.append({
            "q": q,
            "estimate": serialize.interval_dict(est.estimate),
            "exact": serialize.interval_dict(est.exact),
            "residual": serialize.interval_dict(est.residual),
            "scaled_residual": serialize.interval_dict(est.scaled_residual),
        })
    header = ["q"]
    for name in ("estimate", "exact", "residual", "scaled_residual"):
        header += [f"{name}_lo", f"{name}_hi"]
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r["q"])]
        for name in ("estimate", "exact", "residual", "scaled_residual"):
            cells += [r[name]["lo"], r[name]["hi"]]
        lines.append(",".join(cells))
    return {"rows": rows}, "\n".join(lines) + "\n", True


def _run_condense(args) -> tuple[dict, str | None, bool]:
    if args.condense_cmd == "check":
        table = _bells(args.q, args.cache_dir)
        verdict = impossibility_certificate(
            args.q, args.k, table,
            loss=_parse("--loss", Fraction, args.loss),
            log2_inv_eps=_parse("--log2eps", Fraction, args.log2eps))
        ok = verdict.feasible == FEASIBLE_IMPOSSIBLE
        return serialize.verdict_dict(verdict), None, ok
    if args.condense_cmd == "minq":
        table = _bells(args.qmax, args.cache_dir)
        L = _parse("--log2eps", Fraction, args.log2eps)
        loss = _parse("--loss", Fraction, args.loss)
        q_minus = necessary_independence(L, args.k, loss, table)
        result = {
            "k": args.k,
            "target": {"loss": serialize.rational_dict(loss),
                       "log2_inv_eps": serialize.rational_dict(L)},
            "q_lower_bound": q_minus,
            "verdict_at_bound": None,
        }
        if q_minus is not None:
            verdict = impossibility_certificate(q_minus, args.k, table,
                                                loss=loss, log2_inv_eps=L)
            result["verdict_at_bound"] = serialize.verdict_dict(verdict)
        return result, None, q_minus is not None
    # sweep
    table = _bells(args.qmax, args.cache_dir)
    eps_list = _parse_list("--log2eps", Fraction, args.log2eps)
    rows = asymptotic_gap_report(eps_list, args.k, table,
                                 loss=_parse("--loss", Fraction, args.loss))
    ok = all(r.q_minus is not None for r in rows)
    return serialize.gap_rows_dict(rows), None, ok


def _run_simulate(args, threads: int) -> tuple[dict, str | None, bool]:
    orders = _parse_list("--orders", int, args.orders)
    thresholds = _parse_list("--thresholds", parse_dyadic, args.thresholds)
    if args.mode == "independent":
        if args.balls is None or args.bins is None:
            raise CondboundError(
                "independent mode requires --balls and --bins")
        report = independent_oracle(args.balls, args.bins, orders,
                                    args.trials, args.master_seed,
                                    thresholds=thresholds, threads=threads)
    else:
        if args.w is None or args.q is None:
            raise CondboundError("simulate requires --w and --q")
        spec = HashFamilySpec.create(args.w, args.q,
                                     output_bits=args.output_bits)
        if args.mode == "exact":
            dist = exact_small_oracle(spec)
            result = {
                "mode": "exact",
                "field_bits": spec.field_bits,
                "degree": spec.degree,
                "output_bits": spec.output_bits,
                "modulus": spec.modulus,
                "distribution": [
                    {"load": s, "probability": serialize.rational_dict(p)}
                    for s, p in sorted(dist.support.items())],
                "moments": [
                    {"order": k, "value": serialize.rational_dict(dist.moment(k))}
                    for k in orders],
                "tails": [
                    {"threshold": tok, "probability":
                     serialize.rational_dict(dist.tail_ge(t))}
                    for tok, t in zip(
                        filter(None, args.thresholds.split(",")), thresholds)],
            }
            return result, None, True
        config = SimulationConfig(spec, trials=args.trials,
                                  master_seed=args.master_seed,
                                  balls=args.balls, moment_orders=orders,
                                  thresholds=thresholds)
        report = run_trials(config, threads=threads)
    result = serialize.report_dict(report)
    csv_text = "load,count\n" + "\n".join(
        f"{load},{count}" for load, count in report.histogram) + "\n"
    return result, csv_text, True


def _parameter_echo(args) -> dict:
    skip = {"subcommand", "condense_cmd", "format", "strict", "threads",
            "cache_dir", "func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args.subcommand
    try:
        threads = _threads(args)
        if sub == "table":
            result, csv_text, ok = _run_table(args)
        elif sub == "moment":
            result, csv_text, ok = _run_moment(args)
        elif sub == "lemma2":
            result, csv_text, ok = _run_lemma2(args)
        elif sub == "pz":
            result, csv_text, ok = _run_pz(args)
        elif sub == "asymptotics":
            result, csv_text, ok = _run_asymptotics(args)
        elif sub == "condense":
            result, csv_text, ok = _run_condense(args)
            sub = f"condense {args.condense_cmd}"
        elif sub == "simulate":
            result, csv_text, ok = _run_simulate(args, threads)
        else:  # pragma: no cover
            parser.error(f"unknown subcommand {sub}")
    except CondboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        env = serialize.envelope(sub, _parameter_echo(args), result, "json")
        sys.stdout.write(serialize.to_json(env) + "\n")
    else:
        sys.stdout.write(csv_text if csv_text is not None
                         else serialize.to_generic_csv(result))
    if args.strict and not ok:
        return EXIT_STRICT
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
