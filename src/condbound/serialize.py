"""Stable machine-readable output shapes.

Conventions: every rational is a {"num", "den"} pair of decimal strings;
every enclosure is a {"lo", "hi"} pair of dyadic strings ("m" or "m/2^k").
No rational or enclosure is ever serialised through floating point, so
payloads re-parse into the producing types without loss.  Empirical
statistics (means, standard errors) are genuine floats and stay floats.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import threading
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .anticonc import AntiConcentrationCertificate
from .asymptotic import AsymptoticEstimate
from .combinat import StirlingTable
from .condenser import CondenserVerdict, GapRow
from .errors import PreconditionError
from .hashsim import ExactLoadDistribution, HashFamilySpec, SimulationReport
from .intervals import FloatInterval, dyadic_str
from .moments import MomentResult

_DIGIT_LIMIT_LOCK = threading.Lock()


def _any_length(convert, value):
    """convert(value) with the interpreter-wide int/str digit limit (4300 by
    default) lifted under a lock; exact values at the caps run past it."""
    with _DIGIT_LIMIT_LOCK:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def decimal(n: int) -> str:
    return _any_length(str, n)


def rational_dict(fr) -> dict:
    fr = Fraction(fr)
    return {"num": decimal(fr.numerator), "den": decimal(fr.denominator)}


def parse_rational(d: dict) -> Fraction:
    return Fraction(_any_length(int, d["num"]), _any_length(int, d["den"]))


def interval_dict(iv: FloatInterval) -> dict:
    return {"lo": dyadic_str(iv.lo), "hi": dyadic_str(iv.hi)}


def _log2_exact(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise PreconditionError(
            "certificate serialisation requires M to be a power of two")
    return n.bit_length() - 1


def certificate_dict(cert: AntiConcentrationCertificate) -> dict:
    out = {
        "q": cert.q,
        "log2M": _log2_exact(cert.M),
        "tau_lo": dyadic_str(cert.threshold.lo),
        "tau_hi": dyadic_str(cert.threshold.hi),
        "p_num": decimal(cert.probability.numerator),
        "p_den": decimal(cert.probability.denominator),
        "vacuous": cert.vacuous,
        "variant": cert.variant,
    }
    if cert.theta is not None:
        out["theta"] = rational_dict(cert.theta)
    return out


def moment_dict(res: MomentResult) -> dict:
    return {
        "balls": decimal(res.instance.balls),
        "bins": decimal(res.instance.bins),
        "independence": res.instance.independence,
        "order": res.order,
        "value": rational_dict(res.value),
        "log2_value": interval_dict(res.log2_value),
    }


def verdict_dict(v: CondenserVerdict) -> dict:
    red, params, claim = v.reduction, v.params, v.reference_claim
    targeted = (params.loss_bits is not None
                or params.log2_inv_eps is not None)
    return {
        "q": params.independence,
        "k": params.entropy_k,
        "feasible": v.feasible,
        "certificate": certificate_dict(v.certificate),
        "ell_star": None if red is None else dyadic_str(red.ell_star.lo),
        "log2_eps_star_lo":
            None if red is None else dyadic_str(red.log2_eps_star.lo),
        "reduction": None if red is None else {
            "tau_lo": dyadic_str(red.tau_lo),
            "ell_star": interval_dict(red.ell_star),
            "epsilon_star": rational_dict(red.epsilon_star),
            "log2_eps_star": interval_dict(red.log2_eps_star),
        },
        "target": None if not targeted else {
            "loss": None if params.loss_bits is None
            else rational_dict(params.loss_bits),
            "log2_inv_eps": None if params.log2_inv_eps is None
            else rational_dict(params.log2_inv_eps),
        },
        "target_covered": v.target_covered,
        "reference_claim": None if claim is None else {
            "loss": rational_dict(claim["loss"]),
            "log2_inv_eps": rational_dict(claim["log2_inv_eps"]),
            "claim_covered_by_certificate":
                claim.get("claim_covered_by_certificate"),
        },
    }


def gap_rows_dict(rows: list[GapRow]) -> dict:
    return {"rows": [{
        "log2_inv_eps": rational_dict(r.log2_inv_eps),
        "q_plus": r.q_plus,
        "q_minus": r.q_minus,
        "ratio": None if r.ratio is None else rational_dict(r.ratio),
        "band_lo": r.band_lo,
        "band_hi": r.band_hi,
        "within_band": r.within_band,
    } for r in rows]}


def minq_dict(k: int, loss, log2_inv_eps, q_minus: int | None,
              verdict: CondenserVerdict | None) -> dict:
    return {
        "k": k,
        "target": {"loss": rational_dict(loss),
                   "log2_inv_eps": rational_dict(log2_inv_eps)},
        "q_lower_bound": q_minus,
        "verdict_at_bound": None if verdict is None else verdict_dict(verdict),
    }


def table_dict(table: StirlingTable, what: str) -> dict:
    if what == "stirling":
        return {"q_max": table.q_max, "what": what,
                "rows": [[decimal(v) for v in row] for row in table.rows]}
    return {"q_max": table.q_max, "what": what,
            "bells": [decimal(v) for v in table.bells().values]}


def table_rows(result: dict) -> list:
    if result["what"] == "stirling":
        return result["rows"]
    return [("q", "bell"), *enumerate(result["bells"])]


_ESTIMATE_FIELDS = ("estimate", "exact", "residual", "scaled_residual")


def asymptotics_dict(estimates: list[AsymptoticEstimate]) -> dict:
    return {"rows": [
        {"q": est.q, **{name: interval_dict(getattr(est, name))
                        for name in _ESTIMATE_FIELDS}}
        for est in estimates]}


def asymptotics_rows(result: dict) -> list:
    """CSV rows: q, then the lo and hi end of each enclosure."""
    ends = [(name, end) for name in _ESTIMATE_FIELDS for end in ("lo", "hi")]
    return [["q", *(f"{name}_{end}" for name, end in ends)],
            *([row["q"], *(row[name][end] for name, end in ends)]
              for row in result["rows"])]


def distribution_dict(spec: HashFamilySpec, dist: ExactLoadDistribution,
                      orders, thresholds) -> dict:
    return {
        "mode": "exact",
        **asdict(spec),
        "distribution": [{"load": s, "probability": rational_dict(p)}
                         for s, p in sorted(dist.support.items())],
        "moments": [{"order": k, "value": rational_dict(dist.moment(k))}
                    for k in orders],
        "tails": [
            {"threshold": dyadic_str(t),
             "probability": rational_dict(dist.tail_ge(t))}
            for t in thresholds],
    }


def report_dict(rep: SimulationReport) -> dict:
    return {
        "config": dict(rep.config_echo),
        "trials": rep.trials,
        "se_defined": rep.se_defined,
        "moments": [{
            "order": m.order,
            "mean": m.mean,
            "se": m.se,
            "exact": None if m.exact is None else rational_dict(m.exact),
        } for m in rep.moments],
        "tails": [{
            "threshold": dyadic_str(t.threshold),
            "frequency": t.frequency,
            "se": t.se,
        } for t in rep.tails],
        "histogram": [[load, count] for load, count in rep.histogram],
    }


def histogram_rows(result: dict) -> list:
    return [("load", "count"), *result["histogram"]]


def envelope(subcommand: str, parameters: dict, result) -> dict:
    return {
        "tool": "condbound",
        "version": __version__,
        "subcommand": subcommand,
        "format": "json",
        "parameters": parameters,
        "result": result,
    }


def to_json(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True, allow_nan=False)


def flatten(value, prefix: str = "") -> list[tuple[str, str]]:
    """Depth-first (path, value) leaves; values rendered as plain strings."""
    if isinstance(value, dict):
        out = []
        for key in value:
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.extend(flatten(value[key], sub))
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for i, item in enumerate(value):
            out.extend(flatten(item, f"{prefix}[{i}]"))
        return out
    if value is None:
        return [(prefix, "")]
    if value is True or value is False:
        return [(prefix, "true" if value else "false")]
    return [(prefix, str(value))]


def to_csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
