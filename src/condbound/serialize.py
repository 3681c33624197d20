"""Stable machine-readable output shapes.

Conventions: every rational is a {"num", "den"} pair of decimal strings;
every enclosure is a {"lo", "hi"} pair of dyadic strings ("m" or "m/2^k").
No rational or enclosure is ever serialised through floating point, so
payloads re-parse into the producing types without loss.  Empirical
statistics (means, standard errors) are genuine floats and stay floats.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .combinat import BellSequence, _check_q_max, _stirling_rows
from .errors import PreconditionError
from .intervals import FloatInterval, any_length, dyadic_str, scaled_str
from .moments import ExactLoadDistribution, MomentResult

if TYPE_CHECKING:  # only annotations name them, so simulate loads none
    from .anticonc import AntiConcentrationCertificate
    from .asymptotic import AsymptoticEstimate
    from .condenser import CondenserVerdict, GapRow
    from .hashsim import HashFamilySpec
    from .independent import SimulationReport


def decimal(n: int) -> str:
    return any_length(str, n)


def rational_dict(fr) -> dict:
    fr = Fraction(fr)
    return {"num": decimal(fr.numerator), "den": decimal(fr.denominator)}


def parse_rational(d: dict) -> Fraction:
    return Fraction(any_length(int, d["num"]), any_length(int, d["den"]))


def interval_dict(iv: FloatInterval) -> dict:
    return {"lo": scaled_str(iv.lo_scaled, iv.frac_bits),
            "hi": scaled_str(iv.hi_scaled, iv.frac_bits)}


def _log2_exact(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise PreconditionError(
            "certificate serialisation requires M to be a power of two")
    return n.bit_length() - 1


def certificate_dict(cert: AntiConcentrationCertificate) -> dict:
    tau = interval_dict(cert.threshold)
    out = {
        "q": cert.q,
        "log2M": _log2_exact(cert.M),
        "tau_lo": tau["lo"],
        "tau_hi": tau["hi"],
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
    ell_star = interval_dict(red.ell_star)
    log2_eps_star = interval_dict(red.log2_eps_star)
    return {
        "q": params.independence,
        "k": params.entropy_k,
        "feasible": v.feasible,
        "certificate": certificate_dict(v.certificate),
        "ell_star": ell_star["lo"],
        "log2_eps_star_lo": log2_eps_star["lo"],
        "reduction": {
            "tau_lo": dyadic_str(red.tau_lo),
            "ell_star": ell_star,
            "epsilon_star": rational_dict(red.epsilon_star),
            "log2_eps_star": log2_eps_star,
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
                claim["claim_covered_by_certificate"],
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


def minq_dict(k: int, loss, log2_inv_eps,
              verdict: CondenserVerdict | None) -> dict:
    return {
        "k": k,
        "target": {"loss": rational_dict(loss),
                   "log2_inv_eps": rational_dict(log2_inv_eps)},
        "q_lower_bound": None if verdict is None
        else verdict.params.independence,
        "verdict_at_bound": None if verdict is None else verdict_dict(verdict),
    }


class _StirlingRows(list):
    """Stirling rows as decimal strings, each built when a writer reaches it.
    json's pure-Python encoder, which ``indent`` selects, writes a list by
    iterating it, so this streams the full list's bytes; C would write []."""

    def __init__(self, q_max: int):
        self.q_max = q_max

    def __len__(self) -> int:
        return self.q_max + 1

    def __iter__(self):
        return ([decimal(v) for v in row]
                for row in _stirling_rows(self.q_max))


def table_dict(q_max: int, what: str) -> dict:
    """The Stirling triangle, streamed, or the Bell numbers up to q_max."""
    _check_q_max(q_max)  # here, not at the first row: before any output
    if what == "stirling":
        return {"q_max": q_max, "what": what, "rows": _StirlingRows(q_max)}
    bells = BellSequence()
    return {"q_max": q_max, "what": what,
            "bells": [decimal(bells.bell(q)) for q in range(q_max + 1)]}


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
        "field_bits": spec.field_bits,
        "degree": spec.degree,
        "output_bits": spec.output_bits,
        "modulus": spec.modulus,
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


_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
# characters per write of write_json: one write per encoder chunk is
# slower, and a fixed count of chunks grows with the numbers they hold
_JSON_BATCH_CHARS = 1 << 16


def write_json(env: dict, out) -> None:
    """Write env as JSON and a newline, joining the encoder's chunks until
    a write holds at least _JSON_BATCH_CHARS characters."""
    batch, size = [], 0
    for chunk in _JSON.iterencode(env):
        batch.append(chunk)
        size += len(chunk)
        if size >= _JSON_BATCH_CHARS:
            out.write("".join(batch))
            batch, size = [], 0
    out.write("".join(batch) + "\n")


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


def write_csv(rows, out) -> None:
    """Write rows as comma-separated lines.  No field the CLI writes holds
    a comma, a quote or a line break, so no field needs quoting."""
    out.writelines(",".join(map(str, row)) + "\n" for row in rows)
