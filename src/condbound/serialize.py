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

from . import __version__
from .anticonc import AntiConcentrationCertificate
from .condenser import CondenserVerdict, GapRow
from .errors import PreconditionError
from .hashsim import SimulationReport
from .intervals import FloatInterval, dyadic_str
from .moments import MomentResult

TOOL_NAME = "condbound"


def rational_dict(fr) -> dict:
    fr = Fraction(fr)
    return {"num": str(fr.numerator), "den": str(fr.denominator)}


def parse_rational(d: dict) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


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
        "p_num": str(cert.probability.numerator),
        "p_den": str(cert.probability.denominator),
        "vacuous": cert.vacuous,
        "variant": cert.variant,
    }
    if cert.theta is not None:
        out["theta"] = rational_dict(cert.theta)
    return out


def moment_dict(res: MomentResult) -> dict:
    return {
        "balls": str(res.instance.balls),
        "bins": str(res.instance.bins),
        "independence": res.instance.independence,
        "order": res.order,
        "value": rational_dict(res.value),
        "log2_value": interval_dict(res.log2_value),
    }


def verdict_dict(v: CondenserVerdict) -> dict:
    out = {
        "q": v.params.independence,
        "k": v.params.entropy_k,
        "feasible": v.feasible,
        "certificate": certificate_dict(v.certificate),
        "ell_star": None,
        "log2_eps_star_lo": None,
        "reduction": None,
        "target": None,
        "target_covered": v.target_covered,
        "reference_claim": None,
    }
    if v.reduction is not None:
        red = v.reduction
        out["ell_star"] = dyadic_str(red.ell_star.lo)
        out["log2_eps_star_lo"] = dyadic_str(red.log2_eps_star.lo)
        out["reduction"] = {
            "tau_lo": dyadic_str(red.tau_lo),
            "ell_star": interval_dict(red.ell_star),
            "epsilon_star": rational_dict(red.epsilon_star),
            "log2_eps_star": interval_dict(red.log2_eps_star),
        }
    if v.params.loss_bits is not None or v.params.log2_inv_eps is not None:
        out["target"] = {
            "loss": None if v.params.loss_bits is None
            else rational_dict(v.params.loss_bits),
            "log2_inv_eps": None if v.params.log2_inv_eps is None
            else rational_dict(v.params.log2_inv_eps),
        }
    if v.reference_claim is not None:
        out["reference_claim"] = {
            "loss": rational_dict(v.reference_claim["loss"]),
            "log2_inv_eps": rational_dict(v.reference_claim["log2_inv_eps"]),
            "claim_covered_by_certificate":
                v.reference_claim.get("claim_covered_by_certificate"),
        }
    return out


def gap_rows_dict(rows: list[GapRow]) -> dict:
    out = []
    for r in rows:
        out.append({
            "log2_inv_eps": rational_dict(r.log2_inv_eps),
            "q_plus": r.q_plus,
            "q_minus": r.q_minus,
            "ratio": None if r.ratio is None else rational_dict(r.ratio),
            "band_lo": r.band_lo,
            "band_hi": r.band_hi,
            "within_band": r.within_band,
        })
    return {"rows": out}


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


def envelope(subcommand: str, parameters: dict, result, fmt: str) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "format": fmt,
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
    if isinstance(value, float):
        return [(prefix, repr(value))]
    return [(prefix, str(value))]


def to_generic_csv(result) -> str:
    lines = ["field,value"]
    for path, val in flatten(result):
        if "," in val or '"' in val:
            val = '"' + val.replace('"', '""') + '"'
        lines.append(f"{path},{val}")
    return "\n".join(lines) + "\n"
