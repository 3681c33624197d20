"""Closed-form growth estimates for Bell numbers, with residual tracking.

The leading-order estimate ln(B_q)/q ~ ln q - ln ln q - 1 (the same form
bounds max_j ln S(q, j) / q) carries an uninstantiated correction term, so
nothing downstream ever relies on it: certificates use exact Bell numbers
and this module only quantifies how tight the closed form is.  Internally
everything is on the natural-log scale; conversion to base 2 happens at
reporting boundaries.
"""

from __future__ import annotations

from typing import NamedTuple

from .combinat import _stirling_rows
from .errors import PreconditionError
from .intervals import FloatInterval, ln_interval


class AsymptoticEstimate(NamedTuple):
    q: int
    estimate: FloatInterval        # ln q - ln ln q - 1
    exact: FloatInterval           # ln(B_q) / q
    residual: FloatInterval        # exact - estimate
    scaled_residual: FloatInterval  # residual * ln q / ln ln q


def _check_q(q: int):
    if q < 3:
        raise PreconditionError("estimate requires q >= 3 (ln ln q positive)")


def _closed_form(q: int) -> tuple[FloatInterval, ...]:
    """Enclosures of ln q, ln ln q and ln q - ln ln q - 1."""
    _check_q(q)
    ln_q = ln_interval(q)
    ln_ln_q = ln_interval(ln_q)
    return ln_q, ln_ln_q, (ln_q - ln_ln_q).shift(-1)


def stirling_max_log_estimate(q: int) -> FloatInterval:
    """Enclosure of ln q - ln ln q - 1, the per-q leading order of
    max_j ln S(q, j)."""
    return _closed_form(q)[2]


def estimate_residual(q: int, bells) -> AsymptoticEstimate:
    """Exact ln(B_q)/q against the closed form.

    ``bells`` is a BellSequence.  scaled_residual multiplies by
    ln q / ln ln q, the reciprocal of the correction term's stated decay.
    """
    ln_q, ln_ln_q, estimate = _closed_form(q)
    exact = ln_interval(bells.bell(q)).divide_by_int(q)
    residual = exact - estimate
    scaled = residual * (ln_q / ln_ln_q)
    return AsymptoticEstimate(q, estimate, exact, residual, scaled)


def sandwich_holds(q_max: int, bells) -> bool:
    """Exact check of max_j S(q,j) <= B_q <= q * max_j S(q,j) for every q
    in 1..q_max, over one pass of the Stirling rows."""
    if q_max < 1:
        raise PreconditionError("sandwich is stated for q >= 1: q_max >= 1")
    maxima = enumerate(map(max, _stirling_rows(q_max)))
    next(maxima)  # q = 0, where the upper side fails
    return all(m <= bells.bell(q) <= q * m for q, m in maxima)
