"""The fully independent balls-into-bins reference, and the report that
every load experiment returns.

``independent_oracle`` throws M balls into N bins, each ball uniform and
independent of the others.  Up to 2^20 assignments it reads bin 0's exact
load distribution, Binomial(M, 1/N), from ``moments`` and imports no
numpy; past that it samples through ``hashsim``'s load driver, which only
that branch imports.  ``SimulationReport`` is what it and the Monte Carlo
runs of ``hashsim`` return.

Only ``simulate``, ``hashsim`` and the reference's callers import this
module, so the exact commands do not build its record types.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import CapacityError, PreconditionError
from .moments import BallsBinsInstance, ExactLoadDistribution, _moment_values

# N^M assignments up to which the reference enumerates them
_EXHAUSTIVE_ASSIGNMENT_CAP = 1 << 20


class MomentStat(NamedTuple):
    order: int
    mean: float
    se: float | None
    exact: Fraction | None


class TailStat(NamedTuple):
    threshold: Fraction
    frequency: float
    se: float | None


class SimulationReport(NamedTuple):
    config_echo: dict
    trials: int
    moments: tuple[MomentStat, ...]
    tails: tuple[TailStat, ...]
    histogram: tuple[tuple[int, int], ...]   # (load, count) over (trial, bin)
    se_defined: bool


def _finite(value, what: str) -> float:
    """value as a float64, which must be finite (else ``what`` is named)."""
    if not abs(value) <= sys.float_info.max:
        raise CapacityError(f"{what} is not finite in float64")
    return float(value)


def _check_master_seed(master_seed: int):
    if not 0 <= master_seed < 1 << 128:
        raise PreconditionError(
            f"master seed must be in [0, 2^128), got {master_seed}")


def independent_oracle(M: int, N: int, orders, trials: int, master_seed: int,
                       thresholds=(), threads: int = 1) -> SimulationReport:
    """Fully independent balls-into-bins reference experiment.

    When N^M <= 2^20, sampling is replaced by the exact distribution: bin
    0's load is Binomial(M, 1/N) (``ExactLoadDistribution._independent``).
    The report then carries its tails and histogram, and zero-noise means
    equal to the exact moments.  Otherwise ``trials`` seeded trials of M
    balls run through the load driver of ``hashsim``, which only this
    branch imports.
    """
    _check_master_seed(master_seed)
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    orders = tuple(orders)
    thresholds = tuple(Fraction(t) for t in thresholds)
    inst = BallsBinsInstance(M, N, max((1, *orders)))
    # N >= 2 puts N^M past the cap once M > 20, so N^M is never built large
    if N == 1 or M <= 20 and N ** M <= _EXHAUSTIVE_ASSIGNMENT_CAP:
        exact_refs = _moment_values(inst, orders)
        dist = ExactLoadDistribution._independent(M, N)
        # one of the N^M assignments puts every ball in bin 0
        total = dist.support[M].denominator
        moments = tuple(MomentStat(
            k, _finite(exact_refs[k], f"the mean of moment order {k}"), None,
            exact_refs[k]) for k in orders)
        tails = tuple(TailStat(t, float(dist.tail_ge(t)), None)
                      for t in thresholds)
        histogram = tuple((s, int(p * total))
                          for s, p in dist.support.items())
        echo = {"mode": "independent-exhaustive", "balls": M, "bins": N,
                "assignments": total, "master_seed": master_seed}
        return SimulationReport(echo, 1, moments, tails, histogram, False)

    from .hashsim import independent_trials
    return independent_trials(M, N, orders, thresholds, trials, master_seed,
                              threads, inst)
