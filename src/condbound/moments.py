"""Exact raw moments of the load of one bin under q-wise independent hashing.

For M balls thrown q-wise independently into N bins, the load S of a fixed
bin satisfies E S^r = sum_j S(r, j) * M_(j) / N^j (falling factorial M_(j)),
exactly, for every order r up to the independence level q.  That sum reads
only row r of the Stirling triangle, so the rows are built once, up to the
highest order a caller asks for, and one is resident at a time.
Moments are kept as exact rationals; enclosures appear only at reporting
boundaries.  The M = N bracket in Bell numbers reads a ``BellSequence``.

``ExactLoadDistribution`` holds a whole load distribution as exact
rationals: the exhaustive seed oracle of ``hashsim`` fills it, and under
full independence it is Binomial(M, 1/N) in closed form, which the fully
independent reference of ``independent`` reads.  Like the rest of this
module it needs only the standard library, so exact references never
import numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .combinat import BellSequence, _stirling_rows
from .errors import PreconditionError
from .frozen import Frozen
from .intervals import FloatInterval, log2_interval, nth_root


class BallsBinsInstance(Frozen):
    """M balls into N bins with a q-wise independent assignment."""

    __slots__ = _fields = ("balls", "bins", "independence")

    def __init__(self, balls: int, bins: int, independence: int):
        if balls < 1:
            raise PreconditionError("instance requires balls >= 1")
        if bins < 1:
            raise PreconditionError("instance requires bins >= 1")
        if independence < 1:
            raise PreconditionError("instance requires independence >= 1")
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "independence", independence)


class MomentResult(NamedTuple):
    instance: BallsBinsInstance
    order: int
    value: Fraction
    log2_value: FloatInterval


def _check_order(inst: BallsBinsInstance, order: int):
    if order < 1:
        raise PreconditionError("moment order must be >= 1")
    if order > inst.independence:
        raise PreconditionError(
            f"order {order} exceeds independence {inst.independence}: the "
            "moment is not determined by q-wise independence")


def _moment_values(inst: BallsBinsInstance, orders) -> dict[int, Fraction]:
    """E S^r for every r in ``orders``, exact, from one pass over the
    Stirling rows up to the highest order.

    The sum over j of S(r, j) * M_(j) / N^j is taken as one integer,
    sum_j S(r, j) * M_(j) * N^(r-j) in Horner form, over N^r.  Every
    order is checked first, and an order above DEFAULT_QMAX_CAP is
    rejected when the rows start, before any work.  No orders give {}.
    """
    for order in orders:
        _check_order(inst, order)
    M, N = inst.balls, inst.bins
    wanted = set(orders)
    values = {}
    for r, row in enumerate(_stirling_rows(max(wanted, default=0))):
        if r in wanted:
            numer, falling = 0, 1
            for j in range(1, r + 1):
                falling *= M - j + 1    # M_(j); 0 from j = M + 1 on
                numer = numer * N + row[j] * falling
            values[r] = Fraction(numer, N ** r)
    return values


def raw_moment(inst: BallsBinsInstance, order: int) -> MomentResult:
    """E S^order as an exact reduced rational, with a log2 enclosure."""
    total = _moment_values(inst, (order,))[order]
    return MomentResult(inst, order, total, log2_interval(total))


def moment_norm(inst: BallsBinsInstance, order: int) -> FloatInterval:
    """Enclosure of (E S^order)**(1/order) with outward rounding."""
    return nth_root(raw_moment(inst, order).value, order)


def moment_sandwich(M: int, order: int,
                    bells: BellSequence) -> tuple[Fraction, int]:
    """Exact bracket for E S^order in the M = N case.

    Returns (prod_{i=1..order} (1 - (i-1)/M) * B_order, B_order); the true
    moment lies between the two.
    """
    if M < 1:
        raise PreconditionError("moment_sandwich requires M >= 1")
    if order < 1:
        raise PreconditionError("moment_sandwich requires order >= 1")
    bell = bells.bell(order)
    prod = Fraction(1)
    for i in range(1, order + 1):
        prod *= Fraction(M - (i - 1), M)
    return prod * bell, bell


class ExactLoadDistribution(Frozen):
    """Exact distribution of the load of bin 0: the probability of each
    load, over every seed of a family or every assignment of balls."""

    __slots__ = _fields = ("support",)

    def __init__(self, support: dict[int, Fraction] | None = None):
        object.__setattr__(self, "support", {} if support is None else support)

    @classmethod
    def _independent(cls, M: int, N: int) -> "ExactLoadDistribution":
        """Binomial(M, 1/N), the load of fully independent balls:
        comb(M, s) * (N-1)^(M-s) of the N^M equiprobable assignments put
        s balls in bin 0."""
        total = N ** M
        # a single bin holds every ball
        support = range(M + 1) if N > 1 else (M,)
        return cls({s: Fraction(math.comb(M, s) * (N - 1) ** (M - s), total)
                    for s in support})

    def moment(self, order: int) -> Fraction:
        if order < 1:
            raise PreconditionError("moment order must be >= 1")
        return sum((p * s ** order for s, p in self.support.items()),
                   Fraction(0))

    def tail_ge(self, threshold) -> Fraction:
        thr = Fraction(threshold)
        return sum((p for s, p in self.support.items() if s >= thr),
                   Fraction(0))

    def total(self) -> Fraction:
        return sum(self.support.values(), Fraction(0))
