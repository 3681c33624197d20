from fractions import Fraction

import pytest

from condbound import (BellSequence, estimate_residual,
                       stirling_max_log_estimate)
from condbound.asymptotic import sandwich_holds
from condbound.combinat import _stirling_rows
from condbound.errors import PreconditionError
from condbound.intervals import ln_interval

# frozen from mpmath at dps=62: ln q - ln ln q - 1
FROZEN = {
    3: Fraction("0.00456446105141067522091090483803"),
    16: Fraction("0.752807281701554945846903401149"),
    64: Fraction("1.7336365347132811827033545286"),
    1024: Fraction("3.99539963318707173716676891813"),
}


def _close(iv, frozen, tol=Fraction(1, 10 ** 25)):
    return frozen - tol <= iv.lo and iv.hi <= frozen + tol


def test_estimate_frozen_values():
    for q, frozen in FROZEN.items():
        iv = stirling_max_log_estimate(q)
        assert _close(iv, frozen), q
        assert iv.width <= Fraction(1, 2 ** 248)


def test_bell_estimate_same_form(bells1024):
    # ln(B_q)/q is measured against the Stirling-maximum closed form
    for q in [3, 16, 64, 1024]:
        a = stirling_max_log_estimate(q)
        b = estimate_residual(q, bells1024).estimate
        assert (a.lo, a.hi) == (b.lo, b.hi)


def test_domain_boundary():
    stirling_max_log_estimate(3)
    for bad in [0, 1, 2]:
        with pytest.raises(PreconditionError):
            stirling_max_log_estimate(bad)


def test_residual_q8(bells1024):
    est = estimate_residual(8, bells1024)
    assert bells1024.bell(8) == 4140
    # exact = ln(4140)/8, residual = exact - estimate, all as enclosures
    exact_ref = ln_interval(4140).divide_by_int(8)
    assert max(est.exact.lo, exact_ref.lo) <= min(est.exact.hi, exact_ref.hi)
    diff = est.exact - est.estimate
    assert max(est.residual.lo, diff.lo) <= min(est.residual.hi, diff.hi)
    # scaled residual stays positive and of unit order here
    assert Fraction(1) < est.scaled_residual.lo < est.scaled_residual.hi < 3


def test_residual_large_q(bells1024):
    for q in [64, 512]:
        est = estimate_residual(q, bells1024)
        assert est.scaled_residual.width < Fraction(1, 2 ** 200)
        assert 1 < est.scaled_residual.lo and est.scaled_residual.hi < 2


def test_estimate_monotone_on_enclosures():
    prev = None
    for q in range(8, 257):
        iv = stirling_max_log_estimate(q)
        if prev is not None:
            assert prev.hi < iv.lo, q
        prev = iv


def test_sandwich_small_range(bells1024):
    for q_max in (1, 2, 256):
        assert sandwich_holds(q_max, bells1024)
    with pytest.raises(PreconditionError):
        sandwich_holds(0, bells1024)


def test_sandwich_uses_exact_values():
    bells = BellSequence()
    assert max(list(_stirling_rows(4))[4]) == 7  # S(4,2) is the row maximum
    assert bells.bell(4) == 15
    assert 7 <= 15 <= 4 * 7
    # a Bell number off by one breaks the exact check at its q alone
    wrong = BellSequence(bells.values[:4] + [7 - 1])
    assert sandwich_holds(3, wrong)
    assert not sandwich_holds(4, wrong)
