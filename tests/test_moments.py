import tracemalloc
from fractions import Fraction

import pytest

from condbound import (BallsBinsInstance, ExactLoadDistribution,
                       moment_norm, moment_sandwich, raw_moment)
from condbound.combinat import DEFAULT_QMAX_CAP
from condbound.errors import CondboundError, PreconditionError
from condbound.moments import _moment_values

from oracles import assignment_bin0_histogram, assignment_moment


def test_first_moment_is_one_when_square():
    for M in [1, 2, 3, 17]:
        inst = BallsBinsInstance(M, M, 4)
        assert raw_moment(inst, 1).value == 1


def test_second_moment_three_brute_force():
    # frozen from the 27-assignment enumeration
    brute = assignment_moment(3, 3, 2)
    assert brute == Fraction(5, 3)
    inst = BallsBinsInstance(3, 3, 2)
    assert raw_moment(inst, 2).value == brute


def test_third_moment_four_brute_force():
    brute = assignment_moment(4, 4, 3)
    assert brute == Fraction(29, 8)
    inst = BallsBinsInstance(4, 4, 3)
    assert raw_moment(inst, 3).value == brute


def test_moment_matches_exhaustive_average_small_grid():
    # full independence is q-wise independent for every q; orders above M
    # reach the falling factorials M_(j) = 0 for j > M
    for M in range(1, 6):
        for order in range(1, 6):
            inst = BallsBinsInstance(M, M, order)
            assert raw_moment(inst, order).value == \
                assignment_moment(M, M, order), (M, order)


def test_general_M_not_N():
    # M=4 balls into N=2 bins, order 2: E S^2 = M/N + S(2,2)*M(M-1)/N^2
    inst = BallsBinsInstance(4, 2, 2)
    assert raw_moment(inst, 2).value == assignment_moment(4, 2, 2)


def test_order_above_independence_rejected():
    inst = BallsBinsInstance(8, 8, 2)
    with pytest.raises(PreconditionError, match="independence"):
        raw_moment(inst, 3)


def test_order_above_table_rejected():
    order = DEFAULT_QMAX_CAP + 1
    inst = BallsBinsInstance(8, 8, order)
    with pytest.raises(CondboundError, match="cap"):
        raw_moment(inst, order)


def test_raw_moment_keeps_one_stirling_row():
    # the full triangle to order 512 takes about 25 MiB; one row of it
    # and the integer sum over N^512 take well under 1 MiB
    inst = BallsBinsInstance(1 << 30, 1 << 30, 512)
    tracemalloc.start()
    try:
        raw_moment(inst, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_log2_value_encloses():
    inst = BallsBinsInstance(3, 3, 2)
    res = raw_moment(inst, 2)
    from condbound.intervals import log2_interval
    # log2(5/3) = log2 5 - log2 3: independent recombination must overlap
    ref = log2_interval(5) - log2_interval(3)
    assert max(res.log2_value.lo, ref.lo) <= min(res.log2_value.hi, ref.hi)
    assert res.log2_value.width <= Fraction(1, 2 ** 250)


def test_moment_norm_order_one():
    inst = BallsBinsInstance(7, 7, 3)
    iv = moment_norm(inst, 1)
    assert iv.lo == iv.hi == 1


def test_moment_norm_brackets_value():
    inst = BallsBinsInstance(3, 3, 2)
    iv = moment_norm(inst, 2)
    assert iv.lo ** 2 <= Fraction(5, 3) <= iv.hi ** 2
    inst = BallsBinsInstance(256, 256, 4)
    val = raw_moment(inst, 4).value
    iv = moment_norm(inst, 4)
    assert iv.lo ** 4 <= val <= iv.hi ** 4


def test_power_mean_monotonicity():
    # certified direction: norm_a.hi <= norm_b.lo for a < b (strict gaps
    # dwarf the enclosure widths whenever M = N > 1)
    for M in [3, 256]:
        inst = BallsBinsInstance(M, M, 8)
        norms = [moment_norm(inst, k) for k in range(1, 7)]
        for a, b in zip(norms, norms[1:]):
            assert a.hi <= b.lo


def test_sandwich_example(bells16):
    lower, upper = moment_sandwich(8, 3, bells16)
    assert lower == Fraction(105, 32)
    assert upper == 5
    exact = raw_moment(BallsBinsInstance(8, 8, 3), 3).value
    assert exact == Fraction(137, 32)
    assert lower <= exact <= upper


def test_sandwich_order_one(bells16):
    lower, upper = moment_sandwich(5, 1, bells16)
    assert lower == upper == 1


def test_sandwich_large_M_linearised(bells16):
    M = 2 ** 10
    lower, upper = moment_sandwich(M, 4, bells16)
    assert upper == 15
    assert lower >= (1 - Fraction(6, M)) * 15
    # linearised product bound: (1 - sum (i-1)/M) * B <= exact lower
    linear = (1 - Fraction(sum(i - 1 for i in range(1, 5)), M)) * 15
    assert linear <= lower


def test_sandwich_brackets_exact_grid(bells16):
    for M in [4, 8, 16, 256, 2 ** 10]:
        for order in range(2, 13):
            lower, upper = moment_sandwich(M, order, bells16)
            inst = BallsBinsInstance(M, M, order)
            exact = raw_moment(inst, order).value
            assert lower <= exact <= upper, (M, order)


def test_limit_toward_bell(bells16):
    # |E S^order - B_order| <= B_order * order^2 / (2M) for M = N
    for M in [2 ** 10, 2 ** 16]:
        for order in [2, 4, 8]:
            inst = BallsBinsInstance(M, M, order)
            val = raw_moment(inst, order).value
            bell = bells16.bell(order)
            assert abs(val - bell) <= Fraction(bell * order ** 2, 2 * M)


def test_moment_values_of_no_orders_is_empty():
    assert _moment_values(BallsBinsInstance(5, 5, 4), ()) == {}


@pytest.mark.parametrize("M", range(1, 7))
@pytest.mark.parametrize("N", range(1, 6))
def test_independent_distribution_matches_moments_and_enumeration(M, N):
    # the exhaustive independent reference reads its means from
    # _moment_values and its counts from this distribution
    dist = ExactLoadDistribution._independent(M, N)
    assert dist.total() == 1
    counts = assignment_bin0_histogram(M, N)
    assert {s: p * N ** M for s, p in dist.support.items()} == {
        s: c for s, c in enumerate(counts) if c}
    orders = range(1, 8)
    want = _moment_values(BallsBinsInstance(M, N, max(orders)), orders)
    assert {r: dist.moment(r) for r in orders} == want
