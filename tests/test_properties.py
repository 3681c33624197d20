"""Property tests: outward rounding of the interval kernels against exact
rational inequalities, and lossless round trips through ``serialize``."""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from condbound.intervals import (FloatInterval, ln_interval, log2_fraction,
                                 log2_interval, nth_root, parse_dyadic)
from condbound.serialize import (interval_dict, parse_rational,
                                 rational_dict, to_json)

# e = sum 1/k!, and the tail past k = 40 is below 2/40!
_E_LO = sum(Fraction(1, math.factorial(k)) for k in range(40))
_E_HI = _E_LO + Fraction(2, math.factorial(40))

# small frac_bits keep x^(2^frac_bits) exact and cheap; the rounding code
# is the same at every precision
frac_bits = st.integers(min_value=1, max_value=8)
positive_rationals = st.builds(Fraction, st.integers(1, 1 << 24),
                               st.integers(1, 1 << 24))
checked = settings(max_examples=60, deadline=None)


def _pow2(a: int) -> Fraction:
    return Fraction(2) ** a


def _exp_upper(a: int) -> Fraction:
    """A rational >= e^a."""
    return (_E_HI if a >= 0 else _E_LO) ** a


def _exp_lower(a: int) -> Fraction:
    """A positive rational <= e^a."""
    return (_E_LO if a >= 0 else _E_HI) ** a


def _assert_log_enclosure(iv: FloatInterval, x: Fraction, upper, lower):
    """iv encloses log_b(x), checked as b^(lo*2^f) <= x^(2^f) <= b^(hi*2^f)
    through rationals upper(a) >= b^a and lower(a) <= b^a."""
    xp = x ** (1 << iv.frac_bits)
    assert upper(iv.lo_scaled) <= xp, (iv, x)
    assert xp <= lower(iv.hi_scaled), (iv, x)


# Mantissas on both sides of the sqrt(2) switch of the ln kernel (181/128 <
# sqrt(2) < 182/128), 2^e - 1 where its argument (2-m)/(2+m) nears 0 (and
# m rounds up to 2 past the working precision), and floor(sqrt(2) * 2^100),
# whose rounded mantissa bounds straddle sqrt(2).
_SQRT2_EDGES = [181, 182, 181 << 40, 182 << 40, 255, (1 << 40) - 1,
                (1 << 80) - 1, math.isqrt(2 << 200)]


def _edge_examples(test):
    for x in _SQRT2_EDGES:
        test = example(x, 4)(test)
    return test


@checked
@given(st.integers(1, 1 << 24), frac_bits)
@_edge_examples
def test_log2_interval_encloses(x, f):
    iv = log2_interval(x, f)
    _assert_log_enclosure(iv, Fraction(x), _pow2, _pow2)
    assert iv.width <= Fraction(4, 1 << f)


@checked
@given(positive_rationals, frac_bits)
def test_log2_fraction_encloses(x, f):
    iv = log2_fraction(x, f)
    _assert_log_enclosure(iv, x, _pow2, _pow2)


@checked
@given(positive_rationals, frac_bits)
@_edge_examples
def test_ln_interval_encloses(x, f):
    iv = ln_interval(x, f)
    _assert_log_enclosure(iv, x, _exp_upper, _exp_lower)


@checked
@given(st.integers(1, 1 << 36), st.integers(0, 1 << 36), frac_bits)
@example(181 << 5, 1 << 5, 8)     # [181/128, 182/128] straddles sqrt(2)
@example(181 << 28, 1 << 28, 8)   # straddles sqrt(2) * 2^23
def test_ln_interval_of_interval_encloses(lo_scaled, extra, f):
    arg = FloatInterval(lo_scaled, lo_scaled + extra, 12)
    iv = ln_interval(arg, f)
    _assert_log_enclosure(iv, arg.lo, _exp_upper, _exp_lower)
    _assert_log_enclosure(iv, arg.hi, _exp_upper, _exp_lower)


@checked
@given(st.builds(Fraction, st.integers(0, 1 << 64), st.integers(1, 1 << 64)),
       st.integers(1, 12), st.integers(0, 300))
def test_nth_root_encloses(x, n, f):
    iv = nth_root(x, n, f)
    assert iv.lo ** n <= x <= iv.hi ** n
    assert iv.width <= Fraction(2, 1 << f)


def _json_round_trip(value):
    return json.loads(to_json({"value": value}))["value"]


# up to ~6000 decimal digits, past CPython's 4300-digit int/str limit
big_ints = st.builds(lambda m, e, r: (m << e) + r,
                     st.integers(-(1 << 64), 1 << 64), st.integers(0, 20000),
                     st.integers(0, 1 << 64))


@checked
@given(big_ints, big_ints.filter(bool))
@example(10 ** 5000 + 1, 3)
def test_rational_dict_round_trip(num, den):
    fr = Fraction(num, den)
    assert parse_rational(_json_round_trip(rational_dict(fr))) == fr


@checked
@given(big_ints, big_ints.map(abs), st.integers(0, 600))
@example(10 ** 5000, 1, 256)
def test_interval_dict_round_trip(lo_scaled, extra, f):
    iv = FloatInterval(lo_scaled, lo_scaled + extra, f)
    d = _json_round_trip(interval_dict(iv))
    assert (parse_dyadic(d["lo"]), parse_dyadic(d["hi"])) == (iv.lo, iv.hi)
