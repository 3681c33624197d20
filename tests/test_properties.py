"""Property tests: outward rounding of the interval kernels against exact
rational inequalities and a ``decimal`` reference, and lossless round trips
through ``serialize``."""

import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condbound import intervals
from condbound.intervals import (_GUARD, DEFAULT_FRAC_BITS, FloatInterval,
                                 _atanh_series, _ln_big_scaled, dyadic_str,
                                 ln_interval, log2_interval, nth_root,
                                 parse_dyadic)
from condbound.serialize import (interval_dict, parse_rational,
                                 rational_dict, write_json)

from oracles import (atanh_series_by_helpers, dyadic_by_fraction,
                     interval_quotient_by_fractions,
                     interval_shift_by_fractions)

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


def _edge_examples(*rest):
    def add(test):
        for x in _SQRT2_EDGES:
            test = example(x, *rest)(test)
        return test
    return add


@checked
@given(st.integers(1, 1 << 24), frac_bits)
@_edge_examples(4)
def test_log2_interval_encloses(x, f):
    iv = log2_interval(x, f)
    _assert_log_enclosure(iv, Fraction(x), _pow2, _pow2)
    assert iv.width <= Fraction(4, 1 << f)
    # an int is the rational x/1, with the same enclosure
    assert log2_interval(Fraction(x), f) == iv


@checked
@given(positive_rationals, frac_bits)
def test_log2_fraction_encloses(x, f):
    iv = log2_interval(x, f)
    _assert_log_enclosure(iv, x, _pow2, _pow2)


@checked
@given(positive_rationals, frac_bits)
@_edge_examples(4)
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


# The series kernel at the working precision of the default frac_bits, and
# the arguments the ln kernel hands it: ln 2's 1/3, both sides of the
# sqrt(2) switch (m = floor and ceil of sqrt(2) * 2^P, and the interval
# between them), m = 2 - 2^-P in the upper branch, and u = 0 and 1/2.
_P = DEFAULT_FRAC_BITS + _GUARD
_ONE = 1 << _P
_SQRT2_LO = math.isqrt(2 << 2 * _P)
_SQRT2_HI = _SQRT2_LO + 1


def _down(num: int, den: int) -> int:
    return (num << _P) // den


def _up(num: int, den: int) -> int:
    return -((-num << _P) // den)


_SERIES_ARGS = [
    (_down(1, 3), _up(1, 3)),
    (_down(_SQRT2_LO - _ONE, _SQRT2_LO + _ONE),
     _up(_SQRT2_LO - _ONE, _SQRT2_LO + _ONE)),
    (_down(2 * _ONE - _SQRT2_HI, 2 * _ONE + _SQRT2_HI),
     _up(2 * _ONE - _SQRT2_HI, 2 * _ONE + _SQRT2_HI)),
    (_down(_SQRT2_LO - _ONE, _SQRT2_LO + _ONE),
     _up(_SQRT2_HI - _ONE, _SQRT2_HI + _ONE)),
    (_down(1, 4 * _ONE - 1), _up(1, 4 * _ONE - 1)),
    (0, 0), (0, _ONE // 2), (_ONE // 2, _ONE // 2),
]


@st.composite
def series_args(draw, precs=st.integers(1, 320)):
    """(u_lo, u_hi, prec) with 0 <= u_lo <= u_hi <= 2^prec / 2."""
    prec = draw(precs)
    u_hi = draw(st.integers(0, (1 << prec) // 2))
    return draw(st.integers(0, u_hi)), u_hi, prec


def _series_examples(test):
    for u_lo, u_hi in _SERIES_ARGS:
        test = example((u_lo, u_hi, _P))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(series_args())
@_series_examples
def test_atanh_series_matches_helper_form(args):
    assert _atanh_series(*args) == atanh_series_by_helpers(*args)


# 200 significant digits.  Forming (1+u)/(1-u) loses up to 87 of them
# for u near 2^-_P, so the reference stays within a relative 10^-100 of
# the true value, below 10^-10 ulp at 2^-_P for every argument used here.
_DIGITS = 200
_TOLERANCE = Decimal("1e-100")


def _scaled(value: Decimal) -> Decimal:
    return value * (1 << _P)


def _below(n: int, value: Decimal) -> bool:
    return Decimal(n) <= value + abs(value) * _TOLERANCE


def _above(value: Decimal, n: int) -> bool:
    return value - abs(value) * _TOLERANCE <= Decimal(n)


def _two_atanh(u_scaled: int) -> Decimal:
    u = Decimal(u_scaled) / (1 << _P)
    return ((1 + u) / (1 - u)).ln()


@checked
@given(series_args(st.just(_P)))
@_series_examples
def test_atanh_series_contains_decimal_reference(args):
    lo, hi = _atanh_series(*args)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        assert _below(lo, _scaled(_two_atanh(args[0])))
        assert _above(_scaled(_two_atanh(args[1])), hi)


@checked
@given(st.integers(1, 1 << 600))
@example(_SQRT2_LO)                     # exact mantissa just below sqrt(2)
@example(_SQRT2_HI)                     # and just above
@example((_SQRT2_LO << 100) + 1)        # rounded mantissa straddling sqrt(2)
@example((1 << 600) - 1)                # m_hi rounds up to 2
@_edge_examples()
def test_ln_big_scaled_contains_decimal_reference(x):
    lo, hi = _ln_big_scaled(x, _P)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        value = _scaled(Decimal(x).ln())
        assert _below(lo, value) and _above(value, hi)


def _mp_ln_scaled(m: int):
    """ln(m / 2^_P) * 2^_P at 400 digits; compare it inside workdps(400)."""
    return mpmath.log(mpmath.mpf(m) / _ONE) * _ONE


_CELL = 1 << (_P - intervals._LN_TABLE_BITS)


def _ln_mantissa_cases():
    """(m_lo, m_hi): every table point 1 + j/64 exact and one ulp either
    side, sqrt(2) one ulp either side, and an m_hi rounded up to 2."""
    for j in range(1 << intervals._LN_TABLE_BITS):
        c = _ONE + j * _CELL
        yield c, c
        yield c + 1, c + 1
        if j:
            yield c - 1, c - 1
            yield c - 1, c + 1
    yield _SQRT2_LO, _SQRT2_LO
    yield _SQRT2_HI, _SQRT2_HI
    yield _SQRT2_LO, _SQRT2_HI
    yield 2 * _ONE - 1, 2 * _ONE


def test_ln_mantissa_contains_mpmath_reference():
    for m_lo, m_hi in _ln_mantissa_cases():
        lo, hi = intervals._ln_mantissa(m_lo, m_hi, _P)
        with mpmath.workdps(400):
            assert lo <= _mp_ln_scaled(m_lo), (m_lo, m_hi)
            assert _mp_ln_scaled(m_hi) <= hi, (m_lo, m_hi)
        # the table entry's width (up to 190 ulps at the working
        # precision) plus the short series': 2^-23 of an output ulp
        assert hi - lo <= 512 + (m_hi - m_lo), (m_lo, m_hi)


def test_log2_width_bound_at_table_points():
    # integers whose mantissa sits on, just above and just below each
    # table point keep the documented width 2^(-frac_bits + 2)
    for j in range(1, 64):
        for x in (64 + j, ((64 + j) << 400) + 1, ((64 + j) << 400) - 1):
            assert log2_interval(x).width <= Fraction(4, 1 << 256), x
            assert ln_interval(x).width <= Fraction(4, 1 << 256), x


def _outward_argument(c: int, m_lo: int, m_hi: int) -> tuple[int, int]:
    """The floor at m_lo and the ceiling at m_hi of (m - c) 2^_P / (m + c)."""
    return (math.floor(Fraction(m_lo - c, m_lo + c) * _ONE),
            math.ceil(Fraction(m_hi - c, m_hi + c) * _ONE))


# Every logarithm goes through one series argument, (m - c)/(m + c).  The
# enclosures carry about 100 ulps of slack, so the containment checks above
# pass even with that argument floored at both ends, or its ends taken at
# the wrong m; the recorded arguments do not.
def test_series_argument_rounds_outward(monkeypatch):
    for j in range(1, (1 << intervals._LN_TABLE_BITS) + 1):
        intervals._ln_table(j, _P)      # the mantissa calls read the cache
    calls, series = [], intervals._atanh_series

    def recording(u_lo, u_hi, prec):
        calls.append((u_lo, u_hi))
        return series(u_lo, u_hi, prec)

    monkeypatch.setattr(intervals, "_atanh_series", recording)
    for j in range(1, (1 << intervals._LN_TABLE_BITS) + 1):
        calls.clear()
        lo, hi = intervals._ln_table.__wrapped__(j, _P)
        m = _ONE + j * _CELL
        assert calls == [_outward_argument(_ONE, m, m)], j
        assert hi - lo <= 190, j
    for m_lo, m_hi in _ln_mantissa_cases():
        calls.clear()
        intervals._ln_mantissa(m_lo, m_hi, _P)
        c = _ONE + (m_lo - _ONE) // _CELL * _CELL
        assert calls == [_outward_argument(c, m_lo, m_hi)], (m_lo, m_hi)


def _log2_scaled(log2, arg) -> tuple[int, int]:
    """log2(arg) from ``log2`` as its bounds scaled by 2^_P, the working
    precision, before they are rounded out to the default frac_bits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "_round_out", lambda lo, hi, prec, f: (lo, hi))
        return log2(arg)


def _decimal_log2(num: int, den: int) -> Decimal:
    return _scaled((Decimal(num).ln() - Decimal(den).ln()) / Decimal(2).ln())


@checked
@given(st.integers(3, 1 << 600).filter(lambda x: x & (x - 1)))
@_edge_examples()
def test_log2_interval_contains_decimal_reference(x):
    lo, hi = _log2_scaled(log2_interval, x)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        value = _decimal_log2(x, 1)
        assert _below(lo, value) and _above(value, hi)


# ln num - ln den cancels: with num, den <= 2^600 the difference is at
# least about 2^-600 while each logarithm is below 416, so 400 digits keep
# the reference within a relative 10^-100
@checked
@given(st.builds(Fraction, st.integers(1, 1 << 600), st.integers(1, 1 << 600))
       .filter(lambda fr: (fr.numerator * fr.denominator)
               & (fr.numerator * fr.denominator - 1)))
@example(Fraction(_SQRT2_LO, _ONE))
@example(Fraction((1 << 600) - 1, (1 << 600) - 3))
@example(Fraction(3, 1 << 600))
def test_log2_fraction_contains_decimal_reference(fr):
    lo, hi = _log2_scaled(log2_interval, fr)
    with localcontext() as ctx:
        ctx.prec = 2 * _DIGITS
        value = _decimal_log2(fr.numerator, fr.denominator)
        assert _below(lo, value) and _above(value, hi)


# The quotient step alone.  Given enclosures of ln num, ln den and ln 2,
# the result must hold (n - d) / l for every n, d and l in them; at x = 3
# and 3/5 the enclosures below stand in for the kernel's.  The reference
# checks above cannot see a rounding direction swapped in this step: the
# ln enclosures carry about 100 ulps of slack, and a swap moves one ulp.
scaled_logs = st.builds(lambda lo, width: (lo, lo + width),
                        st.integers(0, 1 << 300), st.integers(0, 200))


@checked
@given(scaled_logs, scaled_logs,
       st.builds(lambda lo, width: (lo, lo + width),
                 st.integers(1 << (_P - 1), _ONE), st.integers(0, 200)))
def test_log2_quotient_rounds_outward(num_ln, den_ln, ln2):
    logs = {3: num_ln, 5: den_ln}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "_ln_big_scaled", lambda x, prec: logs[x])
        mp.setattr(intervals, "_ln2", lambda prec: ln2)
        for (lo, hi), (diff_lo, diff_hi) in [
                (_log2_scaled(log2_interval, 3), num_ln),
                (_log2_scaled(log2_interval, Fraction(3, 5)),
                 (num_ln[0] - den_ln[1], num_ln[1] - den_ln[0]))]:
            for l2 in ln2:
                assert lo <= Fraction(diff_lo << _P, l2)
                assert Fraction(diff_hi << _P, l2) <= hi


# The Fraction-free interval quotient, shift and dyadic strings against
# their exact Fraction forms: small endpoints reach zero ends and mixed
# signs, large ones carry low bits that a wrong rounding would show.
scaled_ends = st.integers(-4, 4) | st.integers(-(1 << 300), 1 << 300)
scaled_intervals = st.builds(lambda lo, width: (lo, lo + width), scaled_ends,
                             st.integers(0, 4) | st.integers(0, 1 << 300))
exact_shifts = (st.integers(-3, 3).map(Fraction)
                | st.builds(Fraction, st.integers(-(1 << 300), 1 << 300),
                            st.integers(1, 1 << 300)))
any_frac_bits = st.integers(0, 300)
kernels = settings(max_examples=300, deadline=None)


@kernels
@given(scaled_intervals,
       scaled_intervals.filter(lambda b: not b[0] <= 0 <= b[1]),
       any_frac_bits)
@example((0, 0), (1, 1), 8)
@example((-5, 0), (-3, -1), 0)
@example((0, 7), (-3, -1), 256)
@example((-5, 7), (2, 9), 3)
@example((-7, -2), (-9, -4), 1)
def test_interval_quotient_matches_fraction_form(a, b, f):
    got = FloatInterval(*a, f) / FloatInterval(*b, f)
    assert (got.lo_scaled, got.hi_scaled) == \
        interval_quotient_by_fractions(a, b, f)


@kernels
@given(scaled_intervals, exact_shifts, any_frac_bits)
@example((0, 0), Fraction(-1), 256)
@example((-5, 3), Fraction(1, 3), 0)
@example((-5, 3), Fraction(-2, 3), 2)
def test_interval_shift_matches_fraction_form(a, fr, f):
    got = FloatInterval(*a, f).shift(fr)
    assert (got.lo_scaled, got.hi_scaled) == \
        interval_shift_by_fractions(a, fr, f)


@kernels
@given(scaled_ends, any_frac_bits)
@example(0, 256)
@example(-(3 << 10), 8)
@example(5 << 300, 256)
@example(-1, 0)
def test_dyadic_strings_match_fraction_form(m, f):
    iv = FloatInterval(m, m, f)
    want = dyadic_by_fraction(m, f)
    assert interval_dict(iv) == {"lo": want, "hi": want}
    assert dyadic_str(iv.lo) == want


def _json_round_trip(value):
    out = io.StringIO()
    write_json({"value": value}, out)
    return json.loads(out.getvalue())["value"]


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
