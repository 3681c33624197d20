import random
import sys
from fractions import Fraction

import pytest

from condbound.errors import PreconditionError
from condbound.intervals import (_GUARD, FloatInterval, any_length,
                                 dyadic_str, ln_interval, log2_interval,
                                 nth_root, parse_dyadic)
from oracles import iroot_floor

# ln(2) to 60 digits, frozen from mpmath.log(2) at mp.dps=60
LN2_60 = Fraction(
    "0.693147180559945309417232121458176568075500134360255254120680")


def test_log2_powers_of_two_exact():
    for e in [0, 1, 3, 10, 100]:
        iv = log2_interval(1 << e)
        assert iv.lo == iv.hi == e


def test_log2_zero_rejected():
    with pytest.raises(PreconditionError):
        log2_interval(0)


def test_log2_width_bound():
    for x in [3, 5, 7, 1000, 10 ** 30, 3 ** 200]:
        iv = log2_interval(x)
        assert iv.width <= Fraction(1, 2 ** 254)


def test_log2_containment_exact_dyadic_comparison():
    # at low precision the bound 2^lo <= x <= 2^hi is checkable exactly:
    # lo = a/2^f means 2^a <= x^(2^f)
    f = 8
    for x in [3, 5, 6, 7, 9, 100, 12345]:
        iv = log2_interval(x, frac_bits=f)
        a, b = iv.lo_scaled, iv.hi_scaled
        assert 2 ** a <= x ** (2 ** f)
        assert x ** (2 ** f) <= 2 ** b


def test_ln2_against_frozen_digits():
    # LN2_60 is a 60-digit truncation, so both endpoints lie within 1e-58
    iv = ln_interval(2)
    tol = Fraction(1, 10 ** 58)
    assert LN2_60 - tol <= iv.lo and iv.hi <= LN2_60 + tol
    assert iv.width <= Fraction(1, 2 ** 250)


def test_ln_log2_consistency():
    # ln(x) must contain log2(x)*ln(2) for exact cross-check points
    for x in [3, 10, 997]:
        lniv = ln_interval(x)
        l2iv = log2_interval(x)
        prod = l2iv * ln_interval(2)
        assert max(lniv.lo, prod.lo) <= min(lniv.hi, prod.hi)


def test_integer_argument_skips_ln_of_one():
    # an integer is a rational with denominator 1 whose ln(den) = ln 1 is
    # not added: ln 1 starts at exactly 0, and n and Fraction(n) agree bit
    # for bit
    assert ln_interval(1).lo == 0
    assert log2_interval(1) == FloatInterval.from_int(0)
    for n in range(1, 3000):
        assert log2_interval(n) == log2_interval(Fraction(n)), n
        assert ln_interval(n) == ln_interval(Fraction(n)), n


def test_ln_of_interval_monotone_endpoints():
    base = log2_interval(10)  # some positive interval
    iv = ln_interval(base)
    assert iv.lo <= iv.hi
    # containment of ln of any point inside, checked via exp bracketing on
    # a rational sample: ln(r) in [iv.lo, iv.hi] for r = midpoint
    mid = (base.lo + base.hi) / 2
    direct = ln_interval(mid)
    assert iv.lo <= direct.lo and direct.hi <= iv.hi


def test_iroot_exactness_random():
    rng = random.Random(12345)
    for _ in range(500):
        n = rng.randint(1, 40)
        x = rng.getrandbits(rng.randint(1, 256))
        r = iroot_floor(x, n)
        assert r ** n <= x < (r + 1) ** n


def _nth_root_by_two_roots(fr: Fraction, n: int,
                           frac_bits: int) -> FloatInterval:
    """nth_root as two integer roots: the floor root of floor(t / den) and
    the ceiling root of ceil(t / den), t = num * 2^(n * prec).  A
    power-of-two den divides by shifts, so the pz-shaped operands, whose
    den has millions of bits, take no long division."""
    prec = frac_bits + _GUARD
    t, den = fr.numerator << (n * prec), fr.denominator
    if den & (den - 1) == 0:
        k = den.bit_length() - 1
        down, up = t >> k, -(-t >> k)
    else:
        down, rem = divmod(t, den)
        up = down + (rem != 0)
    lo = iroot_floor(down, n)
    hi = iroot_floor(up, n)
    if hi ** n != up:
        hi += 1
    return FloatInterval(lo >> _GUARD, -(-hi >> _GUARD), frac_bits)


def _lemma2_power(q: int, bells) -> Fraction:
    """tau^q = B_{q/2}^2 / 4^(q/2), the operand of lemma2's root."""
    return Fraction(bells.bell(q // 2) ** 2, 4 ** (q // 2))


def test_nth_root_matches_two_roots(bells1024):
    cases = [(_lemma2_power(q, bells1024), q, 256)
             for q in (4, 64, 90, 174, 338, 652, 1028, 2048)]
    # pz's tau^q at q = 2048 and M = N = 2^1024, (theta E S^1024)^2, has a
    # numerator of about 2M bits over a power of two; a power builds one
    # without the gcd of two 2M-bit integers, and 2047 / 2048 keeps its
    # root inexact
    base = Fraction(random.Random(1024).getrandbits(1024) | 1 | 1 << 1023,
                    1 << 1021)
    cases.append((base ** 2047, 2048, 256))
    # n = 1 and the argument 0
    cases += [(Fraction(0), n, 256) for n in (1, 2, 2048)]
    cases += [(Fraction(7, 3), 1, 256), (Fraction(1, 3 ** 300), 1, 64),
              (Fraction(3 ** 300, 7), 1, 8)]
    for fr, n, frac_bits in cases:
        assert nth_root(fr, n, frac_bits) == \
            _nth_root_by_two_roots(fr, n, frac_bits), (n, frac_bits)
    assert nth_root(0, 5) == FloatInterval.from_int(0)
    rng = random.Random(2048)
    for _ in range(300):
        fr = Fraction(rng.getrandbits(rng.randint(1, 200)),
                      rng.getrandbits(rng.randint(1, 200)) + 1)
        n = rng.randint(1, 40)
        frac_bits = rng.choice((8, 64, 256))
        assert nth_root(fr, n, frac_bits) == \
            _nth_root_by_two_roots(fr, n, frac_bits), (fr, n, frac_bits)
    for _ in range(100):
        # perfect powers of a base dyadic at 8 bits: both roots are exact
        base = Fraction(rng.getrandbits(rng.randint(1, 64)),
                        1 << rng.randint(0, 8))
        n = rng.randint(1, 40)
        frac_bits = rng.choice((8, 64, 256))
        iv = nth_root(base ** n, n, frac_bits)
        assert iv == _nth_root_by_two_roots(base ** n, n, frac_bits)
        assert iv.lo == iv.hi == base, (base, n, frac_bits)
    for n in (2, 3, 1028, 2048):
        # exact powers at the caps' root orders, one an odd root
        base = Fraction(rng.getrandbits(100) | 1, 1 << 40)
        iv = nth_root(base ** n, n)
        assert iv == _nth_root_by_two_roots(base ** n, n, 256)
        assert iv.lo == iv.hi == base, n
    for n in (2, 3, 40, 150):
        # one unit either side of an exact power: the root lies far closer
        # to the integer 2^32 x than the Newton estimate's error, and the
        # endpoints at 2^-256 show on which side
        root = (rng.getrandbits(260) | 1 << 259) << _GUARD
        for unit in (-1, 1):
            fr = Fraction(root ** n + unit, 1 << (n * (256 + _GUARD)))
            assert nth_root(fr, n) == _nth_root_by_two_roots(fr, n, 256)


def test_nth_root_directed_rounding():
    for fr, n in [(Fraction(5, 3), 2), (Fraction(2), 2), (Fraction(7, 11), 5),
                  (Fraction(10 ** 40, 3), 17)]:
        iv = nth_root(fr, n)
        assert iv.lo ** n <= fr <= iv.hi ** n
        assert iv.width <= Fraction(1, 2 ** 250)


def test_nth_root_exact_when_perfect():
    iv = nth_root(Fraction(8), 3)
    assert iv.lo == iv.hi == 2


def _enclosure(fr: Fraction) -> FloatInterval:
    """The outward-rounded enclosure of a rational: 0 shifted by it."""
    return FloatInterval.from_int(0).shift(fr)


def _contains(iv: FloatInterval, fr: Fraction) -> bool:
    return iv.lo <= fr <= iv.hi


def test_interval_arithmetic_containment():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-1000, 1000), rng.randint(1, 999))
        b = Fraction(rng.randint(-1000, 1000), rng.randint(1, 999))
        ia = _enclosure(a)
        ib = _enclosure(b)
        assert _contains(ia, a) and _contains(ib, b)
        assert _contains(ia + ib, a + b)
        assert _contains(ia - ib, a - b)
        assert _contains(ia * ib, a * b)
        if b != 0 and (ib.lo > 0 or ib.hi < 0):
            assert _contains(ia / ib, a / b)
        assert _contains(ia.shift(b), a + b)


def test_log2_fraction_signs():
    iv = log2_interval(Fraction(1, 8))
    assert iv.lo == iv.hi == -3
    iv = log2_interval(Fraction(3, 4))
    assert iv.lo < 0 < -iv.lo
    # log2(3/4) = log2 3 - 2
    ref = log2_interval(3).shift(-2)
    assert max(iv.lo, ref.lo) <= min(iv.hi, ref.hi)


def test_certified_comparisons():
    a = _enclosure(Fraction(1, 3))    # lo < 1/3 < hi
    b = _enclosure(Fraction(1, 2))    # exactly 1/2
    assert b.certainly_gt(Fraction(1, 3))
    assert not a.certainly_gt(Fraction(1, 2))
    assert not a.certainly_ge(Fraction(1, 3))
    assert b.certainly_ge(Fraction(1, 2))
    assert not b.certainly_gt(Fraction(1, 2))
    assert b.certainly_gt(0) and not b.certainly_ge(1)


def test_enclosures_do_not_convert_to_float():
    # a midpoint float would pose as the value the enclosure certifies
    for iv in (log2_interval(3), FloatInterval.from_int(1), nth_root(2, 2)):
        with pytest.raises(TypeError):
            float(iv)


def test_dyadic_roundtrip():
    for fr in [Fraction(0), Fraction(5), Fraction(-3, 8), Fraction(123, 2 ** 30)]:
        assert parse_dyadic(dyadic_str(fr)) == fr
    with pytest.raises(PreconditionError):
        dyadic_str(Fraction(1, 3))
    with pytest.raises(PreconditionError):
        parse_dyadic("0.1")
    assert parse_dyadic("0.75") == Fraction(3, 4)


_LIMIT = 4300  # the interpreter's default int/str digit limit


@pytest.mark.parametrize("convert, value, lifted", [
    # an int by its bit length: 4298 digits certainly fit, and 10^4300 has
    # 4301 digits
    (str, 10 ** (_LIMIT - 2), False),
    (str, 10 ** _LIMIT, True),
    # a str by its length
    (int, "9" * _LIMIT, False),
    (int, "9" * (_LIMIT + 1), True),
    (Fraction, "1/" + "3" * (_LIMIT - 2), False),
    (Fraction, "3" * (_LIMIT + 1) + "/7", True),
], ids=["str-within", "str-past", "int-within", "int-past",
        "fraction-within", "fraction-past"])
def test_any_length_lifts_the_digit_limit_only_past_it(monkeypatch, convert,
                                                       value, lifted):
    set_limit, limit = sys.set_int_max_str_digits, sys.get_int_max_str_digits()
    set_limit(0)
    want = convert(value)
    set_limit(_LIMIT)
    sets = []
    monkeypatch.setattr(sys, "set_int_max_str_digits",
                        lambda n: sets.append(n) or set_limit(n))
    try:
        if lifted:  # the plain conversion refuses the value
            with pytest.raises(ValueError):
                convert(value)
        assert any_length(convert, value) == want
        assert sets == ([0, _LIMIT] if lifted else [])
        assert sys.get_int_max_str_digits() == _LIMIT
    finally:
        set_limit(limit)
