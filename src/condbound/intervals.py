"""Dyadic interval arithmetic with outward rounding.

Every quantity that is not an exact rational (logarithms, fractional
powers) is represented as a closed interval [lo, hi] whose endpoints are
dyadic rationals ``m / 2**frac_bits``.  All operations round outward, so
the represented real number is always contained in the result.  The
arithmetic is exact on integers; the one float only seeds the Newton
iteration of ``nth_root``, whose root is then checked exactly.

There is one ln kernel and one log2 kernel: ``ln_interval`` and
``log2_interval`` take any positive rational (an int is one) and bound
ln(num) - ln(den); ``log2_interval`` divides by an enclosure of ln 2.
Every logarithm comes from ln m = ln c + 2 atanh((m - c)/(m + c)).  At
c = 1 it fills the lazy table of ln(1 + j/64), j = 1..64, whose last entry
is ln 2 (widths up to 190 ulps at the working precision).  An integer
x = 2^e * m, m in [1, 2), gives ln x = e ln 2 + ln m with c = 1 + j/64 at
or below m, so the argument stays below 2^-7: at most 21 series terms at
the default precision.
"""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError
from .frozen import Frozen

DEFAULT_FRAC_BITS = 256

# extra working bits so that series truncation and intermediate rounding
# stay far below one output ulp
_GUARD = 32

# ln(m) on [1, 2) starts from a table of ln(1 + j/64), j = 0..63
_LN_TABLE_BITS = 6

# bits below the unit that nth_root's Newton estimate keeps
_ROOT_GUARD = 64

_DIGIT_LIMIT_LOCK = threading.Lock()


def _within_digit_limit(value, limit: int) -> bool:
    """Whether converting value (an int to decimal, or a str to a number)
    certainly stays within a digit limit of ``limit`` > 0 digits: a str by
    its length, an int by its bit length (a b-bit int has at most
    floor(b * 0.30103) + 1 decimal digits)."""
    if isinstance(value, str):
        return len(value) <= limit
    if isinstance(value, int):
        return value.bit_length() * 30103 // 100000 < limit
    return False


def any_length(convert, value):
    """convert(value), past the interpreter-wide int/str digit limit (4300
    by default) too: exact values at the caps run past it.  A value
    certainly within the limit converts directly; any other converts with
    the limit lifted under a lock.  A limit of 0 takes the lock too: it
    may be another thread's lift, about to be restored."""
    limit = sys.get_int_max_str_digits()
    if limit and _within_digit_limit(value, limit):
        return convert(value)
    with _DIGIT_LIMIT_LOCK:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class FloatInterval(Frozen):
    """Certified enclosure [lo, hi] with dyadic endpoints at 2**-frac_bits."""

    __slots__ = _fields = ("lo_scaled", "hi_scaled", "frac_bits")

    def __init__(self, lo_scaled: int, hi_scaled: int,
                 frac_bits: int = DEFAULT_FRAC_BITS):
        if lo_scaled > hi_scaled:
            raise PreconditionError("interval endpoints out of order")
        object.__setattr__(self, "lo_scaled", lo_scaled)
        object.__setattr__(self, "hi_scaled", hi_scaled)
        object.__setattr__(self, "frac_bits", frac_bits)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, frac_bits: int = DEFAULT_FRAC_BITS) -> "FloatInterval":
        return cls(n << frac_bits, n << frac_bits, frac_bits)

    # -- accessors ---------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_scaled, 1 << self.frac_bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_scaled, 1 << self.frac_bits)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_scaled - self.lo_scaled, 1 << self.frac_bits)

    # -- arithmetic (outward) ----------------------------------------------

    def _check(self, other: "FloatInterval"):
        if self.frac_bits != other.frac_bits:
            raise PreconditionError("mixed frac_bits in interval arithmetic")

    def __add__(self, other: "FloatInterval") -> "FloatInterval":
        self._check(other)
        return FloatInterval(self.lo_scaled + other.lo_scaled,
                             self.hi_scaled + other.hi_scaled, self.frac_bits)

    def __sub__(self, other: "FloatInterval") -> "FloatInterval":
        self._check(other)
        return FloatInterval(self.lo_scaled - other.hi_scaled,
                             self.hi_scaled - other.lo_scaled, self.frac_bits)

    def __mul__(self, other: "FloatInterval") -> "FloatInterval":
        self._check(other)
        fb = self.frac_bits
        prods = [self.lo_scaled * other.lo_scaled, self.lo_scaled * other.hi_scaled,
                 self.hi_scaled * other.lo_scaled, self.hi_scaled * other.hi_scaled]
        return FloatInterval(min(prods) // (1 << fb),
                             _ceil_div(max(prods), 1 << fb), fb)

    def __truediv__(self, other: "FloatInterval") -> "FloatInterval":
        self._check(other)
        if other.lo_scaled <= 0 <= other.hi_scaled:
            raise PreconditionError("interval division by an interval containing 0")
        fb = self.frac_bits
        # floor and ceiling are monotone, so the least floored quotient is
        # the floor of the least quotient, and so on for the greatest
        ends = [(a << fb, b) for a in (self.lo_scaled, self.hi_scaled)
                for b in (other.lo_scaled, other.hi_scaled)]
        return FloatInterval(min(a // b for a, b in ends),
                             max(-(-a // b) for a, b in ends), fb)

    def shift(self, fr) -> "FloatInterval":
        """Add an exact rational, outward rounded."""
        fr = Fraction(fr)
        den, fb = fr.denominator, self.frac_bits
        offset = fr.numerator << fb
        return FloatInterval((self.lo_scaled * den + offset) // den,
                             _ceil_div(self.hi_scaled * den + offset, den), fb)

    def divide_by_int(self, n: int) -> "FloatInterval":
        if n <= 0:
            raise PreconditionError("divide_by_int requires n > 0")
        return FloatInterval(self.lo_scaled // n,
                             _ceil_div(self.hi_scaled, n), self.frac_bits)

    # -- certified comparisons with an exact rational ----------------------

    def certainly_gt(self, value) -> bool:
        return self.lo > value

    def certainly_ge(self, value) -> bool:
        return self.lo >= value


# -- fixed point series kernels (positive domain, directed rounding) -------
#
# Internally numbers are integers scaled by 2**prec.  *_down / *_up name the
# rounding direction of the returned value.

def _div_down(a: int, b: int, prec: int) -> int:
    return (a << prec) // b


def _div_up(a: int, b: int, prec: int) -> int:
    return _ceil_div(a << prec, b)


def _atanh_series(u_lo: int, u_hi: int, prec: int) -> tuple[int, int]:
    """Bounds for 2*atanh(u) = 2*sum u^(2k+1)/(2k+1), 0 <= u <= 1/2.

    Inputs are scaled by 2**prec.  The tail after the last kept term is
    bounded by the geometric series t_last * u^2 / (1 - u^2) with
    1/(1-u^2) <= 4/3 for u <= 1/2.

    The loop inlines the directed roundings: ``(a * b) >> prec`` floors a
    scaled product, ``-((-a * b) >> prec)`` ceils it, and ``-(-a // d)``
    ceils a quotient.
    """
    if not 0 <= u_lo <= u_hi <= (1 << prec) // 2 + 1:
        raise PreconditionError("atanh series requires 0 <= u <= 1/2")
    usq_lo = (u_lo * u_lo) >> prec
    usq_hi = -((-u_hi * u_hi) >> prec)
    lo_sum, hi_sum = u_lo, u_hi
    pow_lo, pow_hi = u_lo, u_hi
    d = 3  # the odd divisor 2k + 1 of term k
    while True:
        pow_lo = (pow_lo * usq_lo) >> prec
        pow_hi = -((-pow_hi * usq_hi) >> prec)
        lo_sum += pow_lo // d
        hi_sum -= -pow_hi // d
        if pow_hi <= 1:
            break
        d += 2
    # tail bound from the first omitted term
    tail_hi = -((-pow_hi * usq_hi) >> prec)
    tail_hi = _ceil_div(tail_hi, d + 2)
    tail_hi = _ceil_div(4 * tail_hi, 3) + 1
    return 2 * lo_sum, 2 * (hi_sum + tail_hi)


def _atanh_ratio(c: int, m_lo: int, m_hi: int, prec: int) -> tuple[int, int]:
    """Bounds for ln(m/c) = 2*atanh((m-c)/(m+c)), c <= m_lo <= m <= m_hi;
    the argument is rounded outward (floor at m_lo, ceiling at m_hi)."""
    return _atanh_series(_div_down(m_lo - c, m_lo + c, prec),
                         _div_up(m_hi - c, m_hi + c, prec), prec)


@lru_cache(maxsize=None)
def _ln_table(j: int, prec: int) -> tuple[int, int]:
    """Bounds for ln(1 + j/2**_LN_TABLE_BITS), 0 < j <= 2**_LN_TABLE_BITS:
    the series argument j/(2**(_LN_TABLE_BITS+1) + j) is at most 1/3."""
    one = 1 << prec
    m = one + (j << (prec - _LN_TABLE_BITS))
    return _atanh_ratio(one, m, m, prec)


def _ln2(prec: int) -> tuple[int, int]:
    """Bounds for ln 2 = 2*atanh(1/3), the last table entry."""
    return _ln_table(1 << _LN_TABLE_BITS, prec)


def _ln_mantissa(m_lo: int, m_hi: int, prec: int) -> tuple[int, int]:
    """Bounds for ln(m) = ln c + ln(m/c), 1 <= m <= 2 (m_lo < 2), with
    c = 1 + j/2**_LN_TABLE_BITS the table point at or below m_lo and ln 1 = 0
    exactly.  m_hi lies within one ulp of m_lo, so the series argument stays
    below 2**-(_LN_TABLE_BITS + 1) plus that ulp."""
    j = (m_lo - (1 << prec)) >> (prec - _LN_TABLE_BITS)
    c = (1 << prec) + (j << (prec - _LN_TABLE_BITS))
    t_lo, t_hi = _ln_table(j, prec) if j else (0, 0)
    a_lo, a_hi = _atanh_ratio(c, m_lo, m_hi, prec)
    return t_lo + a_lo, t_hi + a_hi


def _ln_big_scaled(x: int, prec: int) -> tuple[int, int]:
    """Bounds for ln(x), x >= 1 integer, scaled by 2**prec."""
    e = x.bit_length() - 1
    # mantissa m = x / 2**e in [1, 2), directed to prec bits (m_hi may
    # round up to 2)
    if e >= prec:
        m_lo = x // (1 << (e - prec))
        m_hi = _ceil_div(x, 1 << (e - prec))
    else:
        m_lo = m_hi = x << (prec - e)
    ln_m_lo, ln_m_hi = _ln_mantissa(m_lo, m_hi, prec)
    l2_lo, l2_hi = _ln2(prec)
    return e * l2_lo + ln_m_lo, e * l2_hi + ln_m_hi


def _round_out(lo: int, hi: int, prec: int, frac_bits: int) -> FloatInterval:
    shift = prec - frac_bits
    return FloatInterval(lo // (1 << shift), _ceil_div(hi, 1 << shift),
                         frac_bits)


def _ln_positive_fraction(fr: Fraction, prec: int) -> tuple[int, int]:
    """Scaled bounds for ln(fr), fr > 0, via ln(num) - ln(den).

    An integer skips ln(den) = ln(1), whose enclosure has a nonzero upper
    end, so ln(n) is the numerator's enclosure exactly.
    """
    lo, hi = _ln_big_scaled(fr.numerator, prec)
    if fr.denominator == 1:
        return lo, hi
    d_lo, d_hi = _ln_big_scaled(fr.denominator, prec)
    return lo - d_hi, hi - d_lo


def log2_interval(x, frac_bits: int = DEFAULT_FRAC_BITS) -> FloatInterval:
    """Certified enclosure of log2(x) for a positive rational x (an int is
    one).

    A power of two (numerator and denominator both powers of two) gives a
    zero width interval; otherwise an integer's width is at most
    2**(-frac_bits + 2).
    """
    fr = Fraction(x)
    if fr <= 0:
        raise PreconditionError("log2_interval requires a positive argument")
    num, den = fr.numerator, fr.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return FloatInterval.from_int(num.bit_length() - den.bit_length(),
                                      frac_bits)
    prec = frac_bits + _GUARD
    ln_lo, ln_hi = _ln_positive_fraction(fr, prec)
    l2_lo, l2_hi = _ln2(prec)
    # ln(x)/ln(2): the divisor end that rounds outward depends on the sign
    q_lo = min(_div_down(ln_lo, l2_hi, prec), _div_down(ln_lo, l2_lo, prec))
    q_hi = max(_div_up(ln_hi, l2_lo, prec), _div_up(ln_hi, l2_hi, prec))
    return _round_out(q_lo, q_hi, prec, frac_bits)


def ln_interval(x, frac_bits: int = DEFAULT_FRAC_BITS) -> FloatInterval:
    """Certified enclosure of ln(x) for a positive rational (an int is one)
    or a positive interval."""
    prec = frac_bits + _GUARD
    if isinstance(x, FloatInterval):
        if x.lo_scaled <= 0:
            raise PreconditionError("ln_interval requires a positive argument")
        lo, _ = _ln_positive_fraction(x.lo, prec)
        _, hi = _ln_positive_fraction(x.hi, prec)
        return _round_out(lo, hi, prec, frac_bits)
    fr = Fraction(x)
    if fr <= 0:
        raise PreconditionError("ln_interval requires a positive argument")
    lo, hi = _ln_positive_fraction(fr, prec)
    return _round_out(lo, hi, prec, frac_bits)


def _pow_truncated(y: int, k: int, bits: int) -> tuple[int, int]:
    """(a, e) with a * 2**e = y**k to about ``bits`` bits: binary powering
    that truncates each product to ``bits`` bits, so a * 2**e <= y**k with
    a relative error below 2 * k.bit_length() * 2**(1 - bits)."""
    a, e, b, eb = 1, 0, y, 0
    while True:
        if k & 1:
            a, e = a * b, e + eb
            if (s := a.bit_length() - bits) > 0:
                a, e = a >> s, e + s
        k >>= 1
        if not k:
            return a, e
        b, eb = b * b, 2 * eb
        if (s := b.bit_length() - bits) > 0:
            b, eb = b >> s, eb + s


def _root_estimate(t: int, den: int, n: int) -> int:
    """An integer within a few units of (t / den)**(1/n), t >= den >= 1.

    Newton's iteration y <- ((n - 1) y + x / y**(n-1)) / n for x = t / den
    (Brent and Zimmermann, Modern Computer Arithmetic, 2010, section 1.5)
    runs on truncations of t, den and y**(n-1) to a few bits more than the
    root carries at each step.  It starts from a float seed with about 50
    correct bits, and each step about doubles the correct bits, less
    log2(n) for the quadratic term; the last step keeps _ROOT_GUARD bits
    below the unit.  Only the caller's exact check makes the root exact.
    """
    nb = n.bit_length()
    st, sd = max(t.bit_length() - 64, 0), max(den.bit_length() - 64, 0)
    j, rem = divmod(st - sd, n)
    seed = ((t >> st) / (den >> sd)) ** (1 / n) * 2.0 ** (rem / n)
    f, fe = math.frexp(seed)
    root_bits = fe + j  # 2**(root_bits - 1) <= seed * 2**j < 2**root_bits
    y, ey = int(math.ldexp(f, 53)), root_bits - 53  # y * 2**ey ~ the root
    # the root is at least 1 (t >= den), so root_bits >= 0 and at least one
    # step runs: the last leaves y in units of 2**-_ROOT_GUARD
    steps = [root_bits + _ROOT_GUARD]
    while steps[-1] > 48:
        steps.append(steps[-1] // 2 + nb + 4)
    for p in reversed(steps[:-1]):
        # y takes p bits; the operands keep nb + 8 more
        e, bits = root_bits - p, p + nb + 8
        y = y << (ey - e) if ey >= e else y >> (e - ey)
        ey = e
        a, ea = _pow_truncated(y, n - 1, bits)
        st, sd = max(t.bit_length() - bits, 0), max(den.bit_length() - bits, 0)
        # x / (y 2**ey)**(n-1) in units of 2**ey
        k, top, bottom = st - sd - ea - n * ey, t >> st, (den >> sd) * a
        q = (top << k) // bottom if k >= 0 else top // (bottom << -k)
        y = ((n - 1) * y + q) // n
    return y >> _ROOT_GUARD


def nth_root(fr, n: int, frac_bits: int = DEFAULT_FRAC_BITS) -> FloatInterval:
    """Certified enclosure of fr**(1/n) for a nonnegative rational fr.

    The endpoints are the tightest dyadics at the working precision:
    lo**n <= fr <= hi**n exactly.  With t = numerator * 2**(n * prec), lo
    is the largest integer with lo**n * den <= t, found from a Newton
    estimate by exact tests that compute each power once.
    """
    fr = Fraction(fr)
    if fr < 0:
        raise PreconditionError("nth_root requires a nonnegative argument")
    if n < 1:
        raise PreconditionError("nth_root requires n >= 1")
    prec = frac_bits + _GUARD
    num, den = fr.numerator, fr.denominator
    t = num << (n * prec)
    lo = _root_estimate(t, den, n) if t >= den else 0
    low, high = lo ** n * den, (lo + 1) ** n * den
    while low > t:
        lo, high = lo - 1, low
        low = lo ** n * den
    while high <= t:
        lo, low = lo + 1, high
        high = (lo + 1) ** n * den
    # the least hi with hi**n * den >= t
    hi = lo if low == t else lo + 1
    return _round_out(lo, hi, prec, frac_bits)


# -- dyadic string form ------------------------------------------------------

def scaled_str(m: int, frac_bits: int) -> str:
    """Render m / 2**frac_bits as 'm' or 'm/2^k', reduced by stripping the
    trailing zero bits of m."""
    zeros = min((m & -m).bit_length() - 1, frac_bits) if m else frac_bits
    num = any_length(str, m >> zeros)
    k = frac_bits - zeros
    return num if k == 0 else f"{num}/2^{k}"


def dyadic_str(fr) -> str:
    """Render an exact dyadic rational as 'm' or 'm/2^k' (reduced)."""
    fr = Fraction(fr)
    den = fr.denominator
    if den & (den - 1):
        raise PreconditionError("dyadic_str requires a power-of-two denominator")
    return scaled_str(fr.numerator, den.bit_length() - 1)


def parse_dyadic(s: str) -> Fraction:
    """Inverse of dyadic_str; also accepts plain integers and decimals."""
    s = s.strip()
    if "/2^" in s:
        m, k = s.split("/2^")
        return Fraction(any_length(int, m), 1 << int(k))
    fr = any_length(Fraction, s)
    if fr.denominator & (fr.denominator - 1):
        raise PreconditionError(f"value {s!r} is not a dyadic rational")
    return fr
