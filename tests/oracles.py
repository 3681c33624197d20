"""Independent oracles used to freeze expected values.

Nothing in this module touches the production code paths it is used to
check: set partitions are enumerated one by one, assignment averages come
from explicit enumeration over all N^M assignments, Bell numbers are
rebuilt through the binomial recurrence, hash seeds are evaluated with a
carry-less multiply of their own (one by one, or one seed over all points
at once), Monte Carlo seeds come from one fresh numpy generator per
trial, the smallest irreducible polynomial of a degree is found by trial
division, the atanh series runs through one named rounding helper
per operation, interval quotients, shifts and dyadic strings go
through exact ``Fraction`` values, and integer roots come from Newton's
iteration on the whole integer.
"""

import math
from fractions import Fraction

import numpy as np


def partition_counts_by_blocks(n: int) -> list[int]:
    """counts[j] = number of partitions of an n-set into j blocks, by
    explicit enumeration of restricted growth strings."""
    if n == 0:
        return [1]
    a = [0] * n
    m = [0] * n  # m[i] = max(a[0..i])
    counts = [0] * (n + 1)
    while True:
        counts[m[-1] + 1] += 1
        i = n - 1
        while i > 0 and a[i] == m[i - 1] + 1:
            i -= 1
        if i == 0:
            return counts
        a[i] += 1
        if a[i] > m[i - 1]:
            m[i] = a[i]
        else:
            m[i] = m[i - 1]
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = m[i]


def enumerate_partitions(items):
    """Yield every partition of ``items`` as a list of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in enumerate_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def bell_by_binomial_recurrence(n: int) -> list[int]:
    """B_0..B_n via B_{q+1} = sum_k C(q, k) B_k only."""
    import math
    values = [1]
    for q in range(n):
        values.append(sum(math.comb(q, k) * values[k] for k in range(q + 1)))
    return values


def assignment_bin0_histogram(M: int, N: int) -> list[int]:
    """hist[s] = number of assignments of M balls to N bins (all N^M of
    them) in which bin 0 holds exactly s balls."""
    total = N ** M
    hist = np.zeros(M + 1, dtype=np.int64)
    chunk = 1 << 22
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        zeros = np.zeros(len(idx), dtype=np.int64)
        div = np.ones(len(idx), dtype=np.int64)
        for _ in range(M):
            zeros += (idx // div) % N == 0
            div *= N
        hist += np.bincount(zeros, minlength=M + 1)
    return [int(c) for c in hist]


def assignment_moment(M: int, N: int, order: int) -> Fraction:
    """Average of (bin-0 load)^order over all N^M assignments, exactly."""
    hist = assignment_bin0_histogram(M, N)
    total = N ** M
    return sum((Fraction(c, total) * s ** order for s, c in enumerate(hist)),
               Fraction(0))


def _clmul_mod(a: int, b: int, modulus: int) -> int:
    """a * b in GF(2)[x] / modulus, by shift-and-XOR, then reduction bit by
    bit from the top."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    w = modulus.bit_length() - 1
    for bit in range(prod.bit_length() - 1, w - 1, -1):
        if prod >> bit & 1:
            prod ^= modulus << (bit - w)
    return prod


def seed_bin0_histogram(w: int, q: int, output_bits: int,
                        modulus: int) -> dict[int, int]:
    """counts[s] = number of the 2^(w*q) seeds of the degree-(q-1)
    polynomial family over GF(2)[x] / modulus whose hash, the top
    output_bits bits of the polynomial's value, is 0 at exactly s of the
    2^w points.  Seed s has coefficient (s >> w*i) & (2^w - 1) at x^i;
    every seed is evaluated at every point by Horner."""
    shift = w - output_bits
    counts: dict[int, int] = {}
    for seed in range(1 << (w * q)):
        coeffs = [(seed >> (w * i)) & ((1 << w) - 1) for i in range(q)]
        load = 0
        for x in range(1 << w):
            acc = 0
            for c in reversed(coeffs):
                acc = _clmul_mod(acc, x, modulus) ^ c
            load += acc >> shift == 0
        counts[load] = counts.get(load, 0) + 1
    return counts


def _clmul_mod_arrays(a: np.ndarray, b: np.ndarray, w: int,
                      modulus: int) -> np.ndarray:
    """a * b in GF(2)[x] / modulus elementwise, for int64 arrays of
    w-bit elements: shift-and-XOR, then reduction bit by bit from the
    top."""
    prod = np.zeros_like(a)
    for bit in range(w):
        prod ^= (a << bit) & -((b >> bit) & 1)
    for bit in range(2 * w - 2, w - 1, -1):
        prod ^= ((prod >> bit) & 1) * (modulus << (bit - w))
    return prod


def polynomial_trial_loads(w: int, q: int, output_bits: int, modulus: int,
                           master_seed: int, trials: int,
                           balls: int) -> np.ndarray:
    """(trials, 2^output_bits) bin loads of the Monte Carlo experiment.

    Trial t draws all q coefficients, the constant c_0 included, from a
    fresh ``Generator(Philox(key=master_seed, counter=t << 128))`` and
    hashes the points 0..balls-1 to the top output_bits bits of the
    polynomial's value, evaluated by Horner over all points at once."""
    xs = np.arange(balls, dtype=np.int64)
    loads = np.zeros((trials, 1 << output_bits), dtype=np.int64)
    for t in range(trials):
        rng = np.random.Generator(
            np.random.Philox(key=master_seed, counter=t << 128))
        coeffs = rng.integers(0, 1 << w, size=q, dtype=np.int64)
        acc = np.zeros(balls, dtype=np.int64)
        for c in coeffs[::-1]:
            acc = _clmul_mod_arrays(acc, xs, w, modulus) ^ c
        loads[t] = np.bincount(acc >> (w - output_bits),
                               minlength=1 << output_bits)
    return loads


def smallest_irreducible_by_trial_division(w: int) -> int:
    """The least degree-w binary polynomial, by integer encoding, that no
    polynomial of degree 1 to w // 2 divides."""
    def remainder(a: int, d: int) -> int:
        while a.bit_length() >= d.bit_length():
            a ^= d << (a.bit_length() - d.bit_length())
        return a

    return next(p for p in range(1 << w, 1 << (w + 1))
                if all(remainder(p, d) for d in range(2, 1 << (w // 2 + 1))))


def load_distribution_moment(support: dict, order: int) -> Fraction:
    return sum((p * s ** order for s, p in support.items()), Fraction(0))


def _floor_div(a: int, b: int) -> int:
    return a // b


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _mul_down(a: int, b: int, prec: int) -> int:
    return _floor_div(a * b, 1 << prec)


def _mul_up(a: int, b: int, prec: int) -> int:
    return _ceil_div(a * b, 1 << prec)


def atanh_series_by_helpers(u_lo: int, u_hi: int,
                            prec: int) -> tuple[int, int]:
    """Bounds for 2*atanh(u), scaled by 2**prec, with every directed
    rounding spelled as a helper call; intervals._atanh_series must return
    the same integers."""
    usq_lo = _mul_down(u_lo, u_lo, prec)
    usq_hi = _mul_up(u_hi, u_hi, prec)
    lo_sum, hi_sum = u_lo, u_hi
    pow_lo, pow_hi = u_lo, u_hi
    k = 1
    while True:
        pow_lo = _mul_down(pow_lo, usq_lo, prec)
        pow_hi = _mul_up(pow_hi, usq_hi, prec)
        term_lo = _floor_div(pow_lo, 2 * k + 1)
        term_hi = _ceil_div(pow_hi, 2 * k + 1)
        lo_sum += term_lo
        hi_sum += term_hi
        if pow_hi <= 1:
            break
        k += 1
    # tail bound from the first omitted term
    tail_hi = _mul_up(pow_hi, usq_hi, prec)
    tail_hi = _ceil_div(tail_hi, 2 * k + 3)
    tail_hi = _ceil_div(4 * tail_hi, 3) + 1
    return 2 * lo_sum, 2 * (hi_sum + tail_hi)


def _round_out_fraction(lo: Fraction, hi: Fraction,
                        frac_bits: int) -> tuple[int, int]:
    """floor(lo * 2^frac_bits) and ceil(hi * 2^frac_bits)."""
    return (_floor_div(lo.numerator << frac_bits, lo.denominator),
            _ceil_div(hi.numerator << frac_bits, hi.denominator))


def interval_quotient_by_fractions(a: tuple[int, int], b: tuple[int, int],
                                   frac_bits: int) -> tuple[int, int]:
    """Scaled ends of [a] / [b] for endpoints scaled by 2^frac_bits, formed
    as exact rational quotients and rounded out once."""
    quots = [Fraction(x, y) for x in a for y in b]
    return _round_out_fraction(min(quots), max(quots), frac_bits)


def interval_shift_by_fractions(a: tuple[int, int], fr: Fraction,
                                frac_bits: int) -> tuple[int, int]:
    """Scaled ends of [a] + fr, through the exact rational endpoints."""
    one = 1 << frac_bits
    return _round_out_fraction(Fraction(a[0], one) + fr,
                               Fraction(a[1], one) + fr, frac_bits)


def dyadic_by_fraction(scaled: int, frac_bits: int) -> str:
    """'m' or 'm/2^k' for scaled / 2^frac_bits, reduced by Fraction."""
    fr = Fraction(scaled, 1 << frac_bits)
    k = fr.denominator.bit_length() - 1
    return str(fr.numerator) if k == 0 else f"{fr.numerator}/2^{k}"


def _iroot_seed(x: int, n: int) -> int:
    """An integer certainly >= x**(1/n), within ~2^-38 relative slack.

    Built from a float estimate of 2**(bit_length/n); the added margin
    dominates every float rounding error by orders of magnitude.
    """
    bits = x.bit_length()
    e = bits / n
    j = int(e)
    frac = e - j
    mantissa = int(math.ldexp(2.0 ** frac, 52)) + 1
    r = (mantissa << j) >> 52 if j >= 52 else mantissa >> (52 - j)
    return r + (r >> 38) + 2


def iroot_floor(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, x >= 0 and n >= 1, by integer Newton
    iteration on x itself."""
    if x == 0:
        return 0
    if n == 1:
        return x
    # Newton from above converges monotonically to the floor root as long
    # as the seed is >= the true root; the exactness check at the end
    # guards the seed construction.
    r = _iroot_seed(x, n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r
