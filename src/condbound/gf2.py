"""GF(2^w) arithmetic on Python integers: carryless multiplication modulo
a fixed irreducible polynomial, irreducibility and primitive elements.

The modulus for w in [2, 64] is derived at run time, not shipped: it is
the smallest irreducible polynomial of degree w by integer encoding, found
by ``smallest_irreducible`` and cached per width.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionError

MIN_FIELD_BITS = 2
MAX_FIELD_BITS = 64


def clmul(a: int, b: int) -> int:
    """Carryless (XOR) product of two polynomials over GF(2)."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    return res


def poly_mod(a: int, modulus: int) -> int:
    """Remainder of a modulo the polynomial ``modulus``."""
    dm = modulus.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= modulus << (a.bit_length() - 1 - dm)
    return a


def gf_mul(a: int, b: int, modulus: int) -> int:
    return poly_mod(clmul(a, b), modulus)


def _gf_pow(a: int, e: int, modulus: int) -> int:
    """a^e mod modulus, by square and multiply."""
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, a, modulus)
        a = gf_mul(a, a, modulus)
        e >>= 1
    return r


def poly_gcd(a: int, b: int) -> int:
    """GCD of two polynomials over GF(2)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _pow_x_2exp(e: int, modulus: int) -> int:
    """x^(2^e) mod modulus, by repeated squaring."""
    r = 2  # the polynomial x
    for _ in range(e):
        r = gf_mul(r, r, modulus)
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(modulus: int) -> bool:
    """Rabin's irreducibility test for a binary polynomial of degree >= 1."""
    w = modulus.bit_length() - 1
    if w < 1:
        return False
    if _pow_x_2exp(w, modulus) != poly_mod(2, modulus):  # x^(2^w) == x
        return False
    for p in _prime_factors(w):
        h = _pow_x_2exp(w // p, modulus) ^ 2
        if poly_gcd(modulus, h) != 1:
            return False
    return True


def smallest_irreducible(w: int) -> int:
    """Smallest degree-w irreducible polynomial by integer encoding."""
    if w < 1:
        raise PreconditionError("degree must be >= 1")
    # from degree 2 on, an irreducible polynomial has odd constant term
    step = 1 if w == 1 else 2
    return next(cand for cand in range((1 << w) + step - 1, 1 << (w + 1), step)
                if is_irreducible(cand))


@lru_cache(maxsize=None)
def default_modulus(w: int) -> int:
    """The modulus of GF(2^w): the smallest degree-w irreducible polynomial."""
    if not MIN_FIELD_BITS <= w <= MAX_FIELD_BITS:
        raise PreconditionError(
            f"field width {w} outside supported range "
            f"[{MIN_FIELD_BITS}, {MAX_FIELD_BITS}]")
    return smallest_irreducible(w)


def primitive_element(modulus: int) -> int:
    """Least generator of the multiplicative group of GF(2)[x] / modulus:
    the least element whose order is 2^w - 1, for an irreducible modulus
    of degree w."""
    order = (1 << (modulus.bit_length() - 1)) - 1
    factors = _prime_factors(order)
    return next(cand for cand in range(2, order + 1)
                if all(_gf_pow(cand, order // p, modulus) != 1
                       for p in factors))
