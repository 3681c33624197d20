"""GF(2^w) arithmetic: carryless polynomial multiplication modulo a fixed
irreducible polynomial, plus log/antilog tables for elementwise products
of arrays (w <= 16).  The simulator multiplies with them only to build its
split tables of the powers x^i and to fold in, by Horner, the coefficient
positions those tables leave out.

Moduli for w in [2, 64] ship as a data file (hex encoded, one per line);
each entry is the smallest irreducible polynomial of its degree by integer
encoding, and ``is_irreducible`` re-verifies any entry on demand.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import PreconditionError

MIN_FIELD_BITS = 2
MAX_FIELD_BITS = 64
TABLE_FIELD_BITS = 16  # largest w for which exp/log tables are built


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
    if _pow_x_2exp(w, modulus) != 2:  # x^(2^w) == x (mod modulus)
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
    # an irreducible polynomial of degree >= 1 has odd constant term
    for cand in range((1 << w) + 1, 1 << (w + 1), 2):
        if is_irreducible(cand):
            return cand
    raise PreconditionError(f"no irreducible polynomial of degree {w} found")


@lru_cache(maxsize=1)
def modulus_table() -> dict[int, int]:
    """Shipped moduli per field width w in [2, 64]."""
    text = resources.files("condbound").joinpath(
        "data/irreducible_polys.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        w_str, hex_str = line.split()
        table[int(w_str)] = int(hex_str, 16)
    return table


def default_modulus(w: int) -> int:
    if not MIN_FIELD_BITS <= w <= MAX_FIELD_BITS:
        raise PreconditionError(
            f"field width {w} outside supported range "
            f"[{MIN_FIELD_BITS}, {MAX_FIELD_BITS}]")
    return modulus_table()[w]


class GFTables:
    """Exp/log tables over GF(2^w) for vectorised multiplication, w <= 16."""

    def __init__(self, w: int, modulus: int):
        if w > TABLE_FIELD_BITS:
            raise PreconditionError(
                f"exp/log tables are limited to w <= {TABLE_FIELD_BITS}")
        self.w = w
        self.modulus = modulus
        self.order = (1 << w) - 1
        gen = self._find_generator()
        self.generator = gen
        # log[0] is a sentinel 2*order; any product involving zero indexes
        # past 2*order-2 into the zero-filled region of exp, so mul_vec
        # needs no masking
        exp = np.zeros(4 * self.order + 1, dtype=np.int64)
        log = np.full(1 << w, 2 * self.order, dtype=np.int64)
        v = 1
        for i in range(self.order):
            exp[i] = v
            exp[i + self.order] = v
            log[v] = i
            v = gf_mul(v, gen, modulus)
        if v != 1:
            raise PreconditionError("generator order mismatch; modulus not irreducible?")
        exp[2 * self.order - 1] = 0   # index never produced; keep zeroed
        self.exp = exp
        self.log = log

    def _find_generator(self) -> int:
        factors = _prime_factors(self.order)
        for cand in range(2, 1 << self.w):
            if all(self._pow(cand, self.order // p) != 1 for p in factors):
                return cand
        raise PreconditionError("no multiplicative generator found")

    def _pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = gf_mul(r, a, self.modulus)
            a = gf_mul(a, a, self.modulus)
            e >>= 1
        return r

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product; either argument may be broadcastable."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self.exp[self.log[a] + self.log[b]]


@lru_cache(maxsize=32)
def tables_for(w: int, modulus: int) -> GFTables:
    return GFTables(w, modulus)
