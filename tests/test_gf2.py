import os
import subprocess
import sys
from pathlib import Path

import pytest

import condbound
from condbound.errors import PreconditionError
from condbound.gf2 import (clmul, default_modulus, gf_mul, is_irreducible,
                           poly_mod, primitive_element, smallest_irreducible)
from oracles import smallest_irreducible_by_trial_division


def test_clmul_basic():
    assert clmul(0b11, 0b11) == 0b101          # (x+1)^2 = x^2+1
    assert clmul(0b10, 0b10) == 0b100
    assert clmul(1, 0b1011) == 0b1011
    assert clmul(0, 123) == 0


def test_poly_mod():
    # x^2 mod (x^2+x+1) = x+1
    assert poly_mod(0b100, 0b111) == 0b11
    assert poly_mod(0b11, 0b111) == 0b11


def test_gf4_multiplication_table():
    mod = default_modulus(2)  # x^2+x+1
    assert mod == 0b111
    # GF(4) with elements {0,1,w,w+1}: w*w = w+1, w*(w+1) = 1
    assert gf_mul(2, 2, mod) == 3
    assert gf_mul(2, 3, mod) == 1
    assert gf_mul(3, 3, mod) == 2


def test_shipped_moduli_are_irreducible():
    for w in range(2, 65):
        mod = default_modulus(w)
        assert mod.bit_length() - 1 == w
        assert is_irreducible(mod), w


def test_shipped_moduli_are_smallest():
    for w in range(1, 13):
        expected = smallest_irreducible_by_trial_division(w)
        assert smallest_irreducible(w) == expected, w
        if w >= 2:
            assert default_modulus(w) == expected, w
    # the simulator's family reads the same modulus, at every width it runs
    from condbound.hashsim import HashFamilySpec
    for w in range(2, 17):
        assert HashFamilySpec.create(w, 2).modulus == smallest_irreducible(w)


def test_classic_degree8_modulus():
    assert default_modulus(8) == 0x11B
    assert default_modulus(64) == 0x1000000000000001B  # x^64+x^4+x^3+x+1


def test_irreducibility_rejects_composites():
    assert not is_irreducible(0b101)      # x^2+1 = (x+1)^2
    assert not is_irreducible(0b1001)     # x^3+1 = (x+1)(x^2+x+1)
    assert not is_irreducible(0b110)      # divisible by x
    assert not is_irreducible(0b1)        # a constant has degree 0
    assert is_irreducible(0b10)           # x
    assert is_irreducible(0b11)           # x+1
    assert is_irreducible(0b111)
    assert is_irreducible(0b1011)


def test_width_range():
    with pytest.raises(PreconditionError):
        default_modulus(1)
    with pytest.raises(PreconditionError):
        default_modulus(65)


def test_tables_match_scalar_multiplication():
    # the exp/log pair of the simulator's Horner fold, against gf_mul
    from condbound.hashsim import _fold_tables
    for w in [2, 3, 8]:
        mod = default_modulus(w)
        exp, log = _fold_tables(w, mod)
        size = 1 << w
        step = 1 if w <= 3 else 7
        for a in range(0, size, step):
            for b in range(size):
                assert exp[log[a] + log[b]] == gf_mul(a, b, mod), (w, a, b)


def test_generator_order():
    for w in [2, 3, 4, 8, 12]:
        mod = default_modulus(w)
        g = primitive_element(mod)
        order = (1 << w) - 1
        seen = set()
        v = 1
        for _ in range(order):
            seen.add(v)
            v = gf_mul(v, g, mod)
        assert v == 1
        assert len(seen) == order


def test_gf2_leaves_numpy_unloaded():
    src = str(Path(condbound.__file__).resolve().parent.parent)
    probe = "import sys, condbound.gf2; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    assert proc.stdout == "False\n"
