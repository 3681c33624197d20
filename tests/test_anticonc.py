from fractions import Fraction

import pytest

from condbound import (BallsBinsInstance, certificate_ordering,
                       lemma2_certificate, pz_bound, raw_moment)
from condbound import moments
from condbound.anticonc import bell_bound_at_theta
from condbound.errors import PreconditionError

from oracles import assignment_bin0_histogram


def test_lemma2_worked_example(bells16):
    cert = lemma2_certificate(4, 2 ** 11, bells16)
    assert not cert.vacuous
    assert cert.probability == Fraction(255, 256) * Fraction(2, 15)
    assert cert.probability == Fraction(17, 128)
    # tau encloses sqrt(2)/2
    assert cert.threshold.lo ** 2 <= Fraction(1, 2) <= cert.threshold.hi ** 2


def test_lemma2_vacuous_boundary(bells16):
    cert = lemma2_certificate(4, 8, bells16)
    assert cert.vacuous
    assert cert.probability == 0
    cert = lemma2_certificate(4, 7, bells16)
    assert cert.vacuous
    assert cert.probability < 0
    cert = lemma2_certificate(4, 9, bells16)
    assert not cert.vacuous
    # the theta form turns vacuous at the same q^2 = 2M
    for theta in (Fraction(1, 4), Fraction(1, 2)):
        cert = bell_bound_at_theta(4, 8, theta, bells16)
        assert cert.vacuous
        assert cert.probability == 0
        cert = bell_bound_at_theta(4, 7, theta, bells16)
        assert cert.vacuous
        assert cert.probability < 0
        assert not bell_bound_at_theta(4, 9, theta, bells16).vacuous


def test_lemma2_threshold_power_is_tau_to_the_q(bells1024):
    for q in (4, 6, 64, 1024):
        cert = lemma2_certificate(q, 1 << 30, bells1024)
        power = cert.threshold_power
        assert power == Fraction(bells1024.bell(q // 2) ** 2, 2 ** q)
        tau = cert.threshold
        assert tau.lo ** q <= power <= tau.hi ** q


def test_each_builder_stores_tau_to_the_q(bells64):
    # tau^q is kept exact, and threshold encloses its q-th root
    M = 2 ** 10
    for q, theta in ((4, Fraction(1, 2)), (8, Fraction(1, 8)),
                     (16, Fraction(3, 4))):
        inst = BallsBinsInstance(M, M, q)
        half = raw_moment(inst, q // 2).value
        b_half = bells64.bell(q // 2)
        for cert, power in (
                (pz_bound(inst, theta), (theta * half) ** 2),
                (lemma2_certificate(q, M, bells64),
                 Fraction(b_half ** 2, 4 ** (q // 2))),
                (bell_bound_at_theta(q, M, theta, bells64),
                 (theta * b_half) ** 2)):
            assert cert.threshold_power == power
            tau = cert.threshold
            assert tau.lo ** q <= power <= tau.hi ** q


def test_lemma2_parity_preconditions(bells16):
    with pytest.raises(PreconditionError):
        lemma2_certificate(5, 2 ** 10, bells16)
    with pytest.raises(PreconditionError):
        lemma2_certificate(2, 2 ** 10, bells16)
    lemma2_certificate(6, 2 ** 10, bells16)  # q=6 is accepted


def test_lemma2_large_q(bells1024):
    cert = lemma2_certificate(64, 2 ** 43, bells1024)
    assert not cert.vacuous
    b32 = bells1024.bell(32)
    b64 = bells1024.bell(64)
    expect = (1 - Fraction(64 * 64, 2 ** 44)) * Fraction(b32 ** 2, 2 * b64)
    assert cert.probability == expect


def test_pz_worked_example():
    inst = BallsBinsInstance(3, 3, 4)
    cert = pz_bound(inst, Fraction(1, 2))
    es2 = raw_moment(inst, 2).value
    es4 = raw_moment(inst, 4).value
    assert es2 == Fraction(5, 3)
    assert es4 == 7
    assert cert.probability == Fraction(1, 4) * es2 ** 2 / es4
    assert cert.probability == Fraction(25, 252)
    # threshold encloses sqrt(1/2 * 5/3) = sqrt(5/6)
    assert cert.threshold.lo ** 2 <= Fraction(5, 6) <= cert.threshold.hi ** 2
    # tail cross-check by enumeration of all 27 assignments:
    # Pr[S >= tau.lo] >= Pr[S >= 1] = 19/27 >= certificate p
    hist = assignment_bin0_histogram(3, 3)
    total = 27
    tail = sum(Fraction(c, total) for s, c in enumerate(hist)
               if s >= cert.threshold.lo)
    assert tail == Fraction(19, 27)
    assert tail >= cert.probability


def test_pz_theta_scaling():
    # p scales by (1-theta)^2: theta=1/2 gives exactly 1/4 of the theta->0
    # probability factor
    inst = BallsBinsInstance(3, 3, 4)
    p_half = pz_bound(inst, Fraction(1, 2)).probability
    p_tenth = pz_bound(inst, Fraction(1, 10)).probability
    c_half = p_half / (1 - Fraction(1, 2)) ** 2
    c_tenth = p_tenth / (1 - Fraction(1, 10)) ** 2
    assert c_half == c_tenth
    assert p_half == c_half / 4


def test_pz_in_unit_interval():
    inst = BallsBinsInstance(2 ** 10, 2 ** 10, 4)
    cert = pz_bound(inst, Fraction(1, 4))
    assert 0 < cert.probability < 1


def test_pz_preconditions():
    inst = BallsBinsInstance(8, 8, 4)
    with pytest.raises(PreconditionError):
        pz_bound(inst, Fraction(0))
    with pytest.raises(PreconditionError):
        pz_bound(inst, Fraction(1))
    with pytest.raises(PreconditionError):
        pz_bound(BallsBinsInstance(8, 8, 5), Fraction(1, 2))
    with pytest.raises(PreconditionError):
        pz_bound(BallsBinsInstance(8, 4, 4), Fraction(1, 2))


def test_certificate_ordering(bells16):
    for q, M in [(4, 2 ** 11), (8, 2 ** 10)]:
        cmp = certificate_ordering(q, M, bells16)
        assert cmp.bell.probability <= cmp.exact.probability
        assert cmp.exact_tau_le_bell_tau
        # lemma2 is the fully relaxed corner of the theta form
        assert cmp.lemma2.probability <= cmp.bell.probability
        assert cmp.lemma2.threshold.hi <= cmp.bell.threshold.hi


def test_certificate_ordering_rejects_vacuous(bells16):
    with pytest.raises(PreconditionError):
        certificate_ordering(4, 8, bells16)


def test_theta_constants_over_full_range(bells1024):
    # closing constants: (1/q)^(2/q) >= 1/2 and (1-1/q)^2 >= 1/2 for all
    # even q >= 4, as exact integer comparisons
    for q in range(4, 1025, 2):
        assert 2 ** q >= q ** 2          # (1/q)^(2/q) >= 1/2
        assert 2 * (q - 1) ** 2 >= q ** 2  # (1-1/q)^2 >= 1/2


def test_probability_monotone_in_M(bells16):
    prev = None
    for log2m in range(5, 20):
        cert = lemma2_certificate(4, 2 ** log2m, bells16)
        if prev is not None:
            assert cert.probability >= prev
        prev = cert.probability


def test_pz_bound_runs_one_stirling_pass(monkeypatch):
    # E S^q and E S^{q/2} share one pass over the rows 0..q
    starts = []
    rows = moments._stirling_rows

    def counting(q_max):
        starts.append(q_max)
        return rows(q_max)

    monkeypatch.setattr(moments, "_stirling_rows", counting)
    for q in (4, 8, 16):
        pz_bound(BallsBinsInstance(64, 64, q), Fraction(1, 2))
    assert starts == [4, 8, 16]
