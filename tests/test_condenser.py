import bisect
import functools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from condbound import (BellSequence, HashFamilySpec, asymptotic_gap_report,
                       impossibility_certificate, lemma2_certificate,
                       necessary_independence, positive_params)
from condbound import anticonc, condenser
from condbound.anticonc import lemma2_probability
from condbound.combinat import DEFAULT_QMAX_CAP
from condbound.condenser import (FEASIBLE_IMPOSSIBLE, FEASIBLE_UNDETERMINED,
                                 _search_window, heavy_bin_reduction)
from condbound.errors import CapacityError, PreconditionError
from condbound.gf2 import default_modulus
from condbound.intervals import FloatInterval, log2_interval

from oracles import _clmul_mod


def test_positive_params_examples():
    p = positive_params(64)
    assert p.independence == 64
    assert p.loss_bits == FloatInterval.from_int(6)
    p = positive_params(80)
    assert p.independence == 80
    assert p.loss_bits == log2_interval(80)
    assert p.loss_bits.width > 0
    p = positive_params(2)  # eps = 1/4
    assert p.independence == 2
    assert p.loss_bits == FloatInterval.from_int(1)
    with pytest.raises(PreconditionError):
        positive_params(1)  # eps = 1/2 not admissible


def test_positive_params_loss_encloses_log2_q():
    # log2 100 is irrational: a float-valued Fraction of it lies outside
    # its certified enclosure, so only the enclosure is exact
    loss = positive_params(100).loss_bits
    enclosure = log2_interval(100)
    assert isinstance(loss, FloatInterval)
    assert enclosure.lo <= loss.lo and loss.hi <= enclosure.hi
    as_float = Fraction(math.log2(100))
    assert not enclosure.lo <= as_float <= enclosure.hi


def test_impossibility_small_q_small_k(bells16):
    # tau = sqrt(2)/2 < 1, so no nonnegative loss is ruled out
    v = impossibility_certificate(4, 11, bells16)
    assert v.feasible == FEASIBLE_UNDETERMINED
    assert v.reduction is not None
    assert v.reduction.ell_star.hi < 0


def test_impossibility_q16_k64(bells1024):
    # exact chain: ell_star(16) = log2(B_8)/8 - 2 < 0, so no nonnegative
    # loss is ruled out yet; the certificate values themselves are exact
    v = impossibility_certificate(16, 64, bells1024)
    assert v.feasible == FEASIBLE_UNDETERMINED
    red = v.reduction
    b8 = bells1024.bell(8)
    b16 = bells1024.bell(16)
    p_expect = (1 - Fraction(256, 2 ** 65)) * Fraction(b8 ** 2, 2 * b16)
    assert v.certificate.probability == p_expect
    # threshold root is exact at the dyadic endpoints
    tau_lo, tau_hi = v.certificate.threshold.lo, v.certificate.threshold.hi
    radicand = Fraction(b8 ** 2, 4 ** 8)
    assert tau_lo ** 16 <= radicand <= tau_hi ** 16
    assert red.epsilon_star == p_expect * tau_lo / 2
    assert red.ell_star.hi < 0


def test_impossibility_first_positive_loss_q(bells1024):
    # log2(B_{q/2})/(q/2) crosses 2 between q=28 and q=30, after which the
    # ruled-out region reaches nonnegative losses
    v28 = impossibility_certificate(28, 64, bells1024)
    assert v28.feasible == FEASIBLE_UNDETERMINED
    v30 = impossibility_certificate(30, 64, bells1024)
    assert v30.feasible == FEASIBLE_IMPOSSIBLE
    assert v30.reduction.ell_star.lo >= 0
    v32 = impossibility_certificate(32, 64, bells1024)
    assert v32.feasible == FEASIBLE_IMPOSSIBLE


def test_side_condition_enforced(bells16):
    for k in [2, 3, 4]:
        with pytest.raises(PreconditionError, match="side condition"):
            impossibility_certificate(4, k, bells16)
    impossibility_certificate(4, 5, bells16)


def test_target_membership(bells1024):
    # q=64, k=43: ruled-out corner is about (0.71, 2^-43.54)
    v = impossibility_certificate(64, 43, bells1024,
                                  loss=Fraction(1, 2), log2_inv_eps=50)
    assert v.feasible == FEASIBLE_IMPOSSIBLE
    assert v.target_covered
    # the published example pair is outside the certified region
    v = impossibility_certificate(64, 43, bells1024,
                                  loss=Fraction("2.6"), log2_inv_eps=43)
    assert v.feasible == FEASIBLE_UNDETERMINED
    assert not v.target_covered
    assert v.reference_claim is not None
    assert v.reference_claim["claim_covered_by_certificate"] is False


def test_reference_claim_attached_only_for_known_pair(bells1024):
    assert impossibility_certificate(64, 43, bells1024).reference_claim
    assert impossibility_certificate(16, 64, bells1024).reference_claim is None


def test_monotonicity_over_window(bells1024):
    k = 64
    prev_ell = None
    prev_eps = None
    for q in range(4, 201, 2):
        red = heavy_bin_reduction(lemma2_certificate(q, 1 << k, bells1024))
        if prev_ell is not None:
            assert prev_ell.lo <= red.ell_star.hi  # nondecreasing
            assert red.log2_eps_star.hi < prev_eps.lo  # decreasing
        prev_ell, prev_eps = red.ell_star, red.log2_eps_star


def test_never_contradicts_positive_guarantee(bells1024):
    # ell_star(q) < log2 q always: B_{q/2} < (4q)^(q/2) exactly, so the
    # certificate can never cover the achievable pair (log2 q, 2^-q)
    for q in range(4, 257, 2):
        assert bells1024.bell(q // 2) < (4 * q) ** (q // 2)
        v = impossibility_certificate(q, 64, bells1024,
                                      loss=Fraction(math.log2(q)),
                                      log2_inv_eps=q)
        assert v.feasible == FEASIBLE_UNDETERMINED


def _q_found(log2_inv_eps, k, loss, bells, q_max=1024) -> int | None:
    verdict = necessary_independence(log2_inv_eps, k, loss, bells, q_max)
    return None if verdict is None else verdict.params.independence


def test_necessary_independence_frozen_values(bells1024):
    # frozen from exact search at k=64, loss 1
    assert _q_found(64, 64, 1, bells1024) == 90
    v = necessary_independence(128, 64, 1, bells1024, 1024)
    assert v.params.independence == 174
    # the verdict returned is the targeted verdict at the q found
    assert v == impossibility_certificate(174, 64, bells1024, loss=1,
                                          log2_inv_eps=128)
    assert v.feasible == FEASIBLE_IMPOSSIBLE and v.target_covered


def test_necessary_independence_no_bound(bells1024):
    # trivially satisfiable region: eps = 1/2
    assert necessary_independence(1, 64, 0, bells1024, 1024) is None
    # loss target too aggressive for the eps window: no ruling q exists
    assert necessary_independence(128, 64, 2, bells1024, 1024) is None


def test_necessary_independence_consistent_with_membership(bells1024):
    # the published pair is not ruled out at any q, matching the
    # undetermined membership verdict at (64, 43)
    assert necessary_independence(43, 43, Fraction("2.6"), bells1024,
                                  1024) is None
    v = impossibility_certificate(64, 43, bells1024, loss=Fraction("2.6"),
                                  log2_inv_eps=43)
    assert v.feasible == FEASIBLE_UNDETERMINED


@pytest.mark.parametrize("L, loss, expect", [
    (64, 1, 90), (128, 1, 174), (128, 2, None), (96, Fraction(3, 4), 134),
    (32, Fraction(1, 2), None)])
def test_necessary_independence_matches_linear_scan(L, loss, expect):
    # the binary search against a verdict at every even q of the window
    bells = BellSequence()
    ruled_out = [q for q in range(4, 201, 2)
                 if impossibility_certificate(
                     q, 64, bells, loss=loss, log2_inv_eps=L).feasible
                 == FEASIBLE_IMPOSSIBLE]
    scan = ruled_out[-1] if ruled_out else None
    assert scan == expect
    assert _q_found(L, 64, loss, bells, 200) == scan


def _log2_q_factor(q: int, bells: BellSequence) -> FloatInterval:
    """log2 g(q), where eps_star(q) = (1 - q^2/(2M)) * g(q)."""
    half = bells.bell(q // 2)
    power = lemma2_certificate(q, 1 << 64, bells).threshold_power
    log2_tau = log2_interval(power).divide_by_int(q)
    return (log2_interval(Fraction(half * half, 2 * bells.bell(q)))
            + log2_tau).shift(-1)


def test_eps_star_q_factor_falls_per_even_step():
    # the monotonicity behind the binary search in necessary_independence,
    # certified for every even q the table cap admits (the least drop is
    # about 0.84 bits)
    bells = BellSequence()
    prev = _log2_q_factor(4, bells)
    for q in range(4, DEFAULT_QMAX_CAP - 1, 2):
        cur = _log2_q_factor(q + 2, bells)
        assert (prev - cur).certainly_gt(Fraction(1, 2)), q
        prev = cur


def test_necessary_independence_takes_one_root(monkeypatch, bells1024):
    # the probes read tau^q exactly; only the verdict on the q found takes
    # a q-th root
    roots = []
    nth_root = anticonc.nth_root

    def counting(x, n, *args):
        roots.append(n)
        return nth_root(x, n, *args)

    monkeypatch.setattr(anticonc, "nth_root", counting)
    assert _q_found(128, 64, 1, bells1024) == 174
    assert roots == [174]


def test_side_condition_keeps_the_certificate_non_vacuous(bells1024):
    # 2^k > q^2 gives q^2 < M, and lemma2 is vacuous only from q^2 >= 2M on,
    # so impossibility_certificate has no vacuous case to handle
    for q in range(4, 1025, 2):
        k = (q * q).bit_length()        # the smallest k with 2^k > q^2
        assert lemma2_probability(q, 1 << k, bells1024) > 0, q
        with pytest.raises(PreconditionError, match="side condition"):
            impossibility_certificate(q, k - 1, bells1024)


def test_window_exhausted():
    bells = BellSequence()
    with pytest.raises(CapacityError, match="window"):
        necessary_independence(2000, 64, 0, bells, 64)
    assert bells.built <= 64


def _bisect_outcome(L, k, loss, bells, q_max) -> int | str | None:
    """The q found, None or "exhausted", by one bisection over the whole
    window on the same eps_star probe (the search before the gallop)."""
    qs = _search_window(k, q_max)
    M = 1 << k

    def fails(q: int) -> bool:
        cert = lemma2_certificate(q, M, bells)
        log2_eps_star = (
            log2_interval(cert.probability)
            + log2_interval(cert.threshold_power).divide_by_int(q)
        ).shift(-1)
        return not log2_eps_star.certainly_gt(-L)

    first_fail = bisect.bisect_left(qs, True, key=fails)
    if first_fail == len(qs):
        return "exhausted"
    if first_fail == 0:
        return None
    q = qs[first_fail - 1]
    verdict = impossibility_certificate(q, k, bells, loss=loss,
                                        log2_inv_eps=L)
    return q if verdict.target_covered else None


@pytest.mark.parametrize("q_max", [64, 300, 1024])
def test_gallop_matches_full_window_bisection(q_max):
    # windows of 1 (k = 5: the top is the only probe) to 511 even q, with
    # found, None and exhausted outcomes; ``grown`` is built only as far
    # as the gallop reads it
    reference = BellSequence()
    reference.bell(q_max)
    grown = BellSequence()
    outcomes = set()
    for k in (5, 12, 20, 43, 64, 200):
        for L in (8, 16, 43, 64, 128, 256, 400, 512, 1000):
            for loss in (0, Fraction(1, 2), 1, 2, 3):
                try:
                    got = _q_found(L, k, loss, grown, q_max)
                except CapacityError:
                    got = "exhausted"
                want = _bisect_outcome(L, k, loss, reference, q_max)
                assert got == want, (k, L, loss)
                outcomes.add(type(got))
    assert outcomes == {int, str, type(None)}


class _ReadTop(BellSequence):
    """A built Bell prefix that records the highest q read: how far a fresh
    sequence would have grown."""

    def __init__(self, values):
        super().__init__(values)
        self.top = 0

    def bell(self, q: int) -> int:
        self.top = max(self.top, q)
        return super().bell(q)


def test_search_stops_near_the_q_found(monkeypatch):
    # the secant aims each probe at the crossing of -L, so the search reads
    # Bell numbers at most 8 window indices past the q it finds; the probes
    # and the verdict are memoised per (q, M) and the verdict is reduced to
    # the q it is asked about, so this checks the reads of the search alone
    full = BellSequence()
    full.bell(DEFAULT_QMAX_CAP)
    certs = {}

    def lemma2(q, M, bells):
        bells.bell(q)
        if (q, M) not in certs:
            certs[q, M] = lemma2_certificate(q, M, full)
        return certs[q, M]

    def verdict_at(q, k, bells, loss, log2_inv_eps):
        return SimpleNamespace(target_covered=True,
                               params=SimpleNamespace(independence=q))

    monkeypatch.setattr(condenser, "lemma2_certificate", lemma2)
    monkeypatch.setattr(condenser, "log2_interval",
                        functools.lru_cache(maxsize=None)(log2_interval))
    monkeypatch.setattr(condenser, "impossibility_certificate", verdict_at)
    found = 0
    for k in (12, 16, 20, 24, 32, 43, 64):
        for L in range(2, 988):
            bells = _ReadTop(full.values)
            try:
                verdict = necessary_independence(L, k, 0, bells,
                                                 DEFAULT_QMAX_CAP)
            except CapacityError:
                continue
            if verdict is not None:
                q = verdict.params.independence
                assert bells.top <= q + 16, (k, L, q, bells.top)
                found += 1
    assert found > 4000


def test_gap_report_shapes(bells1024):
    rows = asymptotic_gap_report([64], 64, bells1024, 1024)
    assert len(rows) == 1
    assert rows[0].q_plus == 64
    assert rows[0].q_minus == 90
    assert rows[0].ratio == Fraction(90, 64)
    assert asymptotic_gap_report([], 64, bells1024, 1024) == []


def _enumerate_family_loads(w: int, degree: int):
    """Per-seed load vectors over all bins for the full seed enumeration."""
    mod = default_modulus(w)
    M = 1 << w
    # the full product table of GF(2^w), from the oracle's own multiply
    product = np.array([[_clmul_mod(a, b, mod) for b in range(M)]
                        for a in range(M)], dtype=np.int64)
    n_seeds = 1 << (w * (degree + 1))
    xs = np.arange(M, dtype=np.int64)
    loads = np.zeros((n_seeds, M), dtype=np.int8)
    chunk = max(1, (1 << 20) // M)
    for start in range(0, n_seeds, chunk):
        end = min(start + chunk, n_seeds)
        seeds = np.arange(start, end, dtype=np.int64)
        coeffs = [(seeds >> (w * i)) & (M - 1) for i in range(degree + 1)]
        acc = np.broadcast_to(coeffs[degree][:, None],
                              (len(seeds), M)).copy()
        for i in range(degree - 1, -1, -1):
            acc = product[acc, xs[None, :]]
            acc ^= coeffs[i][:, None]
        offsets = np.arange(end - start, dtype=np.int64) * M
        flat = (acc + offsets[:, None]).ravel()
        counts = np.bincount(flat, minlength=(end - start) * M)
        loads[start:end] = counts.reshape(end - start, M).astype(np.int8)
    return loads


def test_reduction_soundness_exhaustive_smallest_admissible(bells16):
    # smallest admissible k with q=4 is k=5 (side condition k > 2 log2 q);
    # 2^20 seeds of the degree-3 family over GF(32) are fully enumerated
    q, k = 4, 5
    M = 1 << k
    v = impossibility_certificate(q, k, bells16)
    cert = v.certificate
    assert not cert.vacuous
    red = v.reduction
    loads = _enumerate_family_loads(k, q - 1)
    n_seeds = loads.shape[0]
    tau_lo = cert.threshold.lo
    thr = -((-tau_lo.numerator) // tau_lo.denominator)  # ceil

    # per-bin tail soundness: Pr[S_b >= tau.lo] >= p for every bin
    tail_counts = (loads >= thr).sum(axis=0)
    for b in range(M):
        assert Fraction(int(tail_counts[b]), n_seeds) >= cert.probability

    # real-probability step: expected mass on heavy bins >= p * tau.lo
    heavy_mass = int((loads * (loads >= thr)).sum())
    assert Fraction(heavy_mass, n_seeds * M) >= cert.probability * tau_lo

    # waterfilling: true distance from the best (m-ell)-source never falls
    # below the claimed p*(tau.lo - 2^ell); at this scale tau.lo < 1 so the
    # claim is vacuous (nonpositive) for every feasible ell >= 0
    for ell in (0, 1):
        cap_num = 1 << ell  # cap = 2^ell / M per bin, loads scale is /M
        overflow = int(np.maximum(loads - cap_num, 0).sum())
        true_sd = Fraction(overflow, n_seeds * M)
        claim = cert.probability * (tau_lo - (1 << ell))
        assert claim <= 0 <= true_sd
    assert red.ell_star.hi < 0
    assert v.feasible == FEASIBLE_UNDETERMINED
