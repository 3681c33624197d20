"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values are frozen from independent oracles (explicit enumeration,
the binomial Bell recurrence, exact big-integer comparisons); tolerances
are stated inline and are exact (zero) wherever the criterion is exact.
"""

import json
import math
from fractions import Fraction

import pytest

from condbound import (BallsBinsInstance, BellSequence, HashFamilySpec,
                       exact_small_oracle, lemma2_certificate,
                       positive_params, pz_bound, raw_moment, run_trials)
from condbound.asymptotic import estimate_residual, sandwich_holds
from condbound.cli import dispatch
from condbound.combinat import _stirling_rows
from condbound.condenser import necessary_independence
from condbound.errors import PreconditionError
from condbound.intervals import FloatInterval, parse_dyadic

from oracles import (assignment_bin0_histogram, bell_by_binomial_recurrence,
                     partition_counts_by_blocks)

# criterion 8 regression constant, measured once at first run over
# q in [8, 1024] (observed maximum 1.9704 at q=8) and frozen
SCALED_RESIDUAL_BOUND = Fraction("2.2")


def _passline(n: int, text: str):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_moment_identity_exhaustive():
    """Eq-identity exactness against the full N^M assignment average,
    M = N in 2..8, orders up to min(M, 6); zero tolerance."""
    checked = 0
    for M in range(2, 9):
        hist = assignment_bin0_histogram(M, M)
        total = M ** M
        for order in range(1, min(M, 6) + 1):
            brute = sum(Fraction(c, total) * s ** order
                        for s, c in enumerate(hist))
            inst = BallsBinsInstance(M, M, order)
            assert raw_moment(inst, order).value == brute, (M, order)
            checked += 1
    _passline(1, f"raw moments equal exhaustive averages exactly "
                 f"({checked} (M, order) pairs, M=N in 2..8)")


def test_criterion_2_combinatorics_oracle():
    """Stirling numbers vs exhaustive set-partition enumeration for
    q <= 12; Bell numbers vs row sums and the binomial recurrence."""
    rows = list(_stirling_rows(12))
    bells = BellSequence()
    triangle = bell_by_binomial_recurrence(12)
    for q in range(13):
        counts = partition_counts_by_blocks(q)
        for j in range(q + 1):
            assert rows[q][j] == counts[j], (q, j)
        row_sum = sum(rows[q])
        assert bells.bell(q) == row_sum == triangle[q] == sum(counts)
    _passline(2, "S(q,j) matches partition enumeration and B_q matches "
                 "both identities for q <= 12 (exact)")


def test_criterion_3_exhaustive_certificate_soundness():
    """Seed-enumerated Pr[S >= tau.lo] >= certificate p whenever the
    certificate is non-vacuous; exact comparison throughout.

    The 4-wise certificates at M = 4 and M = 8 sit at or past the
    vacuity boundary q^2 >= 2M, so GF(16) provides the non-vacuous
    fourth-moment case; the Paley-Zygmund variants are non-vacuous on
    every degree-3 family and are checked on all of them.
    """
    bells = BellSequence()
    lines = []

    # pairwise family over GF(4): no admissible q >= 4 certificate
    with pytest.raises(PreconditionError):
        lemma2_certificate(2, 4, bells)
    lines.append("GF(4) pairwise: no q>=4 certificate applies (skipped)")

    nonvacuous_checked = 0
    for w in (2, 3, 4):
        M = 1 << w
        spec = HashFamilySpec.create(w, independence=4)
        dist = exact_small_oracle(spec)
        cert = lemma2_certificate(4, M, bells)
        if cert.vacuous:
            lines.append(f"GF({M}) degree-3: lemma2 vacuous (q^2 >= 2M)")
        else:
            tail = dist.tail_ge(cert.threshold.lo)
            assert tail >= cert.probability, (w, tail, cert.probability)
            lines.append(f"GF({M}) degree-3: tail {tail} >= p "
                         f"{cert.probability}")
            nonvacuous_checked += 1
        inst = BallsBinsInstance(M, M, 4)
        for theta in (Fraction(1, 2), Fraction(1, 4)):
            pz = pz_bound(inst, theta)
            tail = dist.tail_ge(pz.threshold.lo)
            assert tail >= pz.probability, (w, theta)
            nonvacuous_checked += 1
    assert nonvacuous_checked >= 7
    _passline(3, "; ".join(lines))


def test_criterion_4_monte_carlo_certificate_soundness():
    """Empirical tail frequency >= p - 3*SE over 1e5 trials for
    (q, log2 M) in {(4,12), (6,12), (8,13)}."""
    results = []
    for q, log2m in [(4, 12), (6, 12), (8, 13)]:
        cert = lemma2_certificate(q, 1 << log2m, BellSequence())
        assert not cert.vacuous
        spec = HashFamilySpec.create(log2m, independence=q)
        report = run_trials(spec, trials=100_000, master_seed=2024_0000 + q,
                            orders=(1,), thresholds=(cert.threshold.lo,),
                            threads=1)
        tail = report.tails[0]
        p = float(cert.probability)
        assert tail.frequency >= p - 3 * tail.se, (q, log2m, tail, p)
        results.append(f"(q={q}, M=2^{log2m}): freq {tail.frequency:.4f} "
                       f">= p - 3SE = {p - 3 * tail.se:.4f}")
    _passline(4, "; ".join(results))


def test_criterion_5_reference_example_reproduction(capsys):
    """`condense check --q 64 --k 43`: exact ell_star and log2 eps_star
    from B_32 and B_64, published pair displayed side by side, and the
    discrepancy reported rather than silently matched."""
    code = dispatch(["condense", "check", "--q", "64", "--k", "43"])
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)["result"]

    # independent recomputation from streamed Bell numbers
    bells = BellSequence()
    b32, b64 = bells.bell(32), bells.bell(64)
    p = (1 - Fraction(64 * 64, 2 ** 44)) * Fraction(b32 ** 2, 2 * b64)
    assert Fraction(int(res["certificate"]["p_num"]),
                    int(res["certificate"]["p_den"])) == p

    tau_lo = parse_dyadic(res["certificate"]["tau_lo"])
    tau_hi = parse_dyadic(res["certificate"]["tau_hi"])
    radicand = Fraction(b32 ** 2, 4 ** 32)
    assert tau_lo ** 64 <= radicand <= tau_hi ** 64  # exact root bracketing

    eps_star = Fraction(int(res["reduction"]["epsilon_star"]["num"]),
                        int(res["reduction"]["epsilon_star"]["den"]))
    assert eps_star == p * tau_lo / 2

    # the ruled-out region {ell <= ell_star, log2(1/eps) >= -log2(eps_star)}
    ell_star = parse_dyadic(res["ell_star"])
    log2_eps_star = parse_dyadic(res["log2_eps_star_lo"])
    assert res["feasible"] == "impossible"  # region reaches ell >= 0
    assert ell_star > 0
    assert float(ell_star) == pytest.approx(0.71022, abs=1e-4)
    assert float(log2_eps_star) == pytest.approx(-43.5446, abs=1e-3)

    # published pair shown side by side, discrepancy flagged
    claim = res["reference_claim"]
    assert claim["loss"] == {"num": "13", "den": "5"}           # 2.6
    assert claim["log2_inv_eps"] == {"num": "43", "den": "1"}   # 2^-43
    assert claim["claim_covered_by_certificate"] is False
    assert Fraction(13, 5) > ell_star          # loss side of the discrepancy
    assert Fraction(-43) > log2_eps_star       # quality side
    _passline(5, f"computed (ell*={float(ell_star):.4f}, "
                 f"log2 eps*={float(log2_eps_star):.4f}) vs published "
                 f"(2.6, -43); region impossible, claim not covered "
                 f"(discrepancy reported)")


def test_criterion_6_positive_side():
    """positive_params(2^-64) = (q=64, ell=6) exactly."""
    params = positive_params(64)
    assert params.independence == 64
    assert params.loss_bits == FloatInterval.from_int(6)   # zero width
    _passline(6, "positive parameters at eps=2^-64: q=64, loss=6 (exact)")


def test_criterion_7_ratio_trend(bells1024):
    """Certified ratio q-/log2(1/eps) at k=64 is nondecreasing across the
    eps grid ordered by numeric value (2^-512 < ... < 2^-64), converging
    toward 1 as eps shrinks."""
    ratios = {}
    for L in [64, 128, 256, 512]:
        verdict = necessary_independence(L, 64, 1, bells1024, 1024)
        assert verdict is not None
        ratios[L] = Fraction(verdict.params.independence, L)
    ordered_by_eps_ascending = [ratios[512], ratios[256], ratios[128],
                                ratios[64]]
    for a, b in zip(ordered_by_eps_ascending, ordered_by_eps_ascending[1:]):
        assert a <= b
    assert all(r > 1 for r in ratios.values())
    _passline(7, "ratios " + ", ".join(
        f"2^-{L}: {float(r):.4f}" for L, r in sorted(ratios.items()))
        + " ; monotone toward 1 as eps -> 0")


def test_criterion_8_residuals_and_sandwich(bells1024):
    """|scaled residual| below the frozen regression constant on
    q in [8, 1024]; exact sandwich max_j S <= B_q <= q max_j S on
    q in [1, 1024]."""
    worst = Fraction(0)
    for q in range(8, 1025):
        est = estimate_residual(q, bells1024)
        hi = max(abs(est.scaled_residual.lo), abs(est.scaled_residual.hi))
        assert hi <= SCALED_RESIDUAL_BOUND, q
        worst = max(worst, hi)
    assert sandwich_holds(1024, bells1024)
    _passline(8, f"max |scaled residual| = {float(worst):.4f} <= "
                 f"{float(SCALED_RESIDUAL_BOUND)} ; sandwich exact for "
                 f"q in [1, 1024]")


def test_criterion_9_simulation_determinism(capsys):
    """Bit-identical `simulate` JSON across differing --threads."""
    argv = ["simulate", "--w", "12", "--q", "4", "--trials", "20000",
            "--master-seed", "777", "--orders", "1,2",
            "--thresholds", "1,3/2^1"]
    assert dispatch(argv + ["--threads", "1"]) == 0
    out1 = capsys.readouterr().out
    assert dispatch(argv + ["--threads", "5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert json.loads(out1)["result"]["trials"] == 20000
    _passline(9, "simulate outputs byte-identical at --threads 1 and 5 "
                 "(20000 trials, w=12)")
