"""Feasibility analysis for min-entropy condensers built from q-universal
hashing, in the square regime k = m (source entropy equals output width).

Positive side: a q-universal family condenses with quality eps = 2^-q at
loss log2(q).  Negative side: for M = N = 2^k, the anti-concentration
certificate (tau, p) turns into a concrete impossibility region through a
heavy-bin distinguisher against the flat source uniform on all 2^k inputs:

* real side: a bin of load >= tau holds mass >= tau/M, and a fraction >= p
  of bins is that heavy in expectation over the seed, so the output lands
  in a currently-heavy bin with probability >= p*tau (using N = M);
* ideal side: any per-seed distribution with min-entropy m - ell puts at
  most 2^(ell-k) on each bin, hence at most (heavy count)*2^(ell-k) on the
  heavy set.

Averaging over seeds gives statistical distance >= p*(tau - 2^ell) for
every loss ell <= log2(tau).  The exposed corner is ell_star =
log2(tau.lo) - 1 with eps_star = p*tau.lo/2, both exact.  Closeness is
read jointly with the seed (the comparison distribution may depend on the
seed and must have min-entropy m - ell for each seed); without that
convention the seed-averaged output is exactly uniform and no lower bound
exists.

The side condition 2^k > q^2 keeps the certificate non-vacuous, so every
verdict carries a region.

This module does no Bell arithmetic of its own: it reads p and tau^q from
the ``anticonc`` certificate, where each is defined once.  A search's
window is capped by the q_max its caller passes.  Asymptotic shorthands
never produce numbers here; the closed-form trend is attached to reports
for comparison only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .anticonc import AntiConcentrationCertificate, lemma2_certificate
from .combinat import BellSequence, _check_q_max
from .errors import CapacityError, PreconditionError
from .intervals import DEFAULT_FRAC_BITS, FloatInterval, log2_interval

FEASIBLE_IMPOSSIBLE = "impossible"
FEASIBLE_UNDETERMINED = "undetermined"

# Externally published parameter pairs for side-by-side display; the
# derivation behind them is not restated by the computation, so reports
# show both and flag any discrepancy instead of silently matching.
REFERENCE_CLAIMS = {
    (64, 43): {"loss": Fraction("2.6"), "log2_inv_eps": Fraction(43)},
}


class CondenserParams(NamedTuple):
    """Parameter record in the k = m regime; absent fields are symbolic."""

    independence: int
    # a target loss is exact; the achieved loss log2 q is an enclosure,
    # of zero width when q is a power of two
    loss_bits: Fraction | FloatInterval | None
    log2_inv_eps: Fraction | None
    entropy_k: int | None = None


class HeavyBinReduction(NamedTuple):
    tau_lo: Fraction                 # dyadic, lower enclosure endpoint
    ell_star: FloatInterval          # log2(tau_lo) - 1
    epsilon_star: Fraction           # p * tau_lo / 2, exact
    log2_eps_star: FloatInterval


class CondenserVerdict(NamedTuple):
    params: CondenserParams
    feasible: str
    certificate: AntiConcentrationCertificate
    reduction: HeavyBinReduction
    target_covered: bool | None = None
    reference_claim: dict | None = None


def positive_params(log2_inv_eps) -> CondenserParams:
    """Achievable parameters: q = ceil(log2(1/eps)), loss = log2 q, k = m."""
    L = Fraction(log2_inv_eps)
    if L <= 1:
        raise PreconditionError("positive_params requires eps < 1/2")
    q = math.ceil(L)
    return CondenserParams(independence=q, loss_bits=log2_interval(q),
                           log2_inv_eps=L)


def _check_side_condition(q: int, k: int):
    if k < 1:
        raise PreconditionError("impossibility requires k >= 1")
    if (1 << k) <= q * q:
        raise PreconditionError(
            f"side condition k > 2*log2(q) violated: 2^{k} <= {q}^2")


def _coerce_target(value) -> Fraction | None:
    return None if value is None else Fraction(value)


def heavy_bin_reduction(
        cert: AntiConcentrationCertificate) -> HeavyBinReduction:
    """Exact (ell_star, eps_star) corner of the ruled-out region."""
    tau_lo = cert.threshold.lo
    if tau_lo <= 0:
        raise PreconditionError("reduction requires a positive threshold")
    ell_star = log2_interval(tau_lo).shift(-1)
    eps_star = cert.probability * tau_lo / 2
    return HeavyBinReduction(tau_lo, ell_star, eps_star,
                             log2_interval(eps_star))


def _covers(reduction: HeavyBinReduction, loss, log2_inv_eps) -> bool:
    """Whether the region certainly holds (loss, 2^-log2_inv_eps); an absent
    loss reads as 0 and an absent eps target as any eps."""
    return (reduction.ell_star.certainly_ge(0 if loss is None else loss)
            and (log2_inv_eps is None
                 or reduction.log2_eps_star.certainly_gt(-log2_inv_eps)))


def impossibility_certificate(q: int, k: int, bells: BellSequence,
                              loss=None,
                              log2_inv_eps=None) -> CondenserVerdict:
    """Impossibility verdict for q-universal condensing at k = m.

    Rules out every (loss, eps) with loss <= ell_star and eps < eps_star.
    With a concrete target supplied, ``feasible`` reports whether that
    target is certifiably inside the region; without one, the verdict is
    ``impossible`` as soon as the region reaches nonnegative losses.
    """
    loss = _coerce_target(loss)
    log2_inv_eps = _coerce_target(log2_inv_eps)
    _check_side_condition(q, k)
    M = 1 << k
    cert = lemma2_certificate(q, M, bells)
    params = CondenserParams(independence=q, loss_bits=loss,
                             log2_inv_eps=log2_inv_eps, entropy_k=k)
    # the side condition gives q^2 < M, and lemma2 is vacuous only when
    # q^2 >= 2M, so the certificate always yields a region
    red = heavy_bin_reduction(cert)
    covered = _covers(red, loss, log2_inv_eps)
    feasible = FEASIBLE_IMPOSSIBLE if covered else FEASIBLE_UNDETERMINED
    targeted = loss is not None or log2_inv_eps is not None
    claim = REFERENCE_CLAIMS.get((q, k))
    reference = None if claim is None else {
        **claim, "claim_covered_by_certificate":
            _covers(red, claim["loss"], claim["log2_inv_eps"])}
    return CondenserVerdict(params, feasible, cert, red,
                            covered if targeted else None, reference)


def _search_window(k: int, q_max: int) -> range:
    """The even q in 4..q_max with q^2 < 2^k, the side condition."""
    if q_max < 4:
        raise PreconditionError(f"the search window's cap q_max={q_max} < 4")
    _check_q_max(q_max)
    qs = range(4, min(q_max, math.isqrt((1 << k) - 1)) + 1, 2)
    if not qs:
        raise PreconditionError(
            f"no even q >= 4 satisfies the side condition at k={k}")
    return qs


def necessary_independence(log2_inv_eps, k: int, loss, bells: BellSequence,
                           q_max: int) -> CondenserVerdict | None:
    """Verdict at the largest even q whose certificate rules out the target
    (loss, eps); its ``params.independence`` is that q.

    The window is the even q in 4..q_max (at most DEFAULT_QMAX_CAP) that
    meet the side condition.  Certificates at lower independence transfer
    upward (a q'-universal family is q-universal for q <= q'), so the q
    found, the top of the certifying band, rules the target out for every
    family whose independence is at least q.  Returns None when no q in
    the window rules the target out; raises CapacityError when the band is
    still open at the top of the window (q_max too small to locate it).

    Each probe asks whether log2(eps_star) = log2(p) + log2(tau^q)/q - 1
    certainly exceeds -log2(1/eps).  A gallop over the window's indices
    brackets the first probe that does not: each step goes to where the
    secant through the last two probes' lower ends of log2(eps_star)
    crosses -log2(1/eps), but at most to twice the index passed (so 0, 1,
    2, 4, 8, ... while the secant aims further).  Inside the bracket the
    secant picks each probe the same way until the bracket closes; the
    window's top is probed only when every gallop step passes.  log2
    eps_star is nearly linear in q, so the first failing probe lands a few
    indices past the q found: ``bells`` grows to at most 16 past it over
    k = 12..64, loss 0 and log2(1/eps) = 2..987, not to q_max.  Any probe
    order finds the same q, because the probe predicate is monotone in q:

    * eps_star(q) = (1 - q^2/(2M)) * g(q), where g depends on q only;
    * on the window (q^2 < M) the first factor lies in (1/2, 1] and falls
      as q grows;
    * g falls by at least 0.84 bits per even step for 4 <= q <= 2048, and
      DEFAULT_QMAX_CAP = 2048 bounds every window;
    * the enclosures are about 2^-250 wide (DEFAULT_FRAC_BITS = 256), far
      below that drop, so their lower endpoints fall with q as well.

    The probes read tau^q and never take its root; the q found is
    re-checked through the verdict, which uses tau's rounded-down endpoint,
    so a call takes one q-th root.
    """
    L = _coerce_target(log2_inv_eps)
    loss = _coerce_target(loss)
    if L is None or loss is None:
        raise PreconditionError("necessary_independence needs loss and eps targets")
    qs = _search_window(k, q_max)
    M = 1 << k
    target = -L * (1 << DEFAULT_FRAC_BITS)   # -L at the enclosures' scale
    probes = []     # (index, lower end of log2 eps_star) of each probe

    def passes(i: int) -> bool:
        cert = lemma2_certificate(qs[i], M, bells)
        log2_eps_star = (
            log2_interval(cert.probability)
            + log2_interval(cert.threshold_power).divide_by_int(qs[i])
        ).shift(-1)
        probes.append((i, log2_eps_star.lo_scaled))
        return log2_eps_star.certainly_gt(-L)

    def aim(lo: int, hi: int) -> int:
        """The index in [lo, hi] at or below where the secant through the
        last two probes crosses -L (hi before there are two)."""
        if len(probes) < 2:
            return hi
        (a, f_a), (b, f_b) = probes[-2:]   # f falls strictly with q
        return min(max(b + math.floor((target - f_b) * (b - a) / (f_b - f_a)),
                       lo), hi)

    # the first index that fails lies in (passed, failed]: gallop with the
    # secant, each step at most doubling the passed index, until a probe
    # fails or the window's top passes
    passed, top = -1, len(qs) - 1
    while True:
        i = aim(passed + 1, min(2 * passed or 1, top)) if passed >= 0 else 0
        if not passes(i):
            break
        if i == top:
            raise CapacityError(
                f"search window exhausted: eps_star at q={qs[top]} still "
                f"exceeds the target; the window's cap is q_max={q_max}")
        passed = i
    failed = i
    # then narrow the bracket at the secant's crossing inside it
    while failed - passed > 1:
        i = aim(passed + 1, failed - 1)
        if passes(i):
            passed = i
        else:
            failed = i
    if failed == 0:
        return None
    verdict = impossibility_certificate(qs[failed - 1], k, bells,
                                        loss=loss, log2_inv_eps=L)
    return verdict if verdict.target_covered else None


class GapRow(NamedTuple):
    log2_inv_eps: Fraction
    q_plus: int
    q_minus: int | None
    ratio: Fraction | None
    band_lo: float | None
    band_hi: float | None
    within_band: bool | None


def asymptotic_gap_report(log2_inv_eps_list, k: int, bells: BellSequence,
                          q_max: int, loss=Fraction(1)) -> list[GapRow]:
    """Positive q+ versus certified q- (up to q_max) per target quality.

    The attached band is the closed-form trend 1 +/- logloglog(1/eps) /
    loglog(1/eps) with unit constant, reported for comparison only (the
    true implied constant is not instantiated anywhere).  Below L = 2,
    where log2 log2 L < 0, it has no meaning, and the row reports no band.
    """
    rows = []
    for L in log2_inv_eps_list:
        L = Fraction(L)
        q_plus = positive_params(L).independence
        verdict = necessary_independence(L, k, loss, bells, q_max)
        q_minus = None if verdict is None else verdict.params.independence
        ratio = None if q_minus is None else Fraction(q_minus) / L
        band_lo = band_hi = within = None
        if L >= 2:  # exact, before float(L) can round L to 1
            loglog = math.log2(math.log2(float(L)))
            half_width = loglog / math.log2(float(L))
            band_lo, band_hi = 1 - half_width, 1 + half_width
            if ratio is not None:
                within = band_lo <= float(ratio) <= band_hi
        rows.append(GapRow(L, q_plus, q_minus, ratio, band_lo, band_hi, within))
    return rows
