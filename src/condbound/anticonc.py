"""Lower bounds on Pr[S >= tau] for the load S of one bin when M = N.

Two certificate variants are produced, both sound for every q-wise
independent family:

* ``exact-moment``: Paley-Zygmund applied to S^(q/2), thresholding at
  theta^(2/q) * ||S||_{q/2} with probability (1-theta)^2 (E S^{q/2})^2 / E S^q.
* ``bell-bound``: the closed form in Bell numbers: threshold
  (B_{q/2})^(2/q) / 2 and probability (1 - q^2/(2M)) (B_{q/2})^2 / (2 B_q).

The exact-moment variant reads two raw moments from one pass over the
Stirling rows.  The Bell variants read a ``BellSequence``, and p has one
definition here, ``lemma2_probability``; the condenser layer does no Bell
arithmetic of its own.

Every threshold is a q-th root of an exact rational.  A certificate keeps
tau^q exact as ``threshold_power``, and its ``threshold`` property takes
the root, the only one here, on first read; the condenser search reads
log2(tau^q)/q instead.  Thresholds are enclosures, always consumed through
their lower endpoint: {S >= tau} is a subset of {S >= tau.lo}, so every
stated certificate remains true after rounding.  Probabilities stay exact
rationals.  A certificate whose probability is not positive is vacuous
(it claims nothing) and is a first-class value, not an error; for the
Bell variants that happens exactly when q^2 >= 2M, and the exact-moment
variant is never vacuous.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .combinat import BellSequence, _check_q_max
from .errors import CondboundError, PreconditionError
from .frozen import Frozen
from .intervals import FloatInterval, nth_root
from .moments import BallsBinsInstance, _moment_values

VARIANT_EXACT = "exact-moment"
VARIANT_BELL = "bell-bound"


class AntiConcentrationCertificate(Frozen):
    """Pr[S >= threshold.lo] >= probability, unless vacuous, where
    threshold encloses the q-th root of threshold_power."""

    _fields = ("q", "M", "threshold_power", "probability", "variant",
               "theta")
    __slots__ = (*_fields, "_threshold")

    def __init__(self, q: int, M: int, threshold_power: Fraction,
                 probability: Fraction, variant: str,
                 theta: Fraction | None = None):
        if probability > 1:
            raise PreconditionError("certificate probability above 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "threshold_power", threshold_power)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "theta", theta)

    @property
    def threshold(self) -> FloatInterval:
        """The root, taken on first read and kept."""
        try:
            return self._threshold
        except AttributeError:
            tau = nth_root(self.threshold_power, self.q)
            object.__setattr__(self, "_threshold", tau)
            return tau

    @property
    def vacuous(self) -> bool:
        return self.probability <= 0


def _check_q(q: int):
    if q % 2 != 0:
        raise PreconditionError(f"q={q} must be even")
    if q < 4:
        raise PreconditionError(f"q={q} must be at least 4")
    _check_q_max(q)  # before any Bell number or Stirling row is built


def pz_bound(inst: BallsBinsInstance, theta) -> AntiConcentrationCertificate:
    """Paley-Zygmund certificate from the exact moments of the instance.

    Threshold: theta^(2/q) * ||S||_{q/2}, the q-th root of
    (theta * E S^{q/2})^2.  Probability:
    (1-theta)^2 * (E S^{q/2})^2 / E S^q, exact.  Both moments come from
    one pass over the Stirling rows, so a q above DEFAULT_QMAX_CAP is
    rejected before any work.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise PreconditionError("pz_bound requires 0 < theta < 1")
    q = inst.independence
    _check_q(q)
    if inst.balls != inst.bins:
        raise PreconditionError("pz_bound is stated for M = N only")
    moments = _moment_values(inst, (q, q // 2))
    full, half = moments[q], moments[q // 2]
    prob = (1 - theta) ** 2 * half ** 2 / full
    return AntiConcentrationCertificate(q, inst.balls, (theta * half) ** 2,
                                        prob, VARIANT_EXACT, theta)


def lemma2_probability(q: int, M: int, bells: BellSequence) -> Fraction:
    """(1 - q^2/(2M)) * (B_{q/2})^2 / (2 B_q), exact; not positive, so
    vacuous, exactly when q^2 >= 2M."""
    return ((1 - Fraction(q * q, 2 * M))
            * Fraction(bells.bell(q // 2) ** 2, 2 * bells.bell(q)))


def lemma2_certificate(q: int, M: int,
                       bells: BellSequence) -> AntiConcentrationCertificate:
    """Bell-number certificate for M = N: threshold (B_{q/2})^(2/q) / 2,
    the q-th root of (B_{q/2})^2 / 4^(q/2), and probability
    (1 - q^2/(2M)) * (B_{q/2})^2 / (2 B_q).

    Vacuous exactly when q^2 >= 2M.
    """
    _check_q(q)
    if M < 1:
        raise PreconditionError("lemma2_certificate requires M >= 1")
    power = Fraction(bells.bell(q // 2) ** 2, 4 ** (q // 2))
    return AntiConcentrationCertificate(q, M, power,
                                        lemma2_probability(q, M, bells),
                                        VARIANT_BELL)


def bell_bound_at_theta(q: int, M: int, theta,
                        bells: BellSequence) -> AntiConcentrationCertificate:
    """Bell-number certificate with theta kept explicit: threshold
    theta^(2/q) * (B_{q/2})^(2/q), the q-th root of (theta * B_{q/2})^2,
    and probability (1-theta)^2 * (1 - q^2/(2M)) * (B_{q/2})^2 / B_q.

    Setting theta = 1/q and relaxing theta^(2/q) and (1-theta)^2 to 1/2
    recovers lemma2_certificate.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise PreconditionError("bell_bound_at_theta requires 0 < theta < 1")
    _check_q(q)
    power = (theta * bells.bell(q // 2)) ** 2
    prob = 2 * (1 - theta) ** 2 * lemma2_probability(q, M, bells)
    return AntiConcentrationCertificate(q, M, power, prob, VARIANT_BELL,
                                        theta)


class CertificateComparison(NamedTuple):
    """Both certificate variants at theta = 1/q, with the ordering facts
    that make the Bell variant a relaxation of the exact-moment one."""

    q: int
    M: int
    theta: Fraction
    bell: AntiConcentrationCertificate
    exact: AntiConcentrationCertificate
    lemma2: AntiConcentrationCertificate
    exact_tau_le_bell_tau: bool


def certificate_ordering(q: int, M: int,
                         bells: BellSequence) -> CertificateComparison:
    """Evaluate both variants at theta = 1/q and assert that the Bell
    variant's probability never exceeds the exact-moment one (it lower
    bounds the numerator and upper bounds the denominator)."""
    _check_q(q)
    cert_l2 = lemma2_certificate(q, M, bells)
    if cert_l2.vacuous:
        raise PreconditionError(
            f"certificate_ordering requires a non-vacuous certificate "
            f"(q^2={q*q} >= 2M={2*M})")
    theta = Fraction(1, q)
    inst = BallsBinsInstance(M, M, q)
    cert_exact = pz_bound(inst, theta)
    cert_bell = bell_bound_at_theta(q, M, theta, bells)
    if cert_bell.probability > cert_exact.probability:
        raise CondboundError(
            "bell-bound probability exceeded the exact-moment probability; "
            "this contradicts the moment sandwich")
    tau_ok = cert_exact.threshold.hi <= cert_bell.threshold.hi
    return CertificateComparison(q, M, theta, cert_bell, cert_exact, cert_l2,
                                 tau_ok)
