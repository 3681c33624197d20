"""The record and value types: immutable, equal by their fields, with a
``Name(field=value, ...)`` repr and their validation messages.

Ten plain records are NamedTuples; the five types that validate or
compute are slotted ``Frozen`` classes.  A sample of each is built from
SAMPLES, which names every field explicitly and in order.
"""

import pickle
from fractions import Fraction

import pytest

from condbound.anticonc import (AntiConcentrationCertificate,
                                CertificateComparison)
from condbound.asymptotic import AsymptoticEstimate
from condbound.condenser import (CondenserParams, CondenserVerdict, GapRow,
                                 HeavyBinReduction)
from condbound.errors import PreconditionError
from condbound.hashsim import HashFamilySpec
from condbound.independent import MomentStat, SimulationReport, TailStat
from condbound.intervals import FloatInterval, nth_root
from condbound.moments import (BallsBinsInstance, ExactLoadDistribution,
                               MomentResult)

_IV = FloatInterval(1, 3, 8)
_CERT_FIELDS = {"q": 4, "M": 16, "threshold_power": Fraction(9, 4),
                "probability": Fraction(1, 8), "variant": "bell-bound",
                "theta": None}
_CERT = AntiConcentrationCertificate(**_CERT_FIELDS)
_STAT = MomentStat(1, 1.0, 0.1, None)
_TAIL = TailStat(Fraction(2), 0.25, 0.01)

# every field of each type, by name and in order
SAMPLES = {
    FloatInterval: {"lo_scaled": 1, "hi_scaled": 3, "frac_bits": 8},
    BallsBinsInstance: {"balls": 4, "bins": 5, "independence": 3},
    HashFamilySpec: {"field_bits": 4, "degree": 2, "output_bits": 3},
    AntiConcentrationCertificate: _CERT_FIELDS,
    ExactLoadDistribution: {"support": {0: Fraction(1, 2), 1: Fraction(1, 2)}},
    MomentResult: {"instance": BallsBinsInstance(4, 5, 3), "order": 2,
                   "value": Fraction(7, 4), "log2_value": _IV},
    CertificateComparison: {"q": 4, "M": 16, "theta": Fraction(1, 4),
                            "bell": _CERT, "exact": _CERT, "lemma2": _CERT,
                            "exact_tau_le_bell_tau": True},
    AsymptoticEstimate: {"q": 5, "estimate": _IV, "exact": _IV,
                         "residual": _IV, "scaled_residual": _IV},
    CondenserParams: {"independence": 4, "loss_bits": Fraction(2),
                      "log2_inv_eps": Fraction(8), "entropy_k": 16},
    HeavyBinReduction: {"tau_lo": Fraction(3, 2), "ell_star": _IV,
                        "epsilon_star": Fraction(3, 32),
                        "log2_eps_star": _IV},
    CondenserVerdict: {
        "params": CondenserParams(4, Fraction(2), Fraction(8), 16),
        "feasible": "impossible", "certificate": _CERT,
        "reduction": HeavyBinReduction(Fraction(3, 2), _IV, Fraction(3, 32),
                                       _IV),
        "target_covered": True, "reference_claim": None},
    GapRow: {"log2_inv_eps": Fraction(8), "q_plus": 8, "q_minus": 6,
             "ratio": Fraction(3, 4), "band_lo": 0.5, "band_hi": 1.5,
             "within_band": False},
    MomentStat: {"order": 1, "mean": 1.0, "se": None, "exact": Fraction(1)},
    TailStat: {"threshold": Fraction(2), "frequency": 0.25, "se": 0.01},
    SimulationReport: {"config_echo": {"mode": "mc"}, "trials": 10,
                       "moments": (_STAT,), "tails": (_TAIL,),
                       "histogram": ((0, 3), (1, 7)), "se_defined": True},
}
# types whose sample holds a dict, which has no hash
_UNHASHABLE = {ExactLoadDistribution, SimulationReport}

_TYPES = pytest.mark.parametrize("cls", list(SAMPLES),
                                 ids=lambda cls: cls.__name__)


@_TYPES
def test_fields_are_neither_assigned_nor_deleted(cls):
    value = cls(*SAMPLES[cls].values())
    for field, given in SAMPLES[cls].items():
        assert getattr(value, field) is given
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0


@_TYPES
def test_equal_fields_give_equal_values(cls):
    fields = SAMPLES[cls]
    a, b = cls(*fields.values()), cls(**pickle.loads(pickle.dumps(fields)))
    assert a == b and not a != b
    if cls not in _UNHASHABLE:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@_TYPES
def test_repr_names_every_field(cls):
    fields = SAMPLES[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_unequal_fields_give_unequal_values():
    assert FloatInterval(1, 3, 8) != FloatInterval(1, 4, 8)
    assert BallsBinsInstance(4, 5, 3) != BallsBinsInstance(5, 4, 3)
    # a value of one type never equals a value of another
    assert HashFamilySpec(4, 2, 3) != BallsBinsInstance(4, 2, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: FloatInterval(2, 1), "interval endpoints out of order"),
    (lambda: BallsBinsInstance(0, 0, 0), "instance requires balls >= 1"),
    (lambda: BallsBinsInstance(1, 0, 0), "instance requires bins >= 1"),
    (lambda: BallsBinsInstance(1, 1, 0),
     "instance requires independence >= 1"),
    (lambda: HashFamilySpec(65, -1, 0),
     "field width 65 outside supported range [2, 64]"),
    (lambda: HashFamilySpec(4, -1, 0), "degree must be >= 0"),
    (lambda: HashFamilySpec(2, 4, 0),
     "q-wise independence requires q <= field size 2^w"),
    (lambda: HashFamilySpec(4, 2, 0), "output_bits must be in [1, field_bits]"),
    (lambda: HashFamilySpec(4, 2, 5), "output_bits must be in [1, field_bits]"),
    (lambda: HashFamilySpec.create(4, 17),
     "q-wise independence requires q <= field size 2^w"),
    (lambda: AntiConcentrationCertificate(4, 16, Fraction(1), Fraction(3, 2),
                                          "bell-bound"),
     "certificate probability above 1"),
], ids=["interval", "balls", "bins", "independence", "width", "degree",
        "field-size", "output-bits-0", "output-bits-above-w", "create",
        "probability"])
def test_validation_messages(build, message):
    # each case breaks every later check too, so the first check names it
    with pytest.raises(PreconditionError) as exc:
        build()
    assert str(exc.value) == message


def test_interval_is_not_a_tuple():
    # tuple + and * would concatenate and repeat an interval silently
    iv = FloatInterval(1, 3, 8)
    assert not isinstance(iv, tuple)
    with pytest.raises(TypeError):
        2 * iv
    with pytest.raises(TypeError):
        (1,) + iv


def test_certificate_takes_its_root_once():
    read, unread = (AntiConcentrationCertificate(**_CERT_FIELDS)
                    for _ in range(2))
    tau = read.threshold
    assert tau == nth_root(Fraction(9, 4), 4) and read.threshold is tau
    # the kept root is no field
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    assert pickle.loads(pickle.dumps(read)).threshold == tau
