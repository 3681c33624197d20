"""Exact load moments of q-wise independent balls-into-bins hashing,
certified anti-concentration certificates, and concrete impossibility
verdicts for min-entropy condensers, cross-validated by simulation and
exhaustive enumeration."""

__version__ = "0.1.0"

from .anticonc import (AntiConcentrationCertificate, certificate_ordering,
                       lemma2_certificate, pz_bound)
from .asymptotic import (AsymptoticEstimate, estimate_residual,
                         stirling_max_log_estimate)
from .combinat import BellSequence
from .condenser import (CondenserParams, CondenserVerdict,
                        asymptotic_gap_report, impossibility_certificate,
                        necessary_independence, positive_params)
from .errors import CapacityError, CondboundError, PreconditionError
from .intervals import FloatInterval, log2_interval, nth_root
from .moments import (BallsBinsInstance, ExactLoadDistribution,
                      MomentResult, moment_norm, moment_sandwich, raw_moment)

__all__ = [
    "AntiConcentrationCertificate", "AsymptoticEstimate",
    "BallsBinsInstance", "BellSequence", "CapacityError", "CondboundError",
    "CondenserParams", "CondenserVerdict", "ExactLoadDistribution",
    "FloatInterval", "HashFamilySpec", "MomentResult", "PreconditionError",
    "SimulationConfig", "SimulationReport", "asymptotic_gap_report",
    "certificate_ordering", "estimate_residual", "evaluate_hash",
    "exact_small_oracle", "impossibility_certificate",
    "independent_oracle", "lemma2_certificate", "log2_interval",
    "moment_norm", "moment_sandwich", "necessary_independence", "nth_root",
    "positive_params", "pz_bound", "raw_moment", "run_trials",
    "stirling_max_log_estimate",
]

# The simulator's names, by the module that defines them.  The polynomial
# family's simulator needs numpy; the API above does not, and neither
# does the fully independent reference, which imports the simulator only
# for a shape too large to enumerate.
_SIMULATOR_NAMES = {
    "HashFamilySpec": "hashsim", "SimulationConfig": "hashsim",
    "evaluate_hash": "hashsim", "exact_small_oracle": "hashsim",
    "run_trials": "hashsim", "SimulationReport": "independent",
    "independent_oracle": "independent",
}


def __getattr__(name):
    """Resolve the simulator's names on first use (PEP 562), so importing
    condbound imports neither numpy nor the simulator's modules."""
    if name in _SIMULATOR_NAMES:
        from importlib import import_module
        return getattr(import_module(f".{_SIMULATOR_NAMES[name]}", __name__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
