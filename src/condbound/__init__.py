"""Exact load moments of q-wise independent balls-into-bins hashing,
certified anti-concentration certificates, and concrete impossibility
verdicts for min-entropy condensers, cross-validated by simulation and
exhaustive enumeration."""

__version__ = "0.1.0"

# Every public name, by the module that defines it.  Each is imported on
# first use (PEP 562), so importing condbound imports none of its modules,
# and numpy loads only with the polynomial family's simulator.
_PUBLIC = {
    "AntiConcentrationCertificate": "anticonc",
    "certificate_ordering": "anticonc", "lemma2_certificate": "anticonc",
    "pz_bound": "anticonc",
    "AsymptoticEstimate": "asymptotic", "estimate_residual": "asymptotic",
    "stirling_max_log_estimate": "asymptotic",
    "BellSequence": "combinat",
    "CondenserParams": "condenser", "CondenserVerdict": "condenser",
    "asymptotic_gap_report": "condenser",
    "impossibility_certificate": "condenser",
    "necessary_independence": "condenser", "positive_params": "condenser",
    "CapacityError": "errors", "CondboundError": "errors",
    "PreconditionError": "errors",
    "FloatInterval": "intervals", "log2_interval": "intervals",
    "nth_root": "intervals",
    "BallsBinsInstance": "moments", "ExactLoadDistribution": "moments",
    "MomentResult": "moments", "moment_norm": "moments",
    "moment_sandwich": "moments", "raw_moment": "moments",
    "HashFamilySpec": "hashsim", "evaluate_hash": "hashsim",
    "exact_small_oracle": "hashsim", "run_trials": "hashsim",
    "SimulationReport": "independent", "independent_oracle": "independent",
}

__all__ = sorted(_PUBLIC)


def __getattr__(name):
    """Resolve a public name on first use from the module that defines it."""
    if name in _PUBLIC:
        from importlib import import_module
        return getattr(import_module(f".{_PUBLIC[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
