"""qasym: asymptotics of Eulerian q-series as q -> 1-.

Evaluates series of the form

    sum_m q^(A m^2 + B m) z^m / prod (q^a; q^b)_(c m + d)^S,      q = e^(-t),

three independent ways -- direct log-space summation, adaptive quadrature
of the continuous companion integral, and a stationary-phase asymptotic
expansion -- and cross-validates them against each other.
"""

from .errors import (ConvergenceError, DegenerateError, DomainError,
                     HypothesisError, IndexOverflowError, QasymError,
                     SignError, SpecError)
from .expansion import Analysis, AsymptoticResult, analyse, asym_from_parts, peak_value
from .phase import (HypothesisReport, StationaryPoint, check_hypothesis,
                    phase_deriv, phase_value, stationary_points)
from .presets import PRESETS, Preset, Reference, get_preset
from .quad import QuadResult, integral
from .qseries import (PochTerm, PrefactorLaw, ProductSpec, QuadTerm, SeriesSpec,
                      SumResult, log_summand, log_summand_deriv, normalize,
                      prefactor_asym, prefactor_exact, prefactor_law, series_sum)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "AsymptoticResult", "ConvergenceError", "DegenerateError",
    "DomainError", "HypothesisError", "HypothesisReport", "IndexOverflowError",
    "PRESETS", "PochTerm", "PrefactorLaw", "Preset", "ProductSpec",
    "QasymError", "QuadResult", "QuadTerm", "Reference", "SeriesSpec",
    "SignError", "SpecError", "StationaryPoint", "SumResult", "analyse",
    "asym_from_parts", "check_hypothesis", "get_preset", "integral",
    "log_summand", "log_summand_deriv", "normalize", "peak_value",
    "phase_deriv", "phase_value", "prefactor_asym", "prefactor_exact",
    "prefactor_law", "series_sum", "stationary_points",
]
