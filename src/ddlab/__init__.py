"""Coherence of a single dephasing qubit under ideal pi-pulse sequences.

The package evaluates the exact signal s_n(t) = cos(2 phi_n) exp(-2 chi_n)
for a spin coupled to an ohmic (or tabulated, or classical) bath, compares
equidistant pulse timing against the optimized sin^2 timing, solves for
storage times and minimum pulse counts, and cross-checks the classical
path with a Monte Carlo noise simulation.
"""

__version__ = "0.1.0"

from .analysis import (
    RangeExhaustedError,
    SearchExhaustedError,
    StorageResult,
    SweepRow,
    SweepTable,
    compare_schemes,
    min_pulses,
    storage_time,
)
from .bath import (
    ClassicalBath,
    OhmicBath,
    TabulatedSpectralDensity,
    integrand_weight,
    spectral_density,
    thermal_weight,
)
from .decoherence import (
    CoherenceCurve,
    CoherencePoint,
    QuadratureError,
    QuadratureSpec,
    chi,
    coherence_curve,
    phase,
    signal,
)
from .filters import (
    bessel_approx,
    x_factor,
    y_abs_sq,
    y_factor,
)
from .montecarlo import McEstimate, mc_signal
from .sequences import PulseSequence, custom, deltas_from_csv, equidistant, udd
from .special import bessel_j

__all__ = [
    "__version__",
    "OhmicBath", "ClassicalBath", "TabulatedSpectralDensity",
    "spectral_density", "thermal_weight", "integrand_weight",
    "PulseSequence", "equidistant", "udd", "custom", "deltas_from_csv",
    "x_factor", "y_factor", "y_abs_sq",
    "bessel_approx", "bessel_j",
    "QuadratureSpec", "QuadratureError", "CoherencePoint", "CoherenceCurve",
    "chi", "phase", "signal", "coherence_curve",
    "StorageResult", "SweepRow", "SweepTable", "storage_time", "min_pulses",
    "compare_schemes", "RangeExhaustedError", "SearchExhaustedError",
    "McEstimate", "mc_signal",
]
