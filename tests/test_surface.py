"""The public surface: what `from ddlab import *` and `from ddlab.<module>
import *` hand out."""

import importlib
import pkgutil

import pytest

import ddlab

PUBLIC = [
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

MODULES = sorted(info.name for info in pkgutil.iter_modules(ddlab.__path__, "ddlab."))


def test_package_exports_the_intended_names():
    assert ddlab.__all__ == PUBLIC
    assert all(hasattr(ddlab, name) for name in ddlab.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_are_public(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert hasattr(module, attr), attr
        assert not attr.startswith("_"), attr
