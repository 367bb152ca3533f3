"""The public surface: what `from ddlab import *` and `from ddlab.<module>
import *` hand out."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ddlab

PUBLIC = [
    "__version__",
    "OhmicBath", "ClassicalBath", "TabulatedSpectralDensity",
    "spectral_density", "thermal_weight", "integrand_weight",
    "PulseSequence", "equidistant", "udd", "custom", "deltas_from_csv",
    "x_factor", "y_factor", "y_abs_sq",
    "bessel_approx", "bessel_j",
    "QuadratureSpec", "QuadratureError", "CoherencePoint",
    "chi", "phase", "signal", "coherence_curve",
    "StorageResult", "SweepRow", "storage_time", "min_pulses",
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


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 imports numpy.random lazily (numpy 1 with numpy itself): the
    # Monte Carlo layer binds what it needs from it on first use, so that
    # import ddlab, and every CLI start, does not pay for it
    src = str(Path(ddlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, numpy; loaded = set(sys.modules); import ddlab; "
            "print('numpy.random' in set(sys.modules) - loaded)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"
