"""Bath spectral densities, thermal weights, and the integrand weight.

Units: hbar = k_B = 1 throughout.  With the default cutoff omega_d = 1 all
frequencies are measured in units of the cutoff and times in units of the
bath correlation time t_C = 1/omega_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .sequences import _read_rows

__all__ = [
    "OhmicBath",
    "ClassicalBath",
    "TabulatedSpectralDensity",
    "spectral_density",
    "thermal_weight",
    "integrand_weight",
]

@dataclass(frozen=True)
class OhmicBath:
    """Ohmic quantum bath J(w) = 2*alpha*w up to a hard cutoff omega_d.

    temperature = 0 means the zero-temperature bath (coth factor = 1).
    """

    alpha: float
    omega_d: float = 1.0
    temperature: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "omega_d", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.omega_d <= 0:
            raise ValueError(f"omega_d must be > 0, got {self.omega_d}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")

    @property
    def cutoff(self) -> float:
        return self.omega_d


@dataclass(frozen=True)
class TabulatedSpectralDensity:
    """Spectral density given by (omega, J) samples, linearly interpolated.

    omega must be strictly ascending and J nonnegative.  Beyond the last
    sample J is identically zero; below the first sample the first value
    is held constant.
    """

    omegas: np.ndarray
    values: np.ndarray
    temperature: float = 0.0

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        jv = np.asarray(self.values, dtype=float)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("need at least two (omega, J) samples")
        if jv.shape != om.shape:
            raise ValueError("omega and J arrays must have the same length")
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(jv))):
            raise ValueError("omega and J samples must be finite")
        if not np.all(np.diff(om) > 0):
            raise ValueError("omega samples must be strictly ascending")
        if np.any(om < 0):
            raise ValueError("omega samples must be nonnegative")
        if np.any(jv < 0):
            raise ValueError("J samples must be nonnegative")
        if not (0 <= self.temperature < math.inf):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        om.setflags(write=False)
        jv.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", jv)

    @classmethod
    def from_csv(cls, path, temperature: float = 0.0) -> "TabulatedSpectralDensity":
        """Load from a two-column CSV with header ``omega,J``."""
        return cls(*np.reshape(_read_rows(path, ("omega", "J")), (-1, 2)).T.copy(), temperature)

    @property
    def cutoff(self) -> float:
        return float(self.omegas[-1])


@dataclass(frozen=True)
class ClassicalBath:
    """Classical Gaussian noise described by a one-sided power spectrum.

    power_spectrum maps omega >= 0 to p(omega) >= 0 and must accept numpy
    arrays.  The spectrum is treated as zero above omega_max.  The
    autocovariance convention is g(tau) = (1/pi) * int_0^inf p(w) cos(w tau) dw.
    """

    power_spectrum: Callable[[np.ndarray], np.ndarray]
    omega_max: float

    def __post_init__(self):
        if not (0 < self.omega_max < math.inf):
            raise ValueError(f"omega_max must be finite and > 0, got {self.omega_max}")
        # spot-check nonnegativity on a coarse grid; full validation is the
        # caller's responsibility for arbitrary callables
        probe = np.linspace(0.0, self.omega_max, 17)[1:]
        vals = np.asarray(self.power_spectrum(probe), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("power_spectrum is not finite on (0, omega_max]")
        if np.any(vals < 0):
            raise ValueError("power_spectrum is negative on [0, omega_max]")

    @property
    def cutoff(self) -> float:
        return self.omega_max


QuantumBath = Union[OhmicBath, TabulatedSpectralDensity]
Bath = Union[OhmicBath, TabulatedSpectralDensity, ClassicalBath]


def _omega_array(omega) -> np.ndarray:
    om = np.asarray(omega, dtype=float)
    if not np.all((om >= 0) & (om < np.inf)):
        raise ValueError("omega must be finite and nonnegative")
    return om


def spectral_density(bath: QuantumBath, omega):
    """J(omega) for a quantum bath: a float for a scalar, else an ndarray."""
    om = _omega_array(omega)
    if isinstance(bath, OhmicBath):
        out = 2.0 * bath.alpha * om * (om <= bath.omega_d)
    elif isinstance(bath, TabulatedSpectralDensity):
        out = np.interp(om, bath.omegas, bath.values, right=0.0)
    else:
        raise TypeError(f"not a quantum bath: {type(bath).__name__}")
    return out if np.ndim(omega) else float(out)


def thermal_weight(temperature: float, omega):
    """coth(omega / (2 T)), the thermal occupation factor.

    Returns exactly 1 at T = 0.  1/tanh keeps full relative accuracy at
    small omega/(2T), where coth ~ 2T/omega.  Raises for omega = 0 at T > 0
    where the weight diverges.
    """
    om = _omega_array(omega)
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature == 0.0:
        out = np.ones_like(om)
        return out if np.ndim(omega) else 1.0
    if np.any(om == 0):
        raise ValueError("thermal weight diverges at omega = 0 for T > 0")
    out = 1.0 / np.tanh(om / (2.0 * temperature))
    return out if np.ndim(omega) else float(out)


def _checked_spectrum(bath: ClassicalBath, om: np.ndarray) -> np.ndarray:
    """p(om) as floats, zero above omega_max; a ValueError names the first
    om <= omega_max where p is negative or not finite, which
    ClassicalBath's probe can miss."""
    p = np.where(om <= bath.omega_max, np.asarray(bath.power_spectrum(om), dtype=float), 0.0)
    bad = ~((p >= 0.0) & (p < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"power_spectrum must be finite and >= 0 on [0, omega_max], "
                         f"got p({float(om.flat[k])!r}) = {float(p.flat[k])!r}")
    return p


def integrand_weight(bath: Bath, omega):
    """The weight the decoherence integrals run against.

    Quantum baths give J(omega) * coth(omega/(2T)); classical baths give
    p(omega)/pi, and a ValueError where p is negative or not finite.  A
    scalar gives a float, an array or list an ndarray.
    """
    if isinstance(bath, ClassicalBath):
        out = _checked_spectrum(bath, _omega_array(omega)) / np.pi
        return out if np.ndim(omega) else float(out)
    j = spectral_density(bath, omega)
    if bath.temperature == 0.0:
        return j
    return j * thermal_weight(bath.temperature, omega)
