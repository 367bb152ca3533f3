"""Dephasing phase, decay exponent and signal under a pulse sequence.

One code path serves quantum and classical baths and every sequence
including n = 0 (free evolution):

    phi_n(t) = int_0^wc  J(w) / (2 w^2) * x_n(w t) dw        (quantum only)
    chi_n(t) = int_0^wc  W(w) / (4 w^2) * |y_n(w t)|^2 dw
    s_n(t)   = cos(2 phi_n) * exp(-2 chi_n)

where W is the bath integrand weight (J coth for quantum, p/pi for
classical) and wc the bath cutoff.  The integrands extend continuously to
w = 0, and the Gauss-Kronrod nodes never reach it.  Which source serves
|y_n|^2 at small w t is decided in filters.y_abs_sq_array.

chi and phase are one integral each.  signal on a quantum bath integrates
chi and phi as the two rows of one adaptive quadrature on shared nodes, so
J and the filter term table are evaluated once per node; each row still
meets its own tolerance.

Each integral has one filters.PanelGrid, and the quadrature hands it every
round's panels through its panels hook; the integrand stays a function of
the node array alone and passes the grid on to the filter functions, which
then sum by panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (Bath, ClassicalBath, TabulatedSpectralDensity, integrand_weight,
                   spectral_density, thermal_weight)
from .filters import (_EPS, PanelGrid, _y_coefficients, x_factor_array,
                      y_abs_sq_and_x_array, y_abs_sq_array)
from .quadrature import QuadratureError, QuadratureSpec, integrate_adaptive
from .sequences import PulseSequence

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "CoherencePoint",
    "chi",
    "phase",
    "signal",
    "coherence_curve",
]

# exp(-2*350) is at the edge of the double range; larger chi is reported
# as a saturated zero signal
CHI_MAX = 350.0


@dataclass(frozen=True)
class CoherencePoint:
    """Signal sample at one time: t, phase, decay exponent, s, quad error."""

    t: float
    phi: float
    chi: float
    signal: float
    quad_error: float = 0.0
    saturated: bool = False


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def _checked_grid(t_grid) -> np.ndarray:
    """t_grid as a float array: 1-d, nonempty, finite, >= 0, strictly ascending."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_grid must be a nonempty 1-d sequence of times")
    if not np.all(np.isfinite(ts)) or ts[0] < 0:
        raise ValueError("t_grid times must be finite and nonnegative")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    return ts


def _chi_diverges(seq: PulseSequence, bath: Bath) -> bool:
    """Whether chi's integrand goes like 1/w at w = 0, so chi is infinite at
    every t > 0: on a table that holds J(0) = values[0] > 0 down to w = 0,
    at T > 0 (coth ~ 2T/w), unless S1 = sum_j c_j d_j vanishes up to the
    rounding of the instants (|y_n(wt)|^2 ~ (S1 wt)^2 there)."""
    if not isinstance(bath, TabulatedSpectralDensity) or bath.values[0] == 0.0:
        return False
    c, d = _y_coefficients(seq)
    # each c_j d_j is exact, the sum rounded once
    return bath.temperature > 0 and abs(math.fsum(c * d)) > _EPS * math.fsum(np.abs(c * d))


def _check_zero_frequency(seq: PulseSequence, bath: Bath, phi: bool) -> None:
    """ValueError, before any quadrature, where an integrand diverges at w = 0.

    A table holds J(0) = values[0] > 0 down to w = 0, where |y_n(wt)|^2 ~
    (S1 wt)^2 and x_n(wt) ~ x'(0) wt, with S1 = sum_j c_j d_j the first
    moment of y's terms and x'(0) = ((-1)^n - S1) / 2.  chi's integrand then
    diverges where _chi_diverges says.  phi's (phi true) goes like 1/w at
    any T: x'(0) is (-1)^n times the share of [0, 1] on which the toggled
    sign is (-1)^n, the last interval (d_n, 1] among it, so it never
    vanishes.
    """
    if not isinstance(bath, TabulatedSpectralDensity) or bath.values[0] == 0.0:
        return
    c, d = _y_coefficients(seq)
    s1 = math.fsum(c * d)
    at = f"J(0) = {bath.values[0]:g} > 0 at T = {bath.temperature:g}"
    if _chi_diverges(seq, bath):
        raise ValueError(f"{at}: the chi integrand diverges like 1/omega at omega = 0 "
                         f"unless S1 = sum_j c_j d_j vanishes, got S1 = {s1:.6g}")
    if phi:
        raise ValueError(f"{at}: the phase integrand diverges like 1/omega at omega = 0 "
                         f"unless x'(0) = ((-1)^n - S1)/2 vanishes, "
                         f"got x'(0) = {((-1) ** seq.n - s1) / 2:.6g}")


def _initial_panels(t: float, omega_cut: float) -> int:
    # the filter factors oscillate on scale pi/t in omega (term frequencies
    # in |y|^2 are bounded by t); two panels per period, floor of 16
    return max(16, math.ceil(omega_cut * t / math.pi))


def _frequency_integral(kind: str, f, t: float, wc: float, quad: QuadratureSpec, panels):
    """(value, error bound, evaluations) of f over [0, wc], naming t on
    failure; panels is integrate_adaptive's hook."""
    try:
        return integrate_adaptive(f, 0.0, wc, quad, _initial_panels(t, wc), panels=panels)
    except QuadratureError as exc:
        raise QuadratureError(
            f"{kind}(t={t:g}): {exc}", estimate=exc.estimate, error_bound=exc.error_bound
        ) from exc


def _chi_raw(seq: PulseSequence, bath: Bath, t: float, quad: QuadratureSpec):
    """Unclamped decay exponent with its quadrature error bound."""
    _check_time(t)
    if t == 0.0:
        return 0.0, 0.0
    _check_zero_frequency(seq, bath, phi=False)

    grid = PanelGrid(seq, t)

    def f(w):
        return integrand_weight(bath, w) * y_abs_sq_array(seq, w * t, grid) / (4.0 * w * w)

    val, err, _ = _frequency_integral("chi", f, t, bath.cutoff, quad, panels=grid.set_round)
    return max(val, 0.0), err


def chi(seq: PulseSequence, bath: Bath, t: float,
        quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Decay exponent chi_n(t) >= 0, clamped at 350."""
    val, _ = _chi_raw(seq, bath, t, quad)
    return min(val, CHI_MAX)


def phase(seq: PulseSequence, bath: Bath, t: float,
          quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Deterministic phase phi_n(t); exactly zero for classical baths."""
    _check_time(t)
    if isinstance(bath, ClassicalBath) or t == 0.0:
        return 0.0
    _check_zero_frequency(seq, bath, phi=True)

    grid = PanelGrid(seq, t)

    def f(w):
        return spectral_density(bath, w) * x_factor_array(seq, w * t, grid) / (2.0 * w * w)

    val, _, _ = _frequency_integral("phase", f, t, bath.cutoff, quad, panels=grid.set_round)
    return val


def signal(seq: PulseSequence, bath: Bath, t: float,
           quad: QuadratureSpec = QuadratureSpec()) -> CoherencePoint:
    """Full coherence point s_n(t) = cos(2 phi) exp(-2 chi).

    On a quantum bath chi and phi are the two rows of one integral: each
    node evaluates J and the filter term table once.
    """
    _check_time(t)
    if isinstance(bath, ClassicalBath) or t == 0.0:
        phi = 0.0
        chi_val, err = _chi_raw(seq, bath, t, quad)
    else:
        _check_zero_frequency(seq, bath, phi=True)
        grid = PanelGrid(seq, t)

        def f(w):
            j = spectral_density(bath, w)
            y_sq, x = y_abs_sq_and_x_array(seq, w * t, grid)
            return np.stack((j * thermal_weight(bath.temperature, w) * y_sq / (4.0 * w * w),
                             j * x / (2.0 * w * w)))

        (chi_val, phi), (err, _), _ = _frequency_integral(
            "signal", f, t, bath.cutoff, quad, panels=grid.set_round)
        chi_val, phi, err = max(float(chi_val), 0.0), float(phi), float(err)
    if chi_val >= CHI_MAX:
        return CoherencePoint(t=float(t), phi=phi, chi=CHI_MAX, signal=0.0,
                              quad_error=err, saturated=True)
    s = math.cos(2.0 * phi) * math.exp(-2.0 * chi_val)
    return CoherencePoint(t=float(t), phi=phi, chi=chi_val, signal=s, quad_error=err)


def coherence_curve(seq: PulseSequence, bath: Bath, t_grid,
                    quad: QuadratureSpec = QuadratureSpec()) -> tuple[CoherencePoint, ...]:
    """The signal at each time of an ascending, finite, nonnegative grid."""
    ts = _checked_grid(t_grid)
    return tuple(signal(seq, bath, float(t), quad) for t in ts)
