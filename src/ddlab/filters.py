"""Sequence filter factors entering the dephasing integrals.

For a sequence with instants d_1..d_n the phase filter is

    x_n(z) = (-1)^n sin z + sum_m (-1)^(m+1) sin(z d_m)

and the coherence filter is

    y_n(z) = 1 + (-1)^(n+1) e^(iz) + 2 sum_m (-1)^m e^(iz d_m),

with y_n(0) = 0 always.  |y_n|^2 multiplies the bath weight inside the
decay exponent; x_n enters only the deterministic phase.

The 2n+3 unit-magnitude terms of y_n cancel to O(z^(n+1)) at small z, so
sums are accumulated with compensated (Kahan) summation.  Where even that
cannot resolve |y|^2 (deep suppression), y_abs_sq_array hands the
generated schemes to noise-free analytic forms through one delegation
step: optimized (udd) sequences to 16 (n+1)^2 J_{n+1}(z/2)^2, exact up to
exponentially small corrections for z/(2n+2) < 1, and equidistant
sequences to their exact parity closed form, which equidistant_closed_form
also exposes.  Custom sequences always use the direct sum.
"""

from __future__ import annotations

import numpy as np

from .sequences import PulseSequence
from .special import bessel_j

__all__ = [
    "x_factor",
    "y_factor",
    "y_abs_sq",
    "x_factor_array",
    "y_factor_array",
    "y_abs_sq_array",
    "y_taylor_moments",
    "x_taylor_moments",
    "equidistant_closed_form",
    "bessel_approx",
]

# Direct summation leaves absolute noise ~ 4 eps (1+z) sqrt(n+2) in y (the
# z factor from rounding of the phase products z*d_m), so |y|^2 below the
# threshold where that noise exceeds 1e-11 relative is taken from the
# analytic small-value forms instead: the Bessel approximation for udd,
# the exact parity closed form for equidistant.  Thresholding on the
# noise-free analytic value keeps the switchover deterministic.  The udd
# window stops short of z = 2n+2 where the J_{3(n+1)} corrections wake up.
_BESSEL_WINDOW = 0.95  # in units of z/(2n+2)
_POLE_TOL = 1e-12


def _delegation_threshold(n: int, z: np.ndarray) -> np.ndarray:
    # (2 * 4 eps (1+z) sqrt(n+2) / 1e-11)^2, floored at 1e-8
    return np.maximum(1e-8, 3.2e-8 * (1.0 + np.abs(z)) ** 2 * (n + 2))


def _kahan_add(total, comp, term):
    # error-free-transform step; works elementwise for real or complex
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _y_coefficients(seq: PulseSequence):
    """Term weights c_j and instants d_j with y(z) = sum_j c_j e^(iz d_j)."""
    n = seq.n
    d = np.empty(n + 2)
    c = np.empty(n + 2)
    d[0], c[0] = 0.0, 1.0
    for m, dm in enumerate(seq.deltas, start=1):
        d[m] = dm
        c[m] = 2.0 * (-1.0) ** m
    d[n + 1] = 1.0
    c[n + 1] = (-1.0) ** (n + 1)
    return c, d


def x_factor_array(seq: PulseSequence, z: np.ndarray) -> np.ndarray:
    """x_n(z) over an array of arguments (compensated accumulation)."""
    z = np.asarray(z, dtype=float)
    n = seq.n
    total = (-1.0) ** n * np.sin(z)
    comp = np.zeros_like(total)
    for m, dm in enumerate(seq.deltas, start=1):
        term = (-1.0) ** (m + 1) * np.sin(z * dm)
        total, comp = _kahan_add(total, comp, term)
    return total


def y_factor_array(seq: PulseSequence, z: np.ndarray) -> np.ndarray:
    """y_n(z) over an array of arguments (compensated accumulation)."""
    z = np.asarray(z, dtype=float)
    c, d = _y_coefficients(seq)
    total = np.full(z.shape, c[0], dtype=complex)  # d[0] = 0 term
    comp = np.zeros_like(total)
    for j in range(1, len(c)):
        term = c[j] * np.exp(1j * z * d[j])
        total, comp = _kahan_add(total, comp, term)
    return total


def y_abs_sq_array(seq: PulseSequence, z: np.ndarray, method: str = "auto") -> np.ndarray:
    """|y_n(z)|^2 over an array of arguments.

    method: "auto" uses direct summation but delegates to a noise-free
    analytic form (the Bessel approximation for udd, the parity closed
    form for equidistant) where the value sits below the double-precision
    cancellation floor; "direct" returns the compensated direct sum alone.
    """
    z = np.asarray(z, dtype=float)
    direct = np.abs(y_factor_array(seq, z)) ** 2
    if method == "direct":
        return direct
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    n = seq.n
    threshold = _delegation_threshold(n, z)
    if seq.scheme == "udd":
        window = np.abs(z) < _BESSEL_WINDOW * (2 * n + 2)
        return _delegate(direct, window & (direct < 2.0 * threshold), threshold,
                         lambda c: bessel_approx(n, np.abs(z[c])))
    if seq.scheme == "equidistant" and n >= 1:
        # the parity closed form is an exact identity, so it replaces the
        # noise-limited direct sum at small values; stay away from the
        # tangent poles where the closed form itself degenerates
        cos_arg = np.cos(z / (2 * n + 2))
        return _delegate(direct, (np.abs(cos_arg) > 0.5) & (direct < 2.0 * threshold),
                         threshold, lambda c: _parity_closed_form(n, z[c], cos_arg[c]))
    return direct


def _delegate(direct, candidates, threshold, analytic_at):
    # swap the analytic values at the candidate nodes into the freshly
    # computed direct sums wherever they fall below the threshold
    if np.any(candidates):
        analytic = analytic_at(candidates)
        use = analytic < threshold[candidates]
        direct[np.flatnonzero(candidates)[use]] = analytic[use]
    return direct


def y_taylor_moments(seq: PulseSequence):
    """Moments S_k = sum_j c_j d_j^k of the y-filter terms, k = 1, 2, 3.

    Small-z expansion: |y(z)|^2 = S1^2 z^2 + (S2^2/4 - S1 S3/3) z^4 + O(z^6).
    S1 = 0 whenever the sequence cancels the filter's first derivative
    (udd of any order, the lone mid-point echo).
    """
    c, d = _y_coefficients(seq)
    s1 = float(np.dot(c, d))
    s2 = float(np.dot(c, d * d))
    s3 = float(np.dot(c, d * d * d))
    return s1, s2, s3


def x_taylor_moments(seq: PulseSequence):
    """Moments X1, X3 with x(z) = X1 z - X3 z^3/6 + O(z^5)."""
    n = seq.n
    g = np.concatenate([np.array(seq.deltas), [1.0]])
    e = np.empty(n + 1)
    e[:n] = [(-1.0) ** (m + 1) for m in range(1, n + 1)]
    e[n] = (-1.0) ** n
    x1 = float(np.dot(e, g))
    x3 = float(np.dot(e, g**3))
    return x1, x3


def x_factor(seq: PulseSequence, z: float) -> float:
    """Phase filter x_n(z); n = 0 gives sin(z)."""
    return float(x_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_factor(seq: PulseSequence, z: float) -> complex:
    """Coherence filter y_n(z) by direct compensated summation."""
    return complex(y_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_abs_sq(seq: PulseSequence, z: float, method: str = "auto") -> float:
    """|y_n(z)|^2; see y_abs_sq_array for the source selection."""
    return float(y_abs_sq_array(seq, np.atleast_1d(float(z)), method)[0])


def equidistant_closed_form(n: int, z):
    """|y_n(z)|^2 for n equidistant pulses, by the parity closed form.

    4 tan^2(z/(2n+2)) cos^2(z/2) for n even, 4 tan^2(z/(2n+2)) sin^2(z/2)
    for n odd.  Raises near the tangent poles (|cos(z/(2n+2))| < 1e-12),
    where the direct summation remains finite but the closed form blows up.
    """
    if n < 1:
        raise ValueError(f"closed form needs n >= 1, got {n}")
    zs = np.asarray(z, dtype=float)
    cos_arg = np.cos(zs / (2 * n + 2))
    if np.any(np.abs(cos_arg) < _POLE_TOL):
        raise ValueError(f"z within {_POLE_TOL} of a tangent pole of the n={n} closed form")
    out = _parity_closed_form(n, zs, cos_arg)
    return out if isinstance(z, np.ndarray) else float(out)


def _parity_closed_form(n: int, z: np.ndarray, cos_arg: np.ndarray) -> np.ndarray:
    # 4 tan^2(z/(2n+2)) {cos, sin}^2(z/2), given cos_arg = cos(z/(2n+2))
    half = np.cos(z / 2) if n % 2 == 0 else np.sin(z / 2)
    return 4.0 * (np.sin(z / (2 * n + 2)) / cos_arg) ** 2 * half**2


def bessel_approx(n: int, z):
    """Small-z form 16 (n+1)^2 J_{n+1}(z/2)^2 for the optimized sequence.

    Intended for z/(2n+2) < 1; outside that window the caller owns the
    approximation error.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(z, np.ndarray):
        j = bessel_j(n + 1, np.abs(z) / 2.0)
    else:
        j = bessel_j(n + 1, abs(float(z)) / 2.0)
    return 16.0 * (n + 1) ** 2 * j * j
