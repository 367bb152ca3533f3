"""Sequence filter factors entering the dephasing integrals.

For a sequence with instants d_1..d_n the phase filter is

    x_n(z) = (-1)^n sin z + sum_m (-1)^(m+1) sin(z d_m)

and the coherence filter is

    y_n(z) = 1 + (-1)^(n+1) e^(iz) + 2 sum_m (-1)^m e^(iz d_m),

with y_n(0) = 0 always.  |y_n|^2 multiplies the bath weight inside the
decay exponent; x_n enters only the deterministic phase.

When the instants are mirror symmetric, d_j + d_(n+1-j) = 1 (every
generated sequence, and any custom one that is), the terms pair up about
the midpoint.  With y = sum_j c_j e^(iz d_j) over the instants
(0, d_1..d_n, 1), e_m = (-1)^(m+1) and u_j = d_j - 1/2, the filters
become real half-sums over the first half of the terms:

    n even:  y = i e^(iz/2) sum_j 2 c_j sin(z u_j),
             x = sin z + 2 cos(z/2) sum_m e_m sin(z u_m)
    n odd:   y = e^(iz/2) (c_mid + sum_j 2 c_j cos(z u_j)),
             x = -sin z + sin(z/2) (e_mid + 2 sum_m e_m cos(z u_m))

That needs about a quarter of the transcendental evaluations of the
complex sum for y and half for x.  Other sequences sum the full term set.
Either way the nodes are taken in blocks, and each row sum of bounded
terms with small power-of-two weights is split error-free (Rump, Ogita &
Oishi, SIAM J. Sci. Comput. 31 (2008)): the high parts sum exactly in any
order, so only the tiny low parts round.

The n+2 unit-magnitude terms of y_n cancel to O(z^(n+1)) at small z.
Where even exact summation of the rounded terms cannot resolve |y|^2
(deep suppression), y_abs_sq_array hands the generated schemes to
noise-free analytic forms through one delegation step: optimized (udd)
sequences to 16 (n+1)^2 J_{n+1}(z/2)^2, exact up to exponentially small
corrections for z/(2n+2) < 1, and equidistant sequences to their exact
parity closed form, which equidistant_closed_form also exposes.  The
scheme label picks the form, and PulseSequence rejects a generated label
whose instants are not that generator's.  Custom sequences always use the
direct sum.
"""

from __future__ import annotations

import math

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
# z factor from rounding of the phase products; TestNoiseBound in
# tests/test_filters.py checks the bound against mpmath), so |y|^2 below the
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


# a block of the phase matrix holds at most this many elements, so memory
# stays flat however many nodes one quadrature round brings
_BLOCK_ELEMENTS = 2**15


def _y_coefficients(seq: PulseSequence):
    """Term weights c_j and instants d_j with y(z) = sum_j c_j e^(iz d_j)."""
    n = seq.n
    d = np.concatenate(([0.0], seq.as_array(), [1.0]))
    c = np.where(np.arange(n + 2) % 2 == 0, 2.0, -2.0)
    c[0] = 1.0
    c[n + 1] = (-1.0) ** (n + 1)
    return c, d


def _x_coefficients(seq: PulseSequence):
    """Term weights e_m and instants g_m with x(z) = sum_m e_m sin(z g_m)."""
    n = seq.n
    g = np.concatenate((seq.as_array(), [1.0]))
    e = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    e[n] = (-1.0) ** n
    return e, g


def _mirror_symmetric(t: np.ndarray) -> bool:
    """True when the instants satisfy t_j + t_(K-1-j) = 1 in floating point."""
    return bool(np.all(t + t[::-1] == 1.0))


def _half_sum(z: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Real S with sum_j w_j e^(iz t_j) = e^(iz/2) S for an odd number K of
    terms and i e^(iz/2) S for an even one.

    Needs mirror-symmetric instants and weights w_(K-1-j) = (-1)^(K+1) w_j,
    as the y and x weights have.  The pair phases u_j = 1/2 - t_(K-1-j)
    are exact, since t_(K-1-j) >= 1/2.
    """
    half = len(t) // 2
    u = 0.5 - t[::-1][:half]
    if len(t) % 2 == 0:
        return _split_sums(z, u, 2.0 * w[:half], np.sin)[0]
    return _split_sums(z, np.append(u, 0.0), np.append(2.0 * w[:half], w[half]), np.cos)[0]


def _split_sums(z: np.ndarray, u: np.ndarray, w: np.ndarray, *funcs) -> np.ndarray:
    """sum_j w_j f(z u_j) at every node of z, one row per f in funcs.

    Every term f(z u_j) lies in [-1, 1] and every weight is a small power
    of two.  Adding and removing sigma >= 2 sum|w| rounds each term to a
    grid on which the weighted sums of these high parts are exact in any
    order, so BLAS may sum them.  The exact remainders are summed in
    numpy's fixed order and round only at their own tiny scale.
    """
    flat = z.reshape(-1)
    sigma = 2.0 ** (math.ceil(math.log2(max(np.sum(np.abs(w)), 1.0))) + 1)
    rows = max(1, _BLOCK_ELEMENTS // max(len(u), 1))
    out = np.empty((len(funcs), flat.size))
    for start in range(0, flat.size, rows):
        phase = np.multiply.outer(flat[start:start + rows], u)
        for f, sums in zip(funcs, out):
            terms = f(phase)
            high = (terms + sigma) - sigma
            terms -= high
            terms *= w
            sums[start:start + rows] = high @ w + terms.sum(axis=1)
    return out.reshape((len(funcs),) + z.shape)


def x_factor_array(seq: PulseSequence, z: np.ndarray) -> np.ndarray:
    """x_n(z) over an array of arguments.

    Mirror-symmetric sequences take the real half-sum, others the full term
    set; both are summed with the error-free split.
    """
    z = np.asarray(z, dtype=float)
    e, g = _x_coefficients(seq)
    d = g[:-1]
    if not _mirror_symmetric(d):
        return _split_sums(z, g, e, np.sin)[0]
    pair = np.sin(z / 2) if seq.n % 2 else np.cos(z / 2)
    return e[-1] * np.sin(z) + pair * _half_sum(z, d, e[:-1])


def y_factor_array(seq: PulseSequence, z: np.ndarray) -> np.ndarray:
    """y_n(z) over an array of arguments.

    Mirror-symmetric sequences take the real half-sum, others the full term
    set; both are summed with the error-free split.
    """
    z = np.asarray(z, dtype=float)
    c, d = _y_coefficients(seq)
    if not _mirror_symmetric(d):
        re, im = _split_sums(z, d, c, np.cos, np.sin)
        return re + 1j * im
    rot = np.exp(0.5j * z) if seq.n % 2 else 1j * np.exp(0.5j * z)
    return rot * _half_sum(z, d, c)


def y_abs_sq_array(seq: PulseSequence, z: np.ndarray) -> np.ndarray:
    """|y_n(z)|^2 over an array of arguments.

    Direct summation, except where the value sits below the double-precision
    cancellation floor: there a noise-free analytic form takes over (the
    Bessel approximation for udd, the parity closed form for equidistant).
    The direct sum alone is np.abs(y_factor_array(seq, z)) ** 2.
    """
    z = np.asarray(z, dtype=float)
    direct = np.abs(y_factor_array(seq, z)) ** 2
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
        direct.flat[np.flatnonzero(candidates)[use]] = analytic[use]
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
    e, g = _x_coefficients(seq)
    x1 = float(np.dot(e, g))
    x3 = float(np.dot(e, g**3))
    return x1, x3


def x_factor(seq: PulseSequence, z: float) -> float:
    """Phase filter x_n(z); n = 0 gives sin(z)."""
    return float(x_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_factor(seq: PulseSequence, z: float) -> complex:
    """Coherence filter y_n(z), by the direct sum of y_factor_array."""
    return complex(y_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_abs_sq(seq: PulseSequence, z: float) -> float:
    """|y_n(z)|^2; see y_abs_sq_array for the source selection."""
    return float(y_abs_sq_array(seq, np.atleast_1d(float(z)))[0])


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
    j = bessel_j(n + 1, np.abs(z) / 2.0)
    return 16.0 * (n + 1) ** 2 * j * j
