"""Bessel function of the first kind, integer order.

The ascending series with term-ratio stopping is the primary method; it is
accurate while the argument stays below roughly half the order (or for
small orders at any argument used here).  Above that the alternating terms
grow before they fall and cancellation eats the significand, so large
orders with comparable arguments switch to Miller's backward recurrence,
normalized with J_0 + 2 sum J_2k = 1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_j"]

_TERM_RTOL = 1e-16
_MAX_TERMS = 4000
# backward recurrence takes over once the argument passes this fraction of
# the order, before series cancellation costs more than a few digits
_SERIES_FRACTION = 0.4


def _series(order: int, xs: np.ndarray) -> np.ndarray:
    """Ascending series sum_k (-1)^k (x/2)^(order+2k) / (k! (order+k)!)."""
    half = 0.5 * xs
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        lead = np.exp(order * np.log(half) - math.lgamma(order + 1))
    term = lead.copy()
    total = lead.copy()
    ratio = -(half * half)
    active = np.abs(term) > 0.0
    k = 1
    while np.any(active) and k <= _MAX_TERMS:
        term = term * ratio / (k * (order + k))
        total = total + term
        active = np.abs(term) > _TERM_RTOL * np.abs(total)
        k += 1
    if k > _MAX_TERMS:
        raise RuntimeError(f"Bessel series did not converge for order={order}")
    return total


def _backward_recurrence(order: int, xs: np.ndarray) -> np.ndarray:
    """Miller's algorithm: recur J_{k-1} = (2k/x) J_k - J_{k+1} downward."""
    top = float(np.max(xs))
    m = int(max(order, top) + 2.0 * math.sqrt(max(order, top)) + 40)
    if m % 2 == 1:
        m += 1
    jp = np.zeros_like(xs)                  # J_{k+1}, seeded at zero
    jc = np.full_like(xs, 1e-300)           # J_k, arbitrary tiny seed
    norm = np.zeros_like(xs)                # accumulates J_0 + 2 sum J_{2k}
    result = np.zeros_like(xs)
    inv_x = 1.0 / xs
    for k in range(m, 0, -1):
        jm = (2.0 * k) * inv_x * jc - jp
        jp, jc = jc, jm
        if k - 1 == order:
            result = jc.copy()
        if (k - 1) % 2 == 0:
            norm += jc if k - 1 == 0 else 2.0 * jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            for arr in (jp, jc, norm, result):
                arr[big] *= 1e-250
    return result / norm


def bessel_j(order: int, x):
    """J_order(x) for integer order >= 0 and x >= 0.

    A scalar gives a float, an array or list an ndarray.  Relative accuracy
    is ~1e-13 over the domain this package touches (x up to a few hundred at
    low order, or any x up to ~2x the order at high order).
    """
    if order < 0 or order != int(order):
        raise ValueError(f"order must be a nonnegative integer, got {order}")
    order = int(order)
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0) & (xs < np.inf)):
        raise ValueError("x must be finite and nonnegative")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(xs)

    out = np.zeros_like(xs)
    zero = xs == 0.0
    if order == 0:
        out[zero] = 1.0
    pos = ~zero
    if np.any(pos):
        xp = xs[pos]
        vals = np.empty_like(xp)
        deep = xp > _SERIES_FRACTION * (order + 1)
        if np.any(~deep):
            vals[~deep] = _series(order, xp[~deep])
        if np.any(deep):
            vals[deep] = _backward_recurrence(order, xp[deep])
        out[pos] = vals
    return float(out[0]) if scalar else out
