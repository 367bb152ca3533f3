"""Bessel function of the first kind, integer order.

Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, normalized
with J_0 + 2 sum J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967)), serves every
argument but three cases: x = 0 is exact; x < _TINY takes the two-term
series (x/2)^n/n! (1 - (x/2)^2/(n+1)), whose first dropped term is below
5e-17 relative; and where the bound |J_n(x)| <= (x/2)^n/n! (DLMF 10.14.4)
is below _FLOOR the value is 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_j"]

_TINY = 2e-4
_FLOOR = 1e-300
# rescale by 1/_BIG once a value passes _BIG
_BIG = 1e150


def _backward_recurrence(order: int, xs: np.ndarray) -> np.ndarray:
    """Miller's algorithm: recur J_{k-1} = (2k/x) J_k - J_{k+1} downward."""
    top = float(np.max(xs))
    m = int(max(order, top) + 2.0 * math.sqrt(max(order, top)) + 40)
    # max(|J_{k-1}|, |J_k|) <= (2m/x + 1) max(|J_k|, |J_{k+1}|): between two
    # checks `every` steps apart the pair grows at most _BIG-fold, so it
    # stays below _BIG before a check and below _BIG**2 = 1e300 until the next
    every = max(1, int(math.log(_BIG) / math.log(2.0 * m / float(np.min(xs)) + 1.0)))
    jp = np.zeros_like(xs)                  # J_{k+1}, seeded at zero
    jc = np.ones_like(xs)                   # J_k, seeded at one
    jm = np.empty_like(xs)                  # J_{k-1}: the buffers rotate
    evens = np.zeros_like(xs)               # sum_{k>=0} J_{2k}; the norm is 2 evens - J_0
    result = np.zeros_like(xs)
    inv_x = 1.0 / xs
    for k in range(m, 0, -1):
        # (2k inv_x) jc - jp, in that order, in place
        np.multiply(inv_x, 2.0 * k, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
        if k - 1 == order:
            result = jc.copy()
        if k % 2 == 1:
            evens += jc
        if k % every == 0:
            # the pair stays above 1 after scaling, so with |J| <= 1 the
            # scale never falls below the seed's 1 and a J_order >= _FLOOR
            # stays a normal float
            big = np.maximum(np.abs(jc), np.abs(jp)) > _BIG
            if np.any(big):
                for arr in (jp, jc, evens, result):
                    arr[big] *= 1.0 / _BIG
    return result / (2.0 * evens - jc)


def bessel_j(order: int, x):
    """J_order(x) for integer order >= 0 and x >= 0.

    A scalar gives a float, an array or list an ndarray.  Relative accuracy
    is ~1e-13 wherever |J| >= 1e-300, up to the error of rounding x near
    the zeros of J; the value is exactly 0 where (x/2)^order/order! < 1e-300.
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
    half = 0.5 * xs
    # the smallest subnormal stands in for 0, whose log is -inf
    log_bound = order * np.log(np.maximum(half, 5e-324)) - math.lgamma(order + 1)
    live = log_bound >= math.log(_FLOOR)
    tiny = live & (xs < _TINY)
    if np.any(tiny):
        h = half[tiny]
        out[tiny] = h**order / float(math.factorial(order)) * (1.0 - h * h / (order + 1))
    deep = live & ~tiny
    if np.any(deep):
        out[deep] = _backward_recurrence(order, xs[deep])
    return float(out[0]) if scalar else out
