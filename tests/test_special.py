import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import jv, jvp

from ddlab.special import _backward_recurrence, bessel_j


def test_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


@pytest.mark.parametrize("order", [0, 1, 2, 5, 11, 21, 25, 51, 101])
def test_matches_scipy(order):
    x = np.linspace(1e-6, 2.0 * order + 40.0, 400)
    mine = bessel_j(order, x)
    ref = jv(order, x)
    # relative where the value is sizable, absolute near the zeros
    tol = 1e-11 * np.abs(ref) + 1e-13 * np.max(np.abs(ref))
    assert np.all(np.abs(mine - ref) <= tol)


def test_large_order_small_argument():
    # deep suppression regime used by the optimized-sequence delegation
    assert bessel_j(101, 10.0) == pytest.approx(float(jv(101, 10.0)), rel=1e-12, abs=0.0)
    assert bessel_j(101, 50.0) == pytest.approx(float(jv(101, 50.0)), rel=1e-12, abs=0.0)


def test_underflow_returns_zero():
    assert bessel_j(200, 1e-3) == 0.0


def test_array_shape_preserved():
    x = np.array([0.0, 0.5, 2.0])
    out = bessel_j(3, x)
    assert out.shape == x.shape
    assert out[0] == 0.0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(2, -0.5)


@pytest.mark.parametrize("x", [np.inf, np.nan, [1.0, np.nan]])
def test_non_finite_argument_rejected(x):
    with pytest.raises(ValueError, match="x must be finite"):
        bessel_j(1, x)


def _log_bound(order, x):
    # log of the bound |J_n(x)| <= (x/2)^n / n!  (DLMF 10.14.4)
    return order * np.log(x / 2.0) - math.lgamma(order + 1)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 21, 101, 1001])
def test_matches_mpmath(order):
    # relative 1e-13, plus the error of rounding x itself, eps * |x J'(x)|,
    # which no double-precision method beats near the zeros of J
    points = 40 if order == 1001 else 120
    x = np.concatenate([np.geomspace(1e-8, 2.0 * order + 40.0, points),
                        np.linspace(1e-3, 2.0 * order + 40.0, points)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(order, mpmath.mpf(v))) for v in x])
    live = np.abs(ref) >= 1e-300
    mine = bessel_j(order, x)
    tol = 1e-13 * np.abs(ref) + np.finfo(float).eps * np.abs(x * jvp(order, x))
    assert np.count_nonzero(live) >= 30
    assert np.all(np.abs(mine - ref)[live] <= tol[live])


@pytest.mark.parametrize("order", [1, 5, 21, 101, 1001])
def test_zero_below_bound_floor(order):
    x = np.geomspace(1e-320, 2.0 * order + 40.0, 400)
    with np.errstate(divide="ignore"):
        floored = _log_bound(order, x) < math.log(1e-300)
    assert np.any(floored) and not np.all(floored)
    assert np.all(bessel_j(order, x)[floored] == 0.0)


def test_high_order_just_below_floor_is_zero():
    # J_1001(370.74) = 3.48e-316 and its bound is 5.6e-301
    assert bessel_j(1001, 370.74) == 0.0


def test_smallest_denormal_argument():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bessel_j(0, 5e-324) == 1.0
        assert bessel_j(1, 5e-324) == 0.0


def _plain_backward_recurrence(order, xs):
    # Miller's recurrence step by step with fresh arrays, as a reference for
    # the bits of the in-place loop in ddlab.special
    big = 1e150
    top = float(np.max(xs))
    m = int(max(order, top) + 2.0 * math.sqrt(max(order, top)) + 40)
    every = max(1, int(math.log(big) / math.log(2.0 * m / float(np.min(xs)) + 1.0)))
    jp, jc = np.zeros_like(xs), np.ones_like(xs)
    evens, result = np.zeros_like(xs), np.zeros_like(xs)
    inv_x = 1.0 / xs
    for k in range(m, 0, -1):
        jp, jc = jc, (2.0 * k) * inv_x * jc - jp
        if k - 1 == order:
            result = jc.copy()
        if k % 2 == 1:
            evens = evens + jc
        if k % every == 0:
            scale = np.where(np.maximum(np.abs(jc), np.abs(jp)) > big, 1.0 / big, 1.0)
            jp, jc, evens, result = jp * scale, jc * scale, evens * scale, result * scale
    return result / (2.0 * evens - jc)


@pytest.mark.parametrize("order", [2, 7, 101, 1001])
def test_recurrence_bits_match_a_plain_loop(order):
    # the in-place recurrence takes the same operations in the same order
    x = np.concatenate([np.geomspace(3e-4, 2.0 * order + 50.0, 797), [1e-3, 0.5, 2.0 * order]])
    assert np.array_equal(_backward_recurrence(order, x), _plain_backward_recurrence(order, x))
