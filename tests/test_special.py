import numpy as np
import pytest
from scipy.special import jv

from ddlab.special import bessel_j


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
