import math

import numpy as np
import pytest

from ddlab.quadrature import QuadratureError, QuadratureSpec, integrate_adaptive


def test_polynomial_machine_accurate():
    val, err, _ = integrate_adaptive(lambda x: x * x, 0.0, 1.0, QuadratureSpec())
    assert val == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)
    assert err < 1e-14


def test_oscillatory_integrand():
    # int_0^1 sin(1000 x) dx = (1 - cos(1000)) / 1000
    spec = QuadratureSpec(rel_tol=1e-12)

    def f(x):
        return np.sin(1000.0 * x)

    val, err, nev = integrate_adaptive(f, 0.0, 1.0, spec,
                                       initial_panels=math.ceil(1000 / math.pi))
    exact = (1.0 - math.cos(1000.0)) / 1000.0
    assert val == pytest.approx(exact, rel=1e-11, abs=0.0)


def test_degenerate_interval():
    val, err, nev = integrate_adaptive(lambda x: np.ones_like(x), 2.0, 2.0,
                                       QuadratureSpec())
    assert (val, err, nev) == (0.0, 0.0, 0)


def test_panel_budget_exhaustion_carries_estimate():
    spec = QuadratureSpec(rel_tol=1e-10, max_panels=16)

    def needle(x):
        return np.sin(5000.0 * x)

    with pytest.raises(QuadratureError) as exc_info:
        integrate_adaptive(needle, 0.0, 1.0, spec, initial_panels=16)
    err = exc_info.value
    assert math.isfinite(err.estimate)
    assert err.error_bound > 0


def test_panel_cap_limits_the_last_split():
    # the third round would split 4 panels but only 3 fit under the cap
    spec = QuadratureSpec(rel_tol=1e-12, max_panels=20)
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(40.0 * x) * np.exp(x)

    with pytest.raises(QuadratureError, match="within 20 panels"):
        integrate_adaptive(f, 0.0, 3.0, spec, initial_panels=16)
    assert sizes == [15 * 16, 15 * 2, 15 * 6]


def test_tolerance_refinement():
    # piecewise structure forces splitting beyond the initial panels
    def f(x):
        return np.exp(-np.abs(x - 0.3123) * 200.0)

    loose, _, n_loose = integrate_adaptive(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-3))
    tight, _, n_tight = integrate_adaptive(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-12))
    assert n_tight >= n_loose
    assert tight == pytest.approx(0.005 * (2.0 - math.exp(-0.3123 * 200)
                                           - math.exp(-0.6877 * 200)), rel=1e-10, abs=0.0)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-10
        assert spec.max_panels == 2**20

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": 0.5}, {"max_panels": 8},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)
