import math

import numpy as np
import pytest

from ddlab.quadrature import (
    _SPLIT_MAX,
    NODES,
    QuadratureError,
    QuadratureSpec,
    integrate_adaptive,
)


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


def split_sizes(f, spec):
    """The node counts f is handed on [0, 3] from 16 initial panels, and
    the QuadratureError that ends the run, if any."""
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    try:
        integrate_adaptive(counted, 0.0, 3.0, spec, initial_panels=16)
    except QuadratureError as exc:
        return sizes, exc
    return sizes, None


def test_panel_cap_limits_the_last_split():
    # every first-round panel asks to be split, 32 new panels, but only 4
    # splits fit under the cap
    def f(x):
        return np.sin(40.0 * x) * np.exp(x)

    uncapped, _ = split_sizes(f, QuadratureSpec(rel_tol=1e-12, max_panels=2**20))
    assert uncapped[:2] == [15 * 16, 15 * 32]
    sizes, exc = split_sizes(f, QuadratureSpec(rel_tol=1e-12, max_panels=20))
    assert sizes == [15 * 16, 15 * 8]
    assert "within 20 panels" in str(exc)


def test_many_kinks_converge_in_few_rounds():
    # 95 kinks of |sin(k x)|: every panel holding its share of the error is
    # split in the same round, so the kinks are refined side by side.  A
    # kink between a panel's outer node and its edge is invisible to the
    # rule; none is at k = 300.1 from 96 panels.
    k, spec = 300.1, QuadratureSpec(rel_tol=1e-10)
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.abs(np.sin(k * x))

    val, err, _ = integrate_adaptive(f, 0.0, 1.0, spec, initial_panels=math.ceil(k / math.pi))
    # m whole half-periods of |sin|, then a part
    m = math.floor(k / math.pi)
    exact = (2 * m + 1 - math.cos(k - math.pi * m)) / k
    assert len(sizes) <= 20
    assert err <= spec.rel_tol * val
    assert abs(val - exact) <= spec.rel_tol * exact


def test_round_size_is_bounded():
    # 2 _SPLIT_MAX panels with a kink at every centre, weighted by 1 + x:
    # all of them ask to be split, and each round splits the _SPLIT_MAX
    # worst, the right half first
    n0 = 2 * _SPLIT_MAX
    sizes, centres = [], []

    def f(x):
        sizes.append(x.size)
        return (1.0 + x) * np.abs(np.cos(math.pi * n0 * x))

    val, _, _ = integrate_adaptive(f, 0.0, 1.0, QuadratureSpec(), initial_panels=n0,
                                   panels=lambda c, h: centres.append(c))
    assert sizes == [2 * _SPLIT_MAX * NODES.size] * 3
    assert centres[1].min() > 0.5 and centres[2].max() < 0.5
    assert val == pytest.approx(3.0 / math.pi, rel=1e-12, abs=0.0)


def test_first_round_comes_in_bounded_slices():
    # a first round of more than 2 _SPLIT_MAX panels hands f consecutive
    # slices of at most that many, each after its own panels call
    n0 = 2 * _SPLIT_MAX + 3
    calls, centres = [], []

    def f(x):
        calls.append(("f", x.size))
        return np.cos(x)

    def panels(c, h):
        calls.append(("panels", c.size))
        centres.append(c)

    val, _, nev = integrate_adaptive(f, 0.0, 1.0, QuadratureSpec(), initial_panels=n0,
                                     panels=panels)
    assert calls == [("panels", 2 * _SPLIT_MAX), ("f", 2 * _SPLIT_MAX * NODES.size),
                     ("panels", 3), ("f", 3 * NODES.size)]
    edges = np.linspace(0.0, 1.0, n0 + 1)
    assert np.array_equal(np.concatenate(centres), 0.5 * (edges[:-1] + edges[1:]))
    assert nev == n0 * NODES.size
    assert val == pytest.approx(math.sin(1.0), rel=1e-14, abs=0.0)


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


class TestRows:
    """An integrand that returns k rows of shape (k, nodes) on shared nodes."""

    @staticmethod
    def cusp(x):
        return np.abs(x - 0.3123) ** 0.2

    CUSP = (0.3123**1.2 + 0.6877**1.2) / 1.2

    def test_each_row_meets_its_own_target(self):
        # the cusp needs many more splits than the smooth row
        spec = QuadratureSpec(rel_tol=1e-9)
        exact = np.array([math.sin(50.0) / 50.0, self.CUSP])

        def easy(x):
            return np.cos(50.0 * x)

        alone, _, n_alone = integrate_adaptive(easy, 0.0, 1.0, spec)
        _, _, n_cusp = integrate_adaptive(self.cusp, 0.0, 1.0, spec)
        both, bound, n_both = integrate_adaptive(
            lambda x: np.stack([easy(x), self.cusp(x)]), 0.0, 1.0, spec)
        assert both.shape == bound.shape == (2,)
        assert n_alone < n_cusp == n_both
        assert np.all(bound <= spec.rel_tol * np.abs(both))
        assert np.all(np.abs(both - exact) <= 10 * spec.rel_tol * np.abs(exact))
        # the extra panels do not cost the smooth row accuracy
        eps = np.finfo(float).eps
        assert abs(both[0] - exact[0]) <= abs(alone - exact[0]) + 4 * eps * abs(exact[0])

    def test_identical_rows_equal_the_one_row_call(self):
        spec = QuadratureSpec(rel_tol=1e-12)
        one = integrate_adaptive(self.cusp, 0.0, 1.0, spec)
        val, err, nev = integrate_adaptive(
            lambda x: np.stack([self.cusp(x), self.cusp(x)]), 0.0, 1.0, spec)
        assert type(one[0]) is float and type(one[1]) is float
        assert val.tolist() == [one[0], one[0]]
        assert err.tolist() == [one[1], one[1]]
        assert nev == one[2]

    def test_panel_cap_with_rows(self):
        # as test_panel_cap_limits_the_last_split, with a second row that
        # converges in the first round and so asks for no split
        def f(x):
            return np.stack([np.sin(40.0 * x) * np.exp(x), np.ones_like(x)])

        uncapped, _ = split_sizes(f, QuadratureSpec(rel_tol=1e-12, max_panels=2**20))
        assert uncapped[:2] == [15 * 16, 15 * 32]
        sizes, err = split_sizes(f, QuadratureSpec(rel_tol=1e-12, max_panels=20))
        assert sizes == [15 * 16, 15 * 8]
        assert "within 20 panels" in str(err)
        assert err.estimate.shape == err.error_bound.shape == (2,)
        assert err.estimate[1] == 3.0
        assert math.isfinite(err.estimate[0]) and err.error_bound[0] > 0

    def test_budget_exhaustion_with_rows(self):
        spec = QuadratureSpec(rel_tol=1e-10, max_panels=16)
        with pytest.raises(QuadratureError, match=r"estimate \[") as exc_info:
            integrate_adaptive(lambda x: np.stack([np.sin(5000.0 * x), x]), 0.0, 1.0,
                               spec, initial_panels=16)
        assert np.all(np.isfinite(exc_info.value.estimate))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_non_finite_integrand_raises(self, bad, rows):
        # a NaN error estimate can never meet its target; the integrator
        # must say so rather than split nothing forever
        calls = []

        def f(x):
            calls.append(x.size)
            if len(calls) > 100:
                raise RuntimeError("integrand called without end")
            row = np.where(x > 0.5, bad, x)
            return row if rows == 1 else np.stack([np.sin(300.0 * x), row])

        with np.errstate(invalid="ignore"), \
                pytest.raises(QuadratureError, match="integrand not finite"):
            integrate_adaptive(f, 0.0, 1.0, QuadratureSpec())

    def test_wrong_row_layout_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, nodes\)"):
            integrate_adaptive(lambda x: np.stack([x, x], axis=1), 0.0, 1.0,
                               QuadratureSpec())


class TestPanelsHook:
    """panels(centres, half_widths) announces each round's panels to f."""

    @pytest.mark.parametrize("rows", [1, 2])
    def test_called_once_per_round_before_f(self, rows):
        a, b, n0 = 0.3, 3.1, 16
        events = []

        def panels(centres, half_widths):
            events.append(("panels", centres.copy(), half_widths.copy()))

        def f(x):
            events.append(("f", x.copy()))
            row = np.sin(40.0 * x) * np.exp(x)
            return row if rows == 1 else np.stack([row, np.cos(x)])

        integrate_adaptive(f, a, b, QuadratureSpec(rel_tol=1e-12), n0, panels=panels)
        kinds = [event[0] for event in events]
        assert len(kinds) >= 6 and kinds == ["panels", "f"] * (len(kinds) // 2)
        h0 = (b - a) / (2 * n0)
        tol = 4 * np.finfo(float).eps * b
        for (_, centres, half_widths), (_, nodes) in zip(events[::2], events[1::2]):
            assert nodes.size == NODES.size * centres.size == NODES.size * half_widths.size
            grid = nodes.reshape(-1, NODES.size)
            assert np.array_equal(grid[:, NODES.size // 2], centres)
            assert np.all(np.abs(grid - (centres[:, None] + half_widths[:, None] * NODES))
                          <= tol)
            # nominal widths: h0 / 2^L exactly, for whole L >= 0
            levels = np.log2(h0 / half_widths)
            assert np.all(levels == np.rint(levels)) and levels.min() >= 0
            assert np.array_equal(half_widths, h0 * 0.5 ** levels)
        # the first round is the n0 initial panels, later rounds only halves
        assert np.array_equal(events[0][2], np.full(n0, h0))
        assert all(np.all(half_widths < h0) for _, _, half_widths in events[2::2])

    def test_empty_interval_makes_no_call(self):
        calls = []
        result = integrate_adaptive(lambda x: x, 2.0, 2.0, QuadratureSpec(),
                                    panels=lambda *args: calls.append(args))
        assert result == (0.0, 0.0, 0) and calls == []
