import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddlab.filters
from ddlab.analysis import N_SEARCH_CAP
from ddlab.quadrature import NODES
from ddlab import (
    OhmicBath,
    TabulatedSpectralDensity,
    bessel_approx,
    chi,
    custom,
    equidistant,
    signal,
    udd,
    x_factor,
    y_abs_sq,
    y_factor,
)
from ddlab.filters import (
    _BLOCK_ELEMENTS,
    _FACTOR_MIN,
    _LATTICE_STEPS,
    _LATTICE_TERMS,
    PanelGrid,
    _centre_rows,
    _lattice_start,
    _slicing,
    _equidistant_half_sum,
    _offset_table,
    _panel_sums,
    _split_sums,
    _step_table,
    _term_table,
    x_factor_array,
    y_abs_sq_and_x_array,
    y_abs_sq_array,
    y_factor_array,
)

# oracle: |y_1(1)|^2 = 16 sin^4(1/4), y_1(1) = (1 - e^{i/2})^2
Y1_AT_1 = complex(-0.21486281791260572, -0.11738009240050945)
Y1_ABS_SQ_AT_1 = 0.0599441166132977
# oracle: 4 tan^2(1/6) cos^2(1/2)
EQ2_AT_1 = 0.08718233344350194
# oracle: 64 * J_2(0.5)^2 via an independent Bessel evaluation
BESSEL_N1_AT_1 = 0.05994280011901422
EPS = np.finfo(float).eps


def jittered_custom(n, seed):
    """equidistant(n) with each instant moved by up to 0.3 of its gap."""
    rng = np.random.default_rng(seed)
    return custom((np.arange(1, n + 1) + rng.uniform(-0.3, 0.3, n)) / (n + 1))


def mirrored_custom(half_count, seed):
    """Random instants below 1/2, the midpoint and their mirror images."""
    half = np.sort(np.random.default_rng(seed).uniform(0.02, 0.48, half_count))
    return custom(np.concatenate([half, [0.5], 1.0 - half[::-1]]))


def exact_filters(seq, z, offset=0.0):
    """y_n and x_n at z + offset (exactly) as 40-digit mpmath sums over the
    same float instants."""
    n = seq.n
    d = [0.0, *seq.deltas, 1.0]
    c = [1] + [2 * (-1) ** m for m in range(1, n + 1)] + [(-1) ** (n + 1)]
    e = [(-1) ** (m + 1) for m in range(1, n + 1)] + [(-1) ** n]
    with mpmath.workdps(40):
        zm = mpmath.mpf(z) + mpmath.mpf(offset)
        cos_sin = [mpmath.cos_sin(zm * dj) for dj in d]
        re = mpmath.fsum(cj * co for cj, (co, _) in zip(c, cos_sin))
        im = mpmath.fsum(cj * si for cj, (_, si) in zip(c, cos_sin))
        x = mpmath.fsum(em * si for em, (_, si) in zip(e, cos_sin[1:]))
    return complex(float(re), float(im)), float(x)


def ideal_equidistant_y(n, z):
    """y_n(z) for the ideal instants m/(n+1) as a 40-digit mpmath sum."""
    with mpmath.workdps(40):
        zm, big_n = mpmath.mpf(z), n + 1
        y = 1 + (-1) ** big_n * mpmath.expj(zm) + 2 * mpmath.fsum(
            (-1) ** m * mpmath.expj(zm * m / big_n) for m in range(1, big_n))
    return complex(y)


def pole_neighbourhood(n):
    """z at and near the removable poles (2k+1) pi (n+1) of the equidistant
    closed form below 1e5: the first, a middle and the last pole, each
    exactly, moved by 1e-15 to 1e-6 relative and absolute, and moved by 1
    and 3, where the reduced form is steep."""
    big_n = n + 1
    last = int((1e5 / (math.pi * big_n) - 1) // 2)
    out = []
    for k in sorted({0, last // 2, last}):
        pole = (2 * k + 1) * math.pi * big_n
        out.append(pole)
        for d in (1e-15, 1e-12, 1e-9, 1e-6):
            out += [pole * (1 + d), pole * (1 - d), pole + d, pole - d]
        out += [pole - 3.0, pole - 1.0, pole + 1.0, pole + 3.0]
    return np.array(out)


NOISE_CASES = [build(n) for n in (0, 1, 2, 3, 10, 100, 1000) for build in (udd, equidistant)]
NOISE_CASES += [jittered_custom(30, 30), mirrored_custom(10, 31)]
NOISE_IDS = [f"{build.__name__}{n}" for n in (0, 1, 2, 3, 10, 100, 1000)
             for build in (udd, equidistant)] + ["custom30", "custom21"]


class TestXFactor:
    def test_free_evolution_is_sine(self):
        assert x_factor(udd(0), math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_single_echo(self):
        # -sin(pi) + sin(pi/2) = 1
        assert x_factor(udd(1), math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_argument(self):
        for seq in (udd(0), udd(5), equidistant(7), custom([0.2, 0.3, 0.8])):
            assert x_factor(seq, 0.0) == 0.0


class TestYFactor:
    def test_free_evolution_two_terms(self):
        assert y_factor(udd(0), math.pi) == pytest.approx(2.0 + 0.0j, abs=1e-12)

    def test_single_echo_square(self):
        assert y_factor(udd(1), 1.0) == pytest.approx(Y1_AT_1, abs=1e-15)

    def test_vanishes_at_zero_exactly(self):
        for seq in (udd(0), udd(1), udd(5), udd(6), equidistant(9)):
            assert y_factor(seq, 0.0) == 0.0

    @given(st.integers(0, 60))
    def test_vanishes_at_zero_any_count(self, n):
        assert y_factor(udd(n), 0.0) == 0.0

    def test_scalar_matches_array(self):
        seq = udd(4)
        zs = np.array([0.3, 1.7, 9.2])
        arr = y_factor_array(seq, zs)
        for z, v in zip(zs, arr):
            assert y_factor(seq, float(z)) == v


class TestYAbsSq:
    def test_equidistant_two_pulses(self):
        assert y_abs_sq(equidistant(2), 1.0) == pytest.approx(EQ2_AT_1, rel=1e-13, abs=0.0)

    def test_zero(self):
        assert y_abs_sq(udd(7), 0.0) == 0.0

    def test_single_echo_peak(self):
        assert y_abs_sq(udd(1), 2 * math.pi) == pytest.approx(16.0, rel=1e-12, abs=0.0)

    def test_single_echo_closed_form(self):
        assert y_abs_sq(udd(1), 1.0) == pytest.approx(Y1_ABS_SQ_AT_1, rel=1e-13, abs=0.0)

    def test_cpmg_differs_from_equidistant_pair(self):
        z = 3.0
        assert y_abs_sq(udd(2), z) != pytest.approx(y_abs_sq(equidistant(2), z), rel=1e-3)
        assert y_abs_sq(udd(1), z) == y_abs_sq(equidistant(1), z)

    @pytest.mark.parametrize("z", [1e-8, 1e-7, 1e-6])
    def test_moment_expansion_for_custom_at_small_z(self, z):
        # dyadic instants, not mirror symmetric, with S1 = 0 and S2 = 3/8:
        # |y|^2 ~ 0.035 z^4 lies far below the direct sum's noise floor
        seq = custom((0.25, 0.375, 0.625))
        y, _ = exact_filters(seq, z)
        assert y_abs_sq(seq, z) == pytest.approx(abs(y) ** 2, rel=1e-9, abs=0.0)


class TestJointFilters:
    @pytest.mark.parametrize("seq", NOISE_CASES + [custom((0.25, 0.375, 0.625))],
                             ids=NOISE_IDS + ["custom3"])
    def test_equal_the_single_filters_bit_for_bit(self, seq):
        # small z reaches the Bessel, parity and Taylor sources, large z the
        # direct sum
        rng = np.random.default_rng(seq.n)
        z = np.concatenate([np.geomspace(1e-8, 1.0, 200), rng.uniform(0.0, 50.0, 300),
                            rng.uniform(0.0, 5.0 * (seq.n + 1), 300)])
        y_sq, x = y_abs_sq_and_x_array(seq, z)
        assert np.array_equal(y_sq, y_abs_sq_array(seq, z))
        assert np.array_equal(x, x_factor_array(seq, z))


def closed_form(n, z):
    """|y_n(z)|^2 of n equidistant pulses: the half-sum's closed form squared."""
    return _equidistant_half_sum(n, np.atleast_1d(z)) ** 2


class TestEquidistantClosedForm:
    def test_identity_with_single_echo(self):
        # 4 tan^2(z/4) sin^2(z/2) = 16 sin^4(z/4)
        assert closed_form(1, 1.0)[0] == pytest.approx(Y1_ABS_SQ_AT_1, rel=1e-13, abs=0.0)

    def test_even_parity_form(self):
        assert closed_form(2, 1.0)[0] == pytest.approx(EQ2_AT_1, rel=1e-14, abs=0.0)

    def test_zero(self):
        assert closed_form(2, 0.0)[0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 20, 50])
    def test_equivalence_with_direct_summation(self, n):
        # acceptance-style check: the error-free direct sum of the term
        # table, which these instants no longer take, against the parity
        # closed form
        z = np.linspace(0.0, 20.0, 801)
        pole_spacing = (n + 1) * math.pi
        off_pole = np.abs(z / pole_spacing - np.round(z / pole_spacing)) > 0.02
        zs = z[off_pole]
        terms = _term_table(equidistant(n))
        direct = _split_sums(zs, terms)[0] ** 2
        closed = closed_form(n, zs)
        assert np.max(np.abs(direct - closed) / np.maximum(1.0, closed)) <= 1e-12

    def test_scalar_near_a_pole(self):
        # z = 6 lies where |cos(z/4)| < 1/2, the reduced form's region:
        # 4 tan^2(z/4) sin^2(z/2) = 16 sin^4(z/4)
        assert closed_form(1, 6.0)[0] == pytest.approx(16 * math.sin(1.5) ** 4,
                                                       rel=1e-14, abs=0.0)

    # the filters of equidistant instants come from the closed form at every
    # node, the poles of its tangent form included
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 94, 100, 999, 1000])
    def test_filters_within_noise_model_against_mpmath(self, n):
        # against the exact sums over the same float instants, the bound of
        # TestNoiseBound holds from z = 1e-8 to 1e5 and through the poles
        seq = equidistant(n)
        z = np.concatenate([np.geomspace(1e-8, 1e5, 14), pole_neighbourhood(n)])
        y, x = y_factor_array(seq, z), x_factor_array(seq, z)
        bound = 4 * EPS * (1 + z) * math.sqrt(n + 2)
        for k, zk in enumerate(z):
            y_exact, x_exact = exact_filters(seq, float(zk))
            assert abs(y[k] - y_exact) <= bound[k], zk
            assert abs(x[k] - x_exact) <= bound[k], zk

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 50, 1000])
    def test_agrees_with_the_direct_kernel(self, n):
        # the error-free direct sum of the term table, which these instants
        # no longer take, on a dense grid over three pole periods: both stay
        # within the noise bound of the exact sum, so within twice it of
        # each other
        seq = equidistant(n)
        z = np.linspace(0.0, 6.0 * math.pi * (n + 1), 6001)
        terms = _term_table(seq)
        direct = _split_sums(z, terms)[0]
        bound = 8 * EPS * (1 + z) * math.sqrt(n + 2)
        assert np.all(np.abs(_equidistant_half_sum(n, z) - direct) <= bound)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 94, 100, 999, 1000])
    def test_abs_sq_relative_at_small_z(self, n):
        # the closed form is the ideal sequence's |y|^2: against the sum over
        # the ideal instants m/(n+1) it is exact to a few ulps below z = 1,
        # where the float instants alone move |y|^2 by up to 2e-7 at n = 1000
        z = np.geomspace(1e-8, 0.99, 12)
        got = y_abs_sq_array(equidistant(n), z)
        want = np.array([abs(ideal_equidistant_y(n, float(zk))) ** 2 for zk in z])
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 1000])
    def test_exact_pole_multiples_are_finite(self, n):
        # at z = (2k+1) pi (n+1) the tangent form is 0/0, the filters are not;
        # there |y| = 2 (n+1)
        z = (2 * np.arange(4) + 1) * math.pi * (n + 1)
        y, x, y_sq = (f(equidistant(n), z) for f in (y_factor_array, x_factor_array,
                                                     y_abs_sq_array))
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(x))
        assert y_sq == pytest.approx(4.0 * (n + 1) ** 2, rel=1e-12)
        for k, zk in enumerate(z):
            y_exact, _ = exact_filters(equidistant(n), float(zk))
            assert abs(y[k] - y_exact) <= 4 * EPS * (1 + zk) * math.sqrt(n + 2)


def equidistant_twins(n):
    """Sequences with the equidistant(n) instants under another label."""
    return [custom(equidistant(n).deltas)] + [udd(n)] * (n <= 1)


class TestClosedFormDispatch:
    @pytest.mark.parametrize("n", [0, 1, 8, 1000])
    def test_twins_bit_identical(self, n):
        # the instants pick the closed form, not the label
        rng = np.random.default_rng(n)
        z = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 60),
                            rng.uniform(0.0, 10.0 * (n + 1), 200), pole_neighbourhood(n)])
        base = equidistant(n)
        for twin in equidistant_twins(n):
            assert _term_table(twin).closed
            for f in (y_factor_array, x_factor_array, y_abs_sq_array):
                assert np.array_equal(f(twin, z), f(base, z))
            for got, want in zip(y_abs_sq_and_x_array(twin, z), y_abs_sq_and_x_array(base, z)):
                assert np.array_equal(got, want)

    def test_closed_form_ignores_the_panel_grid(self, monkeypatch):
        seq = equidistant(100)
        z, grid = panel_round(seq, 1.0, 64, [k % 3 for k in range(64)], 300.0)
        panel_calls = spy_panel_sums(monkeypatch)
        for f in (y_factor_array, x_factor_array, y_abs_sq_array):
            assert np.array_equal(f(seq, z, grid), f(seq, z))
        assert panel_calls == []

    def test_only_equidistant_instants_are_closed(self):
        for seq in (udd(2), udd(1000), jittered_custom(8, 2), mirrored_custom(4, 3)):
            assert not _term_table(seq).closed

    def test_equidistant_signal_makes_no_direct_sums(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return _split_sums(*args, **kwargs)

        monkeypatch.setattr(ddlab.filters, "_split_sums", spy)
        point = signal(equidistant(1000), OhmicBath(alpha=0.25), 3000.0)
        assert np.isfinite(point.chi) and calls == []
        # the spy does see the direct sums of the other sequences
        signal(udd(20), OhmicBath(alpha=0.25), 30.0)
        assert calls


class TestTermTableCache:
    def test_one_table_per_sequence_object(self):
        seq = jittered_custom(50, 6)
        assert _term_table(seq) is _term_table(seq)
        assert PanelGrid(seq, 1.0).terms is _term_table(seq)

    def test_equal_sequences_share_one_table(self):
        seq = jittered_custom(40, 9)
        twin = custom(seq.deltas)
        assert twin is not seq and twin == seq
        assert _term_table(twin) is _term_table(seq)
        assert PanelGrid(twin, 1.0).terms is _term_table(seq)

    def test_a_hit_does_not_read_the_instants(self):
        # the sequence hashes its instants once, when it is built; a cache
        # hit neither hashes nor iterates them again
        class Untouchable(tuple):
            def __hash__(self):
                raise AssertionError("instants hashed")

            def __iter__(self):
                raise AssertionError("instants iterated")

        seq = udd(1000)
        table, deltas = _term_table(seq), seq.deltas
        object.__setattr__(seq, "deltas", Untouchable(deltas))
        try:
            assert _term_table(seq) is table
            assert PanelGrid(seq, 1.0).terms is table
        finally:
            object.__setattr__(seq, "deltas", deltas)

    def test_cached_arrays_are_read_only(self):
        for seq in (udd(7), equidistant(6), jittered_custom(5, 7)):
            terms = _term_table(seq)
            for a in (terms.u, terms.w):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_cache_is_bounded(self):
        size = _term_table.cache_info().maxsize
        assert size == 64
        for k in range(2 * size):
            _term_table(jittered_custom(3, 100 + k))
        assert _term_table.cache_info().currsize <= size


class TestBesselApprox:
    def test_against_independent_bessel(self):
        assert bessel_approx(1, 1.0) == pytest.approx(BESSEL_N1_AT_1, rel=1e-12, abs=0.0)

    def test_quadratic_leading_order(self):
        # 16 J_1(z/2)^2 -> z^2 as z -> 0
        z = 1e-4
        assert bessel_approx(0, z) == pytest.approx(z * z, rel=1e-8, abs=0.0)

    def test_zero_argument(self):
        assert bessel_approx(3, 0.0) == 0.0

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_tracks_y_abs_sq_in_validity_window(self, n):
        z = np.geomspace(1e-3 * (n + 1), n + 1, 400)
        auto = y_abs_sq_array(udd(n), z)
        ref = bessel_approx(n, z)
        assert np.max(np.abs(auto - ref) / np.maximum(ref, 1e-300)) < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
    def test_agreement_where_both_sources_are_accurate(self, n):
        # band where the direct sum still has ~1e-9 relative accuracy and
        # the Bessel form is deep in its validity window
        z = np.geomspace(1e-4, n + 1, 2000)
        ref = bessel_approx(n, z)
        band = (ref > 1e-12) & (ref < 1e-9)
        if not np.any(band):
            pytest.skip("band empty at this order")
        direct = np.abs(y_factor_array(udd(n), z[band])) ** 2
        assert np.max(np.abs(direct - ref[band]) / ref[band]) < 1e-6


class TestDerivativeSuppression:
    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    def test_log_log_slope(self, n):
        z = np.geomspace(0.01, 0.1, 30)
        y = y_abs_sq_array(udd(n), z)
        slope = np.polyfit(np.log(z), np.log(y), 1)[0]
        assert slope == pytest.approx(2 * n + 2, abs=0.01)

    def test_bessel_ratio_at_small_argument(self):
        for n in range(1, 21):
            ratio = y_abs_sq(udd(n), 0.1) / bessel_approx(n, 0.1)
            assert ratio == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 6, 15])
    def test_small_z_bound(self, n):
        # |y|^2 <= 32 (n+1) (z/2)^(2n+2) / ((n+1)!)^2 near zero
        for z in (0.05, 0.2):
            bound = 32 * (n + 1) * (z / 2) ** (2 * n + 2) / math.factorial(n + 1) ** 2
            assert y_abs_sq(udd(n), z) <= bound


class TestReflectionSymmetry:
    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12, unique=True),
           st.floats(0.1, 30.0))
    @settings(max_examples=60)
    def test_reversed_mirror_keeps_magnitude(self, values, z):
        ds = sorted(values)
        mirrored = sorted(1.0 - d for d in ds)
        if any(b - a < 1e-9 for a, b in zip(mirrored, mirrored[1:])):
            return
        y1 = y_factor(custom(ds), z)
        y2 = y_factor(custom(mirrored), z)
        assert abs(y1) == pytest.approx(abs(y2), rel=1e-10, abs=1e-12)


class TestNoiseBound:
    # the noise model behind filters._delegation_threshold: the direct sums
    # stay within 4 eps (1+z) sqrt(n+2) of the exact sums over the same
    # float instants, symmetric half-sums and full term sets alike
    @pytest.mark.parametrize("seq", NOISE_CASES, ids=NOISE_IDS)
    def test_direct_sums_within_noise_model(self, seq):
        z = np.geomspace(1e-3, 4 * (seq.n + 2), 16)
        exact = [exact_filters(seq, float(zk)) for zk in z]
        bound = 4 * EPS * (1 + z) * math.sqrt(seq.n + 2)
        assert np.all(np.abs(y_factor_array(seq, z) - [y for y, _ in exact]) <= bound)
        assert np.all(np.abs(x_factor_array(seq, z) - [x for _, x in exact]) <= bound)


class TestBlockedKernel:
    @pytest.mark.parametrize("generated", [udd(2), udd(9), equidistant(8)],
                             ids=["udd2", "udd9", "equidistant8"])
    def test_symmetric_custom_matches_generated(self, generated):
        # the kernel reads the instants, not the scheme name
        z = np.geomspace(1e-3, 50.0, 400)
        twin = custom(generated.deltas)
        assert np.array_equal(y_factor_array(twin, z), y_factor_array(generated, z))
        assert np.array_equal(x_factor_array(twin, z), x_factor_array(generated, z))

    @pytest.mark.parametrize("seq", [udd(1000), equidistant(499), jittered_custom(300, 3)],
                             ids=["udd1000", "equidistant499", "custom300"])
    def test_blocks_match_single_nodes(self, seq):
        # enough nodes for at least four blocks on either path
        nodes = 4 * _BLOCK_ELEMENTS // (seq.n // 2 + 1) + 3
        z = np.linspace(0.01, 3.0 * seq.n, nodes)
        y, x = y_factor_array(seq, z), x_factor_array(seq, z)
        assert np.array_equal(y, [y_factor_array(seq, z[k:k + 1])[0] for k in range(nodes)])
        assert np.array_equal(x, [x_factor_array(seq, z[k:k + 1])[0] for k in range(nodes)])

    @pytest.mark.parametrize("seq", [udd(7), equidistant(6), jittered_custom(5, 1)],
                             ids=["udd7", "equidistant6", "custom5"])
    def test_two_dimensional_nodes_keep_shape(self, seq):
        z = np.geomspace(1e-3, 30.0, 60).reshape(6, 10)
        for f in (y_factor_array, x_factor_array, y_abs_sq_array):
            out = f(seq, z)
            assert out.shape == z.shape
            assert np.array_equal(out.ravel(), f(seq, z.ravel()))


def panel_nodes(upper, initial, levels, scale):
    """Nodes in z = w * scale as integrate_adaptive lays them out, with the
    panels' centres and nominal half-widths in w that it announces: initial
    panel i of [0, upper] bisected levels[i] times, every piece kept."""
    edges = np.linspace(0.0, upper, initial + 1)
    lefts, rights, widths = [], [], []
    for left, right, level in zip(edges[:-1], edges[1:], levels):
        pieces = [(left, right)]
        for _ in range(level):
            pieces = [half for a, b in pieces
                      for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
        lefts += [a for a, _ in pieces]
        rights += [b for _, b in pieces]
        widths += [upper / (2 * initial) * 0.5 ** level] * len(pieces)
    lefts, rights = np.array(lefts), np.array(rights)
    centres, halfs = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    w = (centres[:, None] + halfs[:, None] * NODES[None, :]).ravel()
    return w * scale, centres, np.array(widths)


def panel_round(seq, upper, initial, levels, scale):
    """panel_nodes' z, and a PanelGrid for seq at t = scale with the round
    announced."""
    z, centres, widths = panel_nodes(upper, initial, levels, scale)
    grid = PanelGrid(seq, scale)
    grid.set_round(centres, widths)
    return z, grid


def spy_panel_sums(monkeypatch):
    """The number of centres of every _panel_sums call."""
    calls = []

    def spy(centres, *args):
        calls.append(centres.size)
        return _panel_sums(centres, *args)

    monkeypatch.setattr(ddlab.filters, "_panel_sums", spy)
    return calls


def assert_within_noise_model(seq, y, x, centres, half_widths, rng):
    """y and x at 12 random nodes of a round, each against 40-digit sums at
    centre + half-width * NODES[k], the point the panel kernel sums at."""
    for node in rng.choice(y.size, 12, replace=False):
        panel, k = divmod(int(node), NODES.size)
        c, o = centres[panel], half_widths[panel] * NODES[k]
        y_exact, x_exact = exact_filters(seq, c, o)
        bound = 4 * EPS * (1 + abs(c + o)) * math.sqrt(seq.n + 2)
        assert abs(y[node] - y_exact) <= bound
        assert abs(x[node] - x_exact) <= bound


# a first-round grid (every panel at level 0) and one whose panels sit at
# levels 0 to 4
GRID_LEVELS = {"first_round": lambda k: 0, "mixed_levels": lambda k: k % 5}


class TestSlicing:
    # the panel kernel's slice count s and width beta per table, checked by
    # arithmetic alone: the exactness condition of its level products, and
    # the bound on the products it leaves out against the noise floor

    @staticmethod
    def tables(n):
        # (terms, max weight) of the full term set and of the mirror half-sum
        return (n + 2, 2.0), ((n + 3) // 2, 4.0 if n >= 2 else 2.0)

    def test_exact_and_below_the_noise_floor_up_to_the_search_cap(self):
        worst = 0.0
        for n in range(N_SEARCH_CAP + 1):
            floor = 4 * EPS * math.sqrt(n + 2)
            for k, scale in self.tables(n):
                s, beta = _slicing(k, scale, n)
                assert s * k * (2**beta + 1) ** 2 < 2**53, (n, k)
                dropped = (2 * k * scale * 2.0 ** (-s * beta) * (s + 3) / 4
                           * (1 + 2.0 ** (1 - beta)))
                worst = max(worst, dropped / floor)
        assert worst < 0.01

    def test_slices_as_wide_as_exactness_allows(self):
        for n in (0, 1, 2, 30, 100, 999, 1000, 65536, N_SEARCH_CAP):
            for k, scale in self.tables(n):
                s, beta = _slicing(k, scale, n)
                assert s * k * (2 ** (beta + 1) + 1) ** 2 >= 2**53

    @pytest.mark.parametrize("seq", [udd(0), udd(1), udd(2), udd(7), udd(100),
                                     jittered_custom(30, 30), mirrored_custom(10, 31),
                                     jittered_custom(1000, 8)],
                             ids=["udd0", "udd1", "udd2", "udd7", "udd100",
                                  "custom30", "custom21", "custom1000"])
    def test_term_tables_take_the_checked_slicing(self, seq):
        terms = _term_table(seq)
        k, scale = self.tables(seq.n)[terms.mirror]
        assert (terms.u.size, terms.scale) == (k, scale)
        assert np.max(np.abs(terms.w)) == scale
        assert (terms.slices, terms.beta) == _slicing(k, scale, seq.n)


class TestPanelKernel:
    # the panel kernel sums at centre + offset, the node before it
    # was rounded; against 40-digit sums at exactly that point it keeps the
    # noise model of the direct sums
    @pytest.mark.parametrize("layout", sorted(GRID_LEVELS))
    @pytest.mark.parametrize("seq", NOISE_CASES, ids=NOISE_IDS)
    def test_sums_within_noise_model_at_centre_plus_offset(self, seq, layout, monkeypatch):
        rng = np.random.default_rng(seq.n)
        # enough panels that the round takes the panel kernel rather than
        # the zero-offset kernel
        initial = max(16, -(-_FACTOR_MIN // _term_table(seq).u.size))
        levels = [GRID_LEVELS[layout](k) for k in range(initial)]
        scale = 4.0 * (seq.n + 2)
        z, centres, widths = panel_nodes(1.0, initial, levels, scale)
        grid = PanelGrid(seq, scale)
        grid.set_round(centres, widths)
        assert z.size * grid.terms.u.size >= _FACTOR_MIN * NODES.size
        assert widths.tolist() == [0.5 / initial * 0.5 ** lv
                                   for lv in levels for _ in range(2 ** lv)]
        panel_calls = spy_panel_sums(monkeypatch)
        y, x = y_factor_array(seq, z, grid), x_factor_array(seq, z, grid)
        # both filters took the panel kernel on every panel, unless the
        # closed form served them
        assert sum(panel_calls) == (0 if grid.terms.closed else 2 * centres.size)
        assert_within_noise_model(seq, y, x, centres * scale, widths * scale, rng)

    def test_knot_aligned_widths_take_the_panel_kernel(self, monkeypatch):
        # panels of non-uniform, non-dyadic widths, as edges aligned to the
        # knots of a tabulated bath give: each width has its own offset
        # table, each filter makes one kernel call over the whole round, and
        # the sums keep the noise model at centre + offset
        seq = jittered_custom(30, 30)
        rng = np.random.default_rng(6)
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 63)), [1.0]])
        centres, widths = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        assert np.unique(np.log2(widths) % 1.0).size == widths.size
        scale = 4.0 * (seq.n + 2)
        z = ((centres[:, None] + widths[:, None] * NODES[None, :]) * scale).ravel()
        grid = PanelGrid(seq, scale)
        grid.set_round(centres, widths)
        assert z.size * grid.terms.u.size >= _FACTOR_MIN * NODES.size
        panel_calls = spy_panel_sums(monkeypatch)
        y, x = y_factor_array(seq, z, grid), x_factor_array(seq, z, grid)
        assert panel_calls == [widths.size] * 2
        assert_within_noise_model(seq, y, x, centres * scale, widths * scale, rng)

    def test_each_half_width_builds_one_offset_table(self, monkeypatch):
        # a mixed-level round of three half-widths, summed for y and x and
        # then announced again: each width's table is built on first use
        built = []

        def spy(terms, half_width):
            built.append(half_width)
            return _offset_table(terms, half_width)

        monkeypatch.setattr(ddlab.filters, "_offset_table", spy)
        seq = jittered_custom(60, 5)
        scale = 4.0 * (seq.n + 2)
        z, centres, widths = panel_nodes(1.0, 16, [k % 3 for k in range(16)], scale)
        grid = PanelGrid(seq, scale)
        panel_calls = spy_panel_sums(monkeypatch)
        for _ in range(2):
            grid.set_round(centres, widths)
            y_factor_array(seq, z, grid)
            x_factor_array(seq, z, grid)
        assert panel_calls == [centres.size] * 4
        assert sorted(built) == sorted(set((widths * scale).tolist()))
        assert len(built) == 3

    def test_x_and_y_take_the_same_kernel(self, monkeypatch):
        # x is read from y's sums: a round whose two rows (cos and sin) pass
        # _FACTOR_MIN where one would not takes the panel kernel for both
        seq = jittered_custom(30, 30)
        z, grid = panel_round(seq, 1.0, 12, [0] * 12, 4.0 * (seq.n + 2))
        k = grid.terms.u.size
        assert k == 32 and not grid.terms.mirror
        assert 12 * k * 2 >= _FACTOR_MIN > 12 * k
        panel_calls = spy_panel_sums(monkeypatch)
        y, x = y_factor_array(seq, z, grid), x_factor_array(seq, z, grid)
        assert panel_calls == [12, 12]
        assert np.array_equal(x, 0.5 * (np.sin(z) - y.imag))

    @pytest.mark.parametrize("seq", [udd(1000), equidistant(99), jittered_custom(300, 3),
                                     udd(0)],
                             ids=["udd1000", "equidistant99", "custom300", "udd0"])
    def test_rows_independent_of_batching(self, seq):
        # a mixed-level round, and a first round as a lattice run: each
        # part of the run starts at its own k0 (tables below _LATTICE_TERMS
        # terms decline the lattice)
        scale = 50.0 * (seq.n + 1)
        grid = PanelGrid(seq, scale)
        t = grid.terms
        for levels, lattice in (([k % 3 for k in range(64)], False), ([0] * 64, True)):
            _, centres, widths = panel_nodes(1.0, 64, levels, scale)
            centres, widths = centres * scale, widths * scale
            steps = _step_table(t, float(widths[0])) if lattice else None
            whole = _panel_sums(centres, widths, t, grid._offset_table,
                                (0, steps) if lattice else None)
            for size in (1, 3, 7):
                parts = [_panel_sums(centres[i:i + size], widths[i:i + size], t,
                                     grid._offset_table, (i, steps) if lattice else None)
                         for i in range(0, centres.size, size)]
                assert np.array_equal(whole, np.concatenate(parts, axis=1))

    @pytest.mark.parametrize("seq", [udd(2), udd(100), jittered_custom(1000, 8)],
                             ids=["udd2", "udd100", "custom1000"])
    def test_sums_independent_of_term_order(self, seq):
        # the slice products are exact, so permuting the terms (u, w and the
        # rows of the offset tables with them), on a mixed-level round and
        # on a first round as a lattice run (its step table's columns
        # permuted too), changes no bit of any sum
        terms = _term_table(seq)
        assert terms.u.size in (2, 51, 1002)
        scale = 50.0 * (seq.n + 1)
        rng = np.random.default_rng(seq.n)
        for levels, lattice in (([k % 3 for k in range(64)], False), ([0] * 64, True)):
            _, centres, widths = panel_nodes(1.0, 64, levels, scale)
            centres, widths = centres * scale, widths * scale
            steps = _step_table(terms, float(widths[0])) if lattice else None
            want = _panel_sums(centres, widths, terms, lambda h: _offset_table(terms, h),
                               (0, steps) if lattice else None)
            for _ in range(3):
                perm = rng.permutation(terms.u.size)
                shuffled = terms._replace(u=terms.u[perm], w=terms.w[perm])
                tables = {h: _offset_table(terms, h)[perm] for h in np.unique(widths).tolist()}
                got = _panel_sums(centres, widths, shuffled, tables.__getitem__,
                                  (0, steps[:, perm]) if lattice else None)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seq", [udd(100), equidistant(60), jittered_custom(60, 5)],
                             ids=["udd100", "equidistant60", "custom60"])
    def test_joint_filters_equal_the_single_ones_on_a_grid(self, seq):
        z, grid = panel_round(seq, 1.0, 64, [k % 3 for k in range(64)], 3.0 * (seq.n + 1))
        y_sq, x = y_abs_sq_and_x_array(seq, z, grid)
        assert np.array_equal(y_sq, y_abs_sq_array(seq, z, grid))
        assert np.array_equal(x, x_factor_array(seq, z, grid))

    def test_nodes_off_the_announced_round_take_the_zero_offset_kernel(self, monkeypatch):
        seq = jittered_custom(100, 4)
        z, centres, widths = panel_nodes(1.0, 32, [1] * 32, 300.0)
        panel_calls = spy_panel_sums(monkeypatch)
        # no round announced
        assert np.array_equal(y_factor_array(seq, z, PanelGrid(seq, 300.0)),
                              y_factor_array(seq, z))
        assert panel_calls == []
        grid = PanelGrid(seq, 300.0)
        grid.set_round(centres, widths)
        moved = z.copy()
        moved[7 + 15 * 20] += 1e-6
        # another node count, and a moved middle node
        for nodes in (z[:-15], moved):
            assert np.array_equal(y_factor_array(seq, nodes, grid), y_factor_array(seq, nodes))
        assert panel_calls == []
        # the announced round itself takes the panel kernel
        y_factor_array(seq, z, grid)
        assert sum(panel_calls) == centres.size

    def test_grid_of_another_sequence_rejected(self):
        z, _, _ = panel_nodes(1.0, 16, [0] * 16, 10.0)
        with pytest.raises(ValueError, match="another sequence"):
            y_factor_array(udd(3), z, PanelGrid(udd(4), 10.0))


def spy_centre_paths(monkeypatch):
    """The number of centres of every _direct_rows call (sin/cos of c u
    itself), and the half-widths whose step tables are built."""
    direct, steps = [], []
    direct_rows = ddlab.filters._direct_rows

    def spy_direct(centres, *args):
        direct.append(centres.size)
        return direct_rows(centres, *args)

    def spy_steps(terms, half_width):
        steps.append(half_width)
        return _step_table(terms, half_width)

    monkeypatch.setattr(ddlab.filters, "_direct_rows", spy_direct)
    monkeypatch.setattr(ddlab.filters, "_step_table", spy_steps)
    return direct, steps


LARGE_TABLES = [udd(1000), jittered_custom(1000, 8)]
LARGE_IDS = ["udd1000", "custom1000"]


def knotted_bath():
    # a tabulated density with kinks inside [0, 1]: the quadrature bisects
    # round after round around them
    w = np.linspace(0.0, 1.0, 7)
    return TabulatedSpectralDensity(w, 0.5 * w * (1 + np.arange(7) % 2))


def bump_bath():
    # J = 0.25 w^3 exp(-((w - 0.8)/0.05)^2) on 101 knots over [0, 1]: the
    # first round at t = 3000 is 955 panels, the later ones up to 68
    w = np.linspace(0.0, 1.0, 101)
    return TabulatedSpectralDensity(w, 0.25 * w**3 * np.exp(-(((w - 0.8) / 0.05) ** 2)))


def lattice_run(layout, scale):
    """Centres and half-widths in z of a lattice run: a first round of 64
    panels, or the 48 halves of its panels 20 to 43 bisected, k = 40..87."""
    if layout == "first_round":
        _, centres, widths = panel_nodes(1.0, 64, [0] * 64, scale)
    else:
        _, centres, widths = panel_nodes(1.0, 64, [1] * 64, scale)
        centres, widths = centres[40:88], widths[40:88]
    return centres * scale, widths * scale


class TestLatticeRows:
    # a round that is a lattice run, centres (2k+1) h for k = k0, k0+1, ...
    # of one half-width (every first round), takes its centre rows by angle
    # addition from a step table, for tables of at least _LATTICE_TERMS
    # terms; other rounds and smaller tables take sin/cos of c u

    @pytest.mark.parametrize("layout", ["first_round", "bisected_run"])
    @pytest.mark.parametrize("seq", LARGE_TABLES, ids=LARGE_IDS)
    def test_rows_at_the_lattice_centre_within_a_few_ulps(self, seq, layout):
        # each row against 30-digit sin/cos at (2k+1) h exactly: a few ulps
        # of the weight, plus eps |(2k+1) h u| from rounding the phases
        terms = _term_table(seq)
        centres, widths = lattice_run(layout, 3.0 * (seq.n + 1))
        k0 = _lattice_start(centres, widths)
        assert k0 == (0 if layout == "first_round" else 40)
        index = np.arange(k0, k0 + centres.size)
        rows, spare = np.empty((2, centres.size, 2, terms.u.size))
        h = float(widths[0])
        _centre_rows(centres, h, (k0, _step_table(terms, h)), terms, rows, spare)
        # rows of the step table itself (k < 8) and by angle addition
        added = np.flatnonzero(index >= _LATTICE_STEPS)
        picks = [*np.flatnonzero(index < _LATTICE_STEPS)[:3], *added[::added.size // 6]]
        for i in picks:
            with mpmath.workdps(30):
                point = (2 * int(index[i]) + 1) * mpmath.mpf(h)
                want = [mpmath.cos_sin(point * mpmath.mpf(float(u))) for u in terms.u]
            bound = np.abs(terms.w) * EPS * (4.0 + float(point) * np.abs(terms.u))
            assert np.all(np.abs(rows[i, 0] - [float(si) for _, si in want] * terms.w) <= bound)
            assert np.all(np.abs(rows[i, 1] - [float(co) for co, _ in want] * terms.w) <= bound)

    def test_quadrature_centres_are_on_the_lattice(self, monkeypatch):
        # every round that a signal announces, round after round of
        # bisections included, in z: each centre on its lattice, and each
        # integral's first round a lattice run from k0 = 0
        rounds = []
        set_round = PanelGrid.set_round

        def spy(grid, centres, half_widths):
            set_round(grid, centres, half_widths)
            rounds.append((grid, grid._round))

        monkeypatch.setattr(PanelGrid, "set_round", spy)
        for t in (10.0, 40.0, 300.0):
            signal(udd(4), knotted_bath(), t)
        assert len(rounds) > 30
        firsts = [i for i, (grid, _) in enumerate(rounds) if i == 0 or rounds[i - 1][0] is not grid]
        assert len(firsts) == 3
        for i, (_, (centres, widths)) in enumerate(rounds):
            for c, h in zip(centres, widths):
                assert _lattice_start(np.array([c]), np.array([h])) is not None
            if i in firsts:
                assert _lattice_start(centres, widths) == 0

    # per layout of 64 initial panels: its levels, and whether the round is
    # a lattice run; the two-level round (the halves of the first 32 panels
    # and the quarters of the others) and the mixed one are not, so they
    # keep sin/cos
    LAYOUTS = {"first_round": (GRID_LEVELS["first_round"], True),
               "two_levels": (lambda k: k // 32, False),
               "mixed_levels": (GRID_LEVELS["mixed_levels"], False)}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seq", LARGE_TABLES, ids=LARGE_IDS)
    def test_quadrature_grids_take_the_lattice_path(self, seq, layout, monkeypatch):
        direct, steps = spy_centre_paths(monkeypatch)
        level_of, run = self.LAYOUTS[layout]
        levels = [level_of(k) for k in range(64)]
        z, grid = panel_round(seq, 1.0, 64, levels, 3.0 * (seq.n + 1))
        assert grid.terms.u.size >= _LATTICE_TERMS
        y_factor_array(seq, z, grid)
        x_factor_array(seq, z, grid)
        # the round's table built once, kept by the grid for the second
        # filter
        assert steps == ([1 / 128 * grid.t] if run else [])
        assert sum(direct) == (0 if run else 2 * sum(2**lv for lv in levels))

    def test_chi_builds_one_step_table(self, monkeypatch):
        # 11 rounds on a bump-shaped table: the first, 955 panels, is a
        # lattice run and takes the step table; each later round, of 42 to
        # 68 panels, enough to pay for a step table, is not one and takes
        # sin/cos of c u, block by block
        direct, steps = spy_centre_paths(monkeypatch)
        rounds, starts = [], []
        set_round = PanelGrid.set_round

        def spy(grid, centres, half_widths):
            set_round(grid, centres, half_widths)
            rounds.append(centres.size)
            starts.append(len(direct))

        monkeypatch.setattr(PanelGrid, "set_round", spy)
        chi(udd(1000), bump_bath(), 3000.0)
        assert len(rounds) == 11 and rounds[0] == 955
        assert min(rounds[1:]) == 42 and max(rounds[1:]) == 68
        assert len(steps) == 1
        # the sin/cos centres of each round, over its blocks
        per_round = [sum(direct[i:j]) for i, j in zip(starts, starts[1:] + [len(direct)])]
        assert per_round == [0] + rounds[1:]

    def test_centres_off_the_lattice_take_sin_cos(self, monkeypatch):
        # knot-aligned panels of 64 widths, where only the first, [0, 2h],
        # is centred on its lattice; panels of one width moved by 0.3 of it,
        # and by 1e-12 of their centres, where none is; and a first round's
        # centres announced with a second half-width for one panel: no round
        # is a lattice run, so every centre takes sin/cos
        seq = jittered_custom(1000, 8)
        rng = np.random.default_rng(6)
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 63)), [1.0]])
        knotted = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        lattice = (np.arange(64) * 2 + 1.0) / 128, np.full(64, 1 / 128)
        moved = lattice[0] + 0.3 / 128, lattice[1]
        nudged = lattice[0] * (1 + 1e-12), lattice[1]
        two_widths = lattice[0], np.where(np.arange(64) == 40, 1 / 256, 1 / 128)
        assert _lattice_start(lattice[0] * 3000.0, lattice[1] * 3000.0) == 0
        direct, steps = spy_centre_paths(monkeypatch)
        for centres, widths in (knotted, moved, nudged, two_widths):
            assert _lattice_start(centres * 3000.0, widths * 3000.0) is None
            z = ((centres[:, None] + widths[:, None] * NODES[None, :]) * 3000.0).ravel()
            grid = PanelGrid(seq, 3000.0)
            grid.set_round(centres, widths)
            direct.clear()
            y_factor_array(seq, z, grid)
            assert sum(direct) == centres.size
        assert _lattice_start(knotted[0][:1] * 3000.0, knotted[1][:1] * 3000.0) == 0
        assert steps == []

    def test_closed_form_builds_no_step_tables(self, monkeypatch):
        # equidistant instants never sum their (large) term table
        seq = equidistant(1000)
        _, steps = spy_centre_paths(monkeypatch)
        z, grid = panel_round(seq, 1.0, 64, [0] * 64, 3.0 * (seq.n + 1))
        assert grid.terms.closed and grid.terms.u.size >= _LATTICE_TERMS
        y_factor_array(seq, z, grid)
        assert steps == []

    @pytest.mark.parametrize("seq", [udd(100), jittered_custom(30, 30), jittered_custom(180, 2)],
                             ids=["udd100", "custom30", "custom180"])
    def test_tables_below_the_gate_take_sin_cos(self, seq, monkeypatch):
        # the kernel declines a step table offered for a first round, and
        # the grid builds none
        terms = _term_table(seq)
        assert terms.u.size < _LATTICE_TERMS
        _, centres, widths = panel_nodes(1.0, 64, [0] * 64, 3.0 * (seq.n + 1))
        offered = (0, _step_table(terms, float(widths[0])))
        direct, steps = spy_centre_paths(monkeypatch)
        _panel_sums(centres, widths, terms, lambda h: _offset_table(terms, h), offered)
        z, grid = panel_round(seq, 1.0, 64, [0] * 64, 3.0 * (seq.n + 1))
        y_factor_array(seq, z, grid)
        assert sum(direct) == 2 * 64 and steps == []

    @pytest.mark.parametrize("panels", [16, 26, 64])
    @pytest.mark.parametrize("seq", LARGE_TABLES, ids=LARGE_IDS)
    def test_first_round_takes_no_more_sin_cos(self, seq, panels, monkeypatch):
        # a first round with a fresh grid, as every integral starts.  64
        # panels: 8 step rows and 7 base rows, where sin/cos of c u take 64
        # rows.  16 and 26 panels would save 7 and 22 rows, too few for a
        # step table (_LATTICE_SAVED), so they keep sin/cos of c u.
        counted = []
        sin_cos = ddlab.filters._sin_cos

        def spy(phase, *args):
            counted.append(phase.size)
            return sin_cos(phase, *args)

        monkeypatch.setattr(ddlab.filters, "_sin_cos", spy)
        k = _term_table(seq).u.size
        z, grid = panel_round(seq, 1.0, panels, [0] * panels, 3.0 * (seq.n + 1))
        lattice = y_factor_array(seq, z, grid)
        assert sum(counted) == {16: 16, 26: 26, 64: _LATTICE_STEPS + 7}[panels] * k
        counted.clear()
        monkeypatch.setattr(ddlab.filters, "_LATTICE_TERMS", k + 1)
        z, grid = panel_round(seq, 1.0, panels, [0] * panels, 3.0 * (seq.n + 1))
        direct = y_factor_array(seq, z, grid)
        assert sum(counted) == panels * k
        # the lattice points lie within a few ulps of the centres
        assert np.allclose(lattice, direct, rtol=0.0, atol=1e-9)
