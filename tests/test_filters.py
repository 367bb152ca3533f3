import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddlab import (
    bessel_approx,
    custom,
    equidistant,
    equidistant_closed_form,
    udd,
    x_factor,
    y_abs_sq,
    y_factor,
)
from ddlab.filters import _BLOCK_ELEMENTS, x_factor_array, y_abs_sq_array, y_factor_array

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


def exact_filters(seq, z):
    """y_n(z) and x_n(z) as 40-digit mpmath sums over the same float instants."""
    n = seq.n
    d = [0.0, *seq.deltas, 1.0]
    c = [1] + [2 * (-1) ** m for m in range(1, n + 1)] + [(-1) ** (n + 1)]
    e = [(-1) ** (m + 1) for m in range(1, n + 1)] + [(-1) ** n]
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        cos_sin = [mpmath.cos_sin(zm * dj) for dj in d]
        re = mpmath.fsum(cj * co for cj, (co, _) in zip(c, cos_sin))
        im = mpmath.fsum(cj * si for cj, (_, si) in zip(c, cos_sin))
        x = mpmath.fsum(em * si for em, (_, si) in zip(e, cos_sin[1:]))
    return complex(float(re), float(im)), float(x)


NOISE_CASES = [build(n) for n in (0, 1, 2, 3, 10, 100, 1000) for build in (udd, equidistant)]
NOISE_CASES += [jittered_custom(30, 30), mirrored_custom(10, 31)]


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
        assert y_abs_sq(equidistant(2), 1.0) == pytest.approx(EQ2_AT_1, rel=1e-13)

    def test_zero(self):
        assert y_abs_sq(udd(7), 0.0) == 0.0

    def test_single_echo_peak(self):
        assert y_abs_sq(udd(1), 2 * math.pi) == pytest.approx(16.0, rel=1e-12)

    def test_single_echo_closed_form(self):
        assert y_abs_sq(udd(1), 1.0) == pytest.approx(Y1_ABS_SQ_AT_1, rel=1e-13)

    def test_cpmg_differs_from_equidistant_pair(self):
        z = 3.0
        assert y_abs_sq(udd(2), z) != pytest.approx(y_abs_sq(equidistant(2), z), rel=1e-3)
        assert y_abs_sq(udd(1), z) == y_abs_sq(equidistant(1), z)


class TestEquidistantClosedForm:
    def test_identity_with_single_echo(self):
        # 4 tan^2(z/4) sin^2(z/2) = 16 sin^4(z/4)
        assert equidistant_closed_form(1, 1.0) == pytest.approx(Y1_ABS_SQ_AT_1, rel=1e-13)

    def test_even_parity_form(self):
        assert equidistant_closed_form(2, 1.0) == pytest.approx(EQ2_AT_1, rel=1e-14)

    def test_zero(self):
        assert equidistant_closed_form(2, 0.0) == 0.0

    def test_pole_signalled(self):
        with pytest.raises(ValueError, match="pole"):
            equidistant_closed_form(1, 2 * math.pi)

    def test_needs_at_least_one_pulse(self):
        with pytest.raises(ValueError):
            equidistant_closed_form(0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 20, 50])
    def test_equivalence_with_direct_summation(self, n):
        # acceptance-style check: direct sum against the parity closed form
        z = np.linspace(0.0, 20.0, 801)
        pole_spacing = (n + 1) * math.pi
        off_pole = np.abs(z / pole_spacing - np.round(z / pole_spacing)) > 0.02
        zs = z[off_pole]
        direct = np.abs(y_factor_array(equidistant(n), zs)) ** 2
        closed = equidistant_closed_form(n, zs)
        assert np.max(np.abs(direct - closed) / np.maximum(1.0, closed)) <= 1e-12


class TestBesselApprox:
    def test_against_independent_bessel(self):
        assert bessel_approx(1, 1.0) == pytest.approx(BESSEL_N1_AT_1, rel=1e-12)

    def test_quadratic_leading_order(self):
        # 16 J_1(z/2)^2 -> z^2 as z -> 0
        z = 1e-4
        assert bessel_approx(0, z) == pytest.approx(z * z, rel=1e-8)

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
    @pytest.mark.parametrize("seq", NOISE_CASES, ids=lambda s: f"{s.scheme}{s.n}")
    def test_direct_sums_within_noise_model(self, seq):
        z = np.geomspace(1e-3, 4 * (seq.n + 2), 16)
        exact = [exact_filters(seq, float(zk)) for zk in z]
        bound = 4 * EPS * (1 + z) * math.sqrt(seq.n + 2)
        assert np.all(np.abs(y_factor_array(seq, z) - [y for y, _ in exact]) <= bound)
        assert np.all(np.abs(x_factor_array(seq, z) - [x for _, x in exact]) <= bound)


class TestBlockedKernel:
    @pytest.mark.parametrize("generated", [udd(2), udd(9), equidistant(8)],
                             ids=lambda s: f"{s.scheme}{s.n}")
    def test_symmetric_custom_matches_generated(self, generated):
        # the kernel reads the instants, not the scheme name
        z = np.geomspace(1e-3, 50.0, 400)
        twin = custom(generated.deltas)
        assert np.array_equal(y_factor_array(twin, z), y_factor_array(generated, z))
        assert np.array_equal(x_factor_array(twin, z), x_factor_array(generated, z))

    @pytest.mark.parametrize("seq", [udd(1000), equidistant(499), jittered_custom(300, 3)],
                             ids=lambda s: f"{s.scheme}{s.n}")
    def test_blocks_match_single_nodes(self, seq):
        # enough nodes for at least four blocks on either path
        nodes = 4 * _BLOCK_ELEMENTS // (seq.n // 2 + 1) + 3
        z = np.linspace(0.01, 3.0 * seq.n, nodes)
        y, x = y_factor_array(seq, z), x_factor_array(seq, z)
        assert np.array_equal(y, [y_factor_array(seq, z[k:k + 1])[0] for k in range(nodes)])
        assert np.array_equal(x, [x_factor_array(seq, z[k:k + 1])[0] for k in range(nodes)])

    @pytest.mark.parametrize("seq", [udd(7), equidistant(6), jittered_custom(5, 1)],
                             ids=lambda s: f"{s.scheme}{s.n}")
    def test_two_dimensional_nodes_keep_shape(self, seq):
        z = np.geomspace(1e-3, 30.0, 60).reshape(6, 10)
        for f in (y_factor_array, x_factor_array, y_abs_sq_array):
            out = f(seq, z)
            assert out.shape == z.shape
            assert np.array_equal(out.ravel(), f(seq, z.ravel()))
