import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddlab import (
    ClassicalBath,
    OhmicBath,
    TabulatedSpectralDensity,
    bessel_approx,
    bessel_j,
    integrand_weight,
    spectral_density,
    thermal_weight,
)

# 1/tanh(5), high-precision oracle for the coth factor
COTH_5 = 1.0000908039820193


class TestOhmicSpectralDensity:
    def test_linear_rise(self):
        bath = OhmicBath(alpha=0.1, omega_d=1.0)
        assert spectral_density(bath, 0.5) == pytest.approx(0.1, rel=1e-15, abs=0.0)

    def test_zero_beyond_cutoff(self):
        bath = OhmicBath(alpha=0.1, omega_d=1.0)
        assert spectral_density(bath, 1.5) == 0.0

    def test_cutoff_is_inclusive(self):
        bath = OhmicBath(alpha=0.1, omega_d=1.0)
        assert spectral_density(bath, 1.0) == pytest.approx(0.2, rel=1e-15, abs=0.0)

    def test_decoupled(self):
        bath = OhmicBath(alpha=0.0)
        assert spectral_density(bath, 0.7) == 0.0

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            spectral_density(OhmicBath(alpha=0.1), -0.1)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, [0.5, math.nan]])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="omega must be finite"):
            spectral_density(OhmicBath(alpha=0.1), omega)

    def test_array_input(self):
        bath = OhmicBath(alpha=0.1, omega_d=1.0)
        om = np.array([0.25, 0.5, 2.0])
        np.testing.assert_allclose(spectral_density(bath, om), [0.05, 0.1, 0.0])

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"alpha": 0.1, "omega_d": 0.0},
        {"alpha": 0.1, "omega_d": -1.0}, {"alpha": 0.1, "temperature": -0.2},
        {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": 0.1, "omega_d": math.nan},
        {"alpha": 0.1, "omega_d": math.inf}, {"alpha": 0.1, "temperature": math.nan},
        {"alpha": 0.1, "temperature": math.inf},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            OhmicBath(**kwargs)


class TestThermalWeight:
    def test_zero_temperature_is_exactly_one(self):
        assert thermal_weight(0.0, 0.3) == 1.0
        assert thermal_weight(0.0, 0.0) == 1.0

    def test_small_argument_series(self):
        # 2T/omega dominates at omega = 1e-8, T = 1
        assert thermal_weight(1.0, 1e-8) == pytest.approx(2e8, rel=1e-9, abs=0.0)

    def test_coth_5(self):
        assert thermal_weight(0.1, 1.0) == pytest.approx(COTH_5, rel=1e-14, abs=0.0)

    def test_small_argument_against_mpmath(self):
        # 1/tanh keeps full relative accuracy where coth ~ 1/x
        x = np.geomspace(1e-12, 1e-3, 37)
        got = thermal_weight(0.5, x)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.coth(mpmath.mpf(float(v)))) for v in x])
        np.testing.assert_allclose(got, ref, rtol=2 * np.finfo(float).eps, atol=0.0)

    def test_divergence_at_zero_omega(self):
        with pytest.raises(ValueError):
            thermal_weight(0.5, 0.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            thermal_weight(0.5, -1.0)

    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("omega", [math.nan, math.inf, [0.5, math.nan]])
    def test_non_finite_omega_rejected(self, temp, omega):
        with pytest.raises(ValueError, match="omega must be finite"):
            thermal_weight(temp, omega)

    @pytest.mark.parametrize("temp", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, temp):
        with pytest.raises(ValueError, match="temperature must be finite"):
            thermal_weight(temp, 1.0)

    @given(st.floats(0.01, 100.0), st.floats(1e-3, 50.0))
    def test_weight_at_least_one(self, temp, omega):
        assert thermal_weight(temp, omega) >= 1.0

    @given(st.floats(0.01, 10.0), st.floats(1e-3, 5.0), st.floats(1.01, 3.0))
    def test_monotone_decreasing_in_omega(self, temp, omega, factor):
        assert thermal_weight(temp, omega * factor) <= thermal_weight(temp, omega)

    @given(st.floats(1e-6, 0.2), st.floats(10.0, 1e4))
    def test_high_temperature_consistency(self, omega, temp):
        w = thermal_weight(temp, omega)
        lead = 2.0 * temp / omega
        assert abs(w - lead) / lead < (omega / (2 * temp)) ** 2 / 3 + 1e-12


class TestIntegrandWeight:
    def test_quantum_zero_temperature(self):
        bath = OhmicBath(alpha=0.1, omega_d=1.0, temperature=0.0)
        assert integrand_weight(bath, 0.5) == pytest.approx(0.1, rel=1e-15, abs=0.0)

    def test_classical_divides_by_pi(self):
        cb = ClassicalBath(power_spectrum=lambda w: np.full_like(w, math.pi),
                           omega_max=1.0)
        assert integrand_weight(cb, 0.3) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_quantum_thermal_product(self):
        bath = OhmicBath(alpha=0.1, omega_d=1.0, temperature=0.1)
        assert integrand_weight(bath, 1.0) == pytest.approx(0.2 * COTH_5, rel=1e-14, abs=0.0)

    def test_classical_zero_above_omega_max(self):
        cb = ClassicalBath(power_spectrum=lambda w: np.ones_like(w), omega_max=2.0)
        om = np.array([1.0, 2.5])
        out = integrand_weight(cb, om)
        assert out[1] == 0.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_classical_bad_spectrum_named(self, bad):
        # 0.28 lies between the probe's points j/16; above omega_max p is
        # not read, so a bad value there passes
        cb = ClassicalBath(lambda w: np.where(abs(w - 0.28125) < 0.025, bad, 0.2 * w),
                           omega_max=1.0)
        with pytest.raises(ValueError, match=r"got p\(0\.28\) = "):
            integrand_weight(cb, [0.1, 0.28, 0.29])
        with pytest.raises(ValueError, match=r"got p\(0\.28\) = "):
            integrand_weight(cb, 0.28)
        above = ClassicalBath(lambda w: np.where(w > 1.0, bad, 0.2 * w), omega_max=1.0)
        assert integrand_weight(above, [0.5, 1.5]).tolist() == [0.1 / math.pi, 0.0]

    @pytest.mark.parametrize("omega", [math.nan, math.inf, [0.5, math.nan]])
    def test_classical_non_finite_omega_rejected(self, omega):
        cb = ClassicalBath(power_spectrum=lambda w: np.ones_like(w), omega_max=2.0)
        with pytest.raises(ValueError, match="omega must be finite"):
            integrand_weight(cb, omega)


class TestTabulatedSpectralDensity:
    def test_linear_interpolation(self):
        tab = TabulatedSpectralDensity(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert spectral_density(tab, 0.25) == pytest.approx(0.5, rel=1e-15, abs=0.0)

    def test_zero_beyond_last_sample(self):
        tab = TabulatedSpectralDensity(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert spectral_density(tab, 1.5) == 0.0

    def test_held_below_first_sample(self):
        tab = TabulatedSpectralDensity(np.array([0.5, 1.0]), np.array([3.0, 2.0]))
        assert spectral_density(tab, 0.1) == 3.0

    def test_matches_ohmic_exactly_for_linear_density(self):
        # linear interpolation of a linear J reproduces the ohmic density
        om = np.linspace(0.0, 1.0, 11)
        tab = TabulatedSpectralDensity(om, 0.2 * om)
        bath = OhmicBath(alpha=0.1, omega_d=1.0)
        for w in (0.05, 0.33, 0.777, 1.0):
            assert spectral_density(tab, w) == pytest.approx(
                spectral_density(bath, w), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("om,jv", [
        ([0.0, 0.0, 1.0], [0.0, 1.0, 2.0]),   # not strictly ascending
        ([1.0, 0.5], [0.0, 1.0]),             # descending
        ([0.0, 1.0], [0.0, -1.0]),            # negative J
        ([0.5], [1.0]),                        # too short
        ([0.0, math.nan, 1.0], [0.0, 1.0, 2.0]),  # non-finite omega
        ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
        ([0.0, 0.5, 1.0], [0.0, math.nan, 2.0]),  # non-finite J
        ([0.0, 0.5, 1.0], [0.0, math.inf, 2.0]),
    ])
    def test_validation(self, om, jv):
        with pytest.raises(ValueError):
            TabulatedSpectralDensity(np.array(om, float), np.array(jv, float))

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "bath.csv"
        path.write_text("omega,J\n0.0,0.0\n0.5,0.1\n1.0,0.2\n")
        tab = TabulatedSpectralDensity.from_csv(path)
        assert tab.cutoff == 1.0
        assert spectral_density(tab, 0.25) == pytest.approx(0.05, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            TabulatedSpectralDensity(np.array([0.0, 1.0]), np.array([0.0, 2.0]), temperature)

    def test_csv_nan_sample_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("omega,J\n0.0,0.0\n0.5,nan\n1.0,0.2\n")
        with pytest.raises(ValueError, match="finite"):
            TabulatedSpectralDensity.from_csv(path)

    def test_csv_short_row_names_the_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("omega,J\n0.0,0.0\n0.5\n1.0,0.2\n")
        with pytest.raises(ValueError, match="line 3"):
            TabulatedSpectralDensity.from_csv(path)

    @pytest.mark.parametrize("text, where", [
        ("omega,J,extra\n0.0,0.0,1\n1.0,0.2,1\n", ": expected header 'omega,J'"),
        ("omega,J\n0.0,0.0,5\n1.0,0.2\n", ", line 2: expected 'omega,J'"),
        ("omega,J\n0.0,0.0\nabc,0.2\n", ", line 3: could not convert string to float: 'abc'")])
    def test_csv_malformed_names_path_and_line(self, tmp_path, text, where):
        path = tmp_path / "bath.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc_info:
            TabulatedSpectralDensity.from_csv(path)
        assert str(exc_info.value).startswith(f"{path}{where}")

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w,J\n0.0,0.0\n1.0,0.2\n")
        with pytest.raises(ValueError, match="omega,J"):
            TabulatedSpectralDensity.from_csv(path)


class TestClassicalBath:
    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValueError):
            ClassicalBath(power_spectrum=lambda w: -np.ones_like(w), omega_max=1.0)

    def test_bad_omega_max(self):
        with pytest.raises(ValueError):
            ClassicalBath(power_spectrum=lambda w: np.ones_like(w), omega_max=0.0)

    @pytest.mark.parametrize("omega_max", [math.nan, math.inf])
    def test_non_finite_omega_max(self, omega_max):
        with pytest.raises(ValueError, match="finite"):
            ClassicalBath(power_spectrum=lambda w: np.ones_like(w), omega_max=omega_max)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spectrum_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ClassicalBath(power_spectrum=lambda w: np.full_like(w, value), omega_max=1.0)


@pytest.mark.parametrize("fn", [
    lambda w: spectral_density(OhmicBath(alpha=0.1), w),
    lambda w: thermal_weight(0.1, w),
    lambda w: thermal_weight(0.0, w),
    lambda w: integrand_weight(OhmicBath(alpha=0.1, temperature=0.1), w),
    lambda w: integrand_weight(ClassicalBath(lambda x: 2.0 * x, omega_max=3.0), w),
    lambda w: bessel_approx(3, w),
    lambda w: bessel_j(1, w),
], ids=["spectral_density", "thermal_weight", "thermal_weight_T0", "integrand_weight",
        "integrand_weight_classical", "bessel_approx", "bessel_j"])
def test_list_in_gives_the_ndarray_out(fn):
    # scalar in, float out is decided by dimension: a list is an array
    out = fn([1.0, 2.0])
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, fn(np.array([1.0, 2.0])))
    assert isinstance(fn(2.0), float)
    assert fn(2.0) == out[1]
