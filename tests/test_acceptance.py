"""Acceptance suite: every release-gating check at its stated tolerance.

Each test prints one PASS line (pytest -s or -v shows them); a failing
criterion fails its test.  Shared storage-time solves are session-cached.
"""

import math

import numpy as np
import pytest
from scipy.special import sici

import ddlab
from ddlab import (
    OhmicBath,
    QuadratureSpec,
    chi,
    equidistant,
    mc_signal,
    min_pulses,
    phase,
    storage_time,
    udd,
)
from ddlab.filters import (_equidistant_half_sum, _split_sums, _term_table, bessel_approx,
                           y_abs_sq_array, y_factor_array)
from conftest import STANDARD_GRID, classical_twin

EULER_GAMMA = 0.5772156649015329
EPSILON = 1e-4


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def quad():
    return QuadratureSpec()


@pytest.fixture(scope="module")
def storage(quad):
    """Storage times shared by criteria 6 and 8."""
    cases = {
        ("equidistant", 0.25): equidistant(100),
        ("equidistant", 0.001): equidistant(100),
        ("udd", 0.25): udd(100),
        ("udd", 0.001): udd(100),
    }
    return {
        key: storage_time(seq, OhmicBath(alpha=key[1]), EPSILON, quad).t_store
        for key, seq in cases.items()
    }


def test_criterion_01_udd_timing_exact():
    assert udd(2).deltas == (0.25, 0.75)
    assert udd(1).deltas == (0.5,)
    report(1, "udd(2) = (0.25, 0.75) and udd(1) = (0.5,) exactly")


def test_criterion_02_filter_suppression_order():
    slopes = {}
    for n in (2, 5, 10, 20):
        z = np.geomspace(0.01, 0.1, 40)
        y = y_abs_sq_array(udd(n), z)
        slope = float(np.polyfit(np.log(z), np.log(y), 1)[0])
        assert slope == pytest.approx(2 * n + 2, abs=0.01)
        slopes[n] = slope
    report(2, "log-log slopes " + ", ".join(
        f"n={n}: {s:.4f} (target {2*n+2})" for n, s in slopes.items()))


def test_criterion_03_bessel_approximation():
    worst = {}
    for n in (1, 5, 20):
        z = np.geomspace(1e-3 * (n + 1), n + 1, 600)
        val = y_abs_sq_array(udd(n), z)
        ref = bessel_approx(n, z)
        dev = float(np.max(np.abs(val - ref) / np.maximum(ref, 1e-300)))
        assert dev < 1e-3
        # second leg: direct summation where it is numerically trustworthy,
        # so the comparison is not delegation checking itself
        direct = np.abs(y_factor_array(udd(n), z)) ** 2
        sound = direct > 1e-9
        assert np.any(sound)
        dev_direct = float(np.max(np.abs(direct[sound] - ref[sound]) / ref[sound]))
        assert dev_direct < 1e-3
        worst[n] = max(dev, dev_direct)
    report(3, "max relative deviation from the Bessel form " + ", ".join(
        f"n={n}: {d:.2e}" for n, d in worst.items()))


def test_criterion_04_equidistant_closed_forms():
    worst = 0.0
    for n in (1, 2, 3, 4, 5, 10, 20, 35, 50):
        z = np.linspace(0.0, 20.0, 1601)
        spacing = (n + 1) * math.pi
        off_pole = np.abs(z / spacing - np.round(z / spacing)) > 0.02
        zs = z[off_pole]
        # the error-free direct sum of the term table, which equidistant
        # instants no longer take: |y|^2 is the half-sum squared
        terms = _term_table(equidistant(n))
        direct = _split_sums(zs, terms)[0] ** 2
        closed = _equidistant_half_sum(n, zs) ** 2
        dev = float(np.max(np.abs(direct - closed) / np.maximum(1.0, closed)))
        assert dev <= 1e-12
        worst = max(worst, dev)
    report(4, f"direct sum vs parity closed forms, worst {worst:.2e} <= 1e-12")


def test_criterion_05_free_evolution_oracle(quad):
    bath = OhmicBath(alpha=0.1)
    seq = udd(0)
    worst_chi = worst_phi = 0.0
    for t in np.geomspace(1e-3, 1e3, 25):
        si, ci = sici(float(t))
        chi_ref = 0.1 * (EULER_GAMMA + math.log(t) - float(ci))
        phi_ref = 0.1 * float(si)
        worst_chi = max(worst_chi, abs(chi(seq, bath, float(t), quad) - chi_ref))
        worst_phi = max(worst_phi, abs(phase(seq, bath, float(t), quad) - phi_ref))
    assert worst_chi < 1e-9
    assert worst_phi < 1e-9
    report(5, f"n=0 Si/Ci closed forms, worst |dchi| {worst_chi:.1e}, "
              f"|dphi| {worst_phi:.1e} < 1e-9")


def test_criterion_06_storage_time_reproduction(storage):
    eq_strong = storage[("equidistant", 0.25)]
    eq_weak = storage[("equidistant", 0.001)]
    udd_strong = storage[("udd", 0.25)]
    udd_weak = storage[("udd", 0.001)]
    assert 2.5 <= eq_strong <= 10.0
    assert 30.0 <= eq_weak <= 120.0
    assert 100.0 <= udd_strong <= 400.0
    ratio_strong = udd_strong / eq_strong
    ratio_weak = udd_weak / eq_weak
    assert 20.0 <= ratio_strong <= 80.0
    assert 2.0 <= ratio_weak <= 8.0
    report(6, f"storage t_C: eq/0.25 {eq_strong:.2f}, eq/0.001 {eq_weak:.1f}, "
              f"udd/0.25 {udd_strong:.1f}; ratios {ratio_strong:.1f}, {ratio_weak:.1f}")


def test_criterion_07_minimum_pulse_counts(quad):
    bath = OhmicBath(alpha=0.25)
    n_udd = min_pulses("udd", bath, EPSILON, 5.0, quad)
    n_eq = min_pulses("equidistant", bath, EPSILON, 5.0, quad)
    assert 4 <= n_udd <= 8
    assert 50 <= n_eq <= 200
    report(7, f"pulses for 5 t_C at alpha=0.25: optimized {n_udd}, "
              f"equidistant {n_eq}")


def test_criterion_08_alpha_insensitivity(storage):
    strong = storage[("udd", 0.25)]
    weak = storage[("udd", 0.001)]
    spread = max(strong, weak) / min(strong, weak)
    assert spread < 2.0
    report(8, f"udd(100) storage spread over alpha in {{0.25, 0.001}}: "
              f"factor {spread:.3f} < 2")


def test_criterion_09_temperature_robustness(quad):
    cold = storage_time(udd(20), OhmicBath(alpha=0.1, temperature=0.0),
                        EPSILON, quad).t_store
    warm = storage_time(udd(20), OhmicBath(alpha=0.1, temperature=0.1),
                        EPSILON, quad).t_store
    change = abs(warm - cold) / cold
    assert change < 0.1
    report(9, f"udd(20) storage {cold:.3f} -> {warm:.3f} t_C at T=0.1: "
              f"relative change {change:.2e} < 0.1")


def test_criterion_10_classical_quantum_path_equality(quad):
    worst = 0.0
    for build, n, alpha, temp, t in STANDARD_GRID:
        qb = OhmicBath(alpha=alpha, temperature=temp)
        cb = classical_twin(alpha, temp)
        seq = build(n)
        cq = chi(seq, qb, t, quad)
        cc = chi(seq, cb, t, quad)
        rel = abs(cq - cc) / max(abs(cq), 1e-300)
        if cq > 1e-250:
            assert rel <= 1e-10
            worst = max(worst, rel)
    report(10, f"p = pi J coth reproduces quantum chi, worst rel {worst:.1e} <= 1e-10")


def test_criterion_11_monte_carlo_oracle(quad):
    bath = classical_twin(0.1, 0.25)
    worst_z = 0.0
    for n in (0, 1, 3):
        seq = udd(n)
        for t in (0.5, 2.0, 5.0):
            est = mc_signal(bath, seq, t, 10000, 7, 0.01, 512)
            target = math.exp(-2.0 * chi(seq, bath, t, quad))
            z = abs(est.mean - target) / est.stderr
            assert z <= 3.0
            worst_z = max(worst_z, z)
    p0, t = 0.2, 10.0
    flat = ddlab.ClassicalBath(
        power_spectrum=lambda w: np.full_like(np.asarray(w, float), p0),
        omega_max=20.0)
    est = mc_signal(flat, udd(0), t, 10000, 7, math.pi / 160, 1024)
    z_flat = abs(est.mean - math.exp(-p0 * t / 2)) / est.stderr
    assert z_flat <= 3.0
    report(11, f"MC vs exp(-2 chi): worst |z| {worst_z:.2f} over 9 cells; "
               f"white-noise |z| {z_flat:.2f} <= 3")


def test_criterion_12_quadrature_convergence():
    q1 = QuadratureSpec(rel_tol=1e-10)
    q2 = QuadratureSpec(rel_tol=5e-11)
    worst = 0.0
    for build, n, alpha, temp, t in STANDARD_GRID:
        bath = OhmicBath(alpha=alpha, temperature=temp)
        seq = build(n)
        c1 = chi(seq, bath, t, q1)
        c2 = chi(seq, bath, t, q2)
        rel = abs(c1 - c2) / max(c1, 1e-30)
        assert rel < 1e-8
        worst = max(worst, rel)
    report(12, f"halving rel_tol moves chi by at most {worst:.1e} < 1e-8 relative")
