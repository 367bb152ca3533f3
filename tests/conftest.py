import functools
import math

import mpmath
import numpy as np
import pytest

import ddlab
from ddlab.bath import thermal_weight


@pytest.fixture(scope="session")
def quad():
    return ddlab.QuadratureSpec()


def classical_twin(alpha: float, temperature: float, omega_d: float = 1.0):
    """ClassicalBath with p = pi * J * coth, the exact quantum equivalent."""

    def p(w):
        w = np.asarray(w, dtype=float)
        j = 2.0 * alpha * w * (w <= omega_d)
        if temperature == 0.0:
            return math.pi * j
        return math.pi * j * thermal_weight(temperature, w)

    return ddlab.ClassicalBath(power_spectrum=p, omega_max=omega_d)


def _thermal_chi_at(deltas, alpha: float, temperature: float, t: float, dps: int):
    """thermal_chi's closed form at dps digits, its E_1 sum cut where
    e^(-k/T) falls below 10^-dps."""
    with mpmath.workdps(dps):
        n = len(deltas)
        d = [mpmath.mpf(0)] + [mpmath.mpf(x) for x in deltas] + [mpmath.mpf(1)]
        c = [1] + [2 * (-1) ** m for m in range(1, n + 1)] + [(-1) ** (n + 1)]
        beta = 1 / mpmath.mpf(temperature)
        ks = range(1, int(dps * math.log(10) / beta) + 2)
        # E_1(k/T) does not depend on the pair: sum it once
        e1_real = mpmath.fsum(mpmath.e1(k * beta) for k in ks)
        pairs = mpmath.mpf(0)
        for j in range(n + 2):
            for k in range(j + 1, n + 2):
                a = t * (d[k] - d[j])
                x = mpmath.pi * a * temperature
                cin = mpmath.euler + mpmath.log(a) - mpmath.ci(a)
                e1_sum = mpmath.fsum(mpmath.re(mpmath.e1(m * beta - 1j * a)) for m in ks)
                pairs += c[j] * c[k] * (cin + mpmath.log(mpmath.sinh(x) / x)
                                        + 2 * (e1_sum - e1_real))
        return -alpha * pairs


@functools.lru_cache(maxsize=None)
def thermal_chi(deltas: tuple, alpha: float, temperature: float, t: float) -> float:
    """Exact chi of the instants deltas on the ohmic bath J = 2 alpha w up to
    a hard cutoff at 1, at temperature T > 0 (OhmicBath and its classical
    twin).

    With coth(w / 2T) = 1 + 2 sum_{k >= 1} e^(-k w / T), the product
    prod_k (1 + x^2 / k^2) = sinh(pi x) / (pi x), c_j the filter's term
    weights over (0, d_1..d_n, 1) and a = t |d_j - d_k|:
        chi = -(alpha/2) sum_{j,k} c_j c_k f(a),
        f(a) = Cin(a) + ln(sinh(pi a T) / (pi a T))
               + 2 sum_{k >= 1} Re[E_1(k/T - i a) - E_1(k/T)].
    Taken at the first doubling of digits from 30 that moves it by less
    than 1e-20, since the pair sum cancels down to chi.
    """
    dps = 30
    previous = _thermal_chi_at(deltas, alpha, temperature, t, dps)
    while dps < 2000:
        dps *= 2
        current = _thermal_chi_at(deltas, alpha, temperature, t, dps)
        if abs(current - previous) <= mpmath.mpf(10) ** -20 * abs(current):
            return float(current)
        previous = current
    raise AssertionError("thermal closed form did not settle below 2000 digits")


@functools.lru_cache(maxsize=None)
def table_chi(deltas: tuple, omegas: tuple, values: tuple, t: float) -> float:
    """Exact chi of the instants deltas on a tabulated bath at T = 0, at 40
    digits: J linear between the knots, held at values[0] below the first
    and 0 past the last (TabulatedSpectralDensity).

    With c_j the filter's term weights over (0, d_1..d_n, 1), a = t |d_j - d_k|
    and J = p + q w on each segment [u, v]:
        chi = -(1/4) sum_{j,k} c_j c_k sum_segments I(a),
        I(a) = p [G(v) - G(u)] + q [Cin(a v) - Cin(a u)],
        G(w) = -(1 - cos a w)/w + a Si(a w),
    since G' = (1 - cos a w)/w^2 and (d/dw) Cin(a w) = (1 - cos a w)/w.
    """
    with mpmath.workdps(40):
        n = len(deltas)
        d = [mpmath.mpf(0)] + [mpmath.mpf(x) for x in deltas] + [mpmath.mpf(1)]
        c = [1] + [2 * (-1) ** m for m in range(1, n + 1)] + [(-1) ** (n + 1)]
        om = [mpmath.mpf(x) for x in omegas]
        jv = [mpmath.mpf(x) for x in values]
        # (u, v, p, q) per segment, the held first value included
        segments = [(mpmath.mpf(0), om[0], jv[0], 0)] if om[0] > 0 else []
        for i in range(len(om) - 1):
            q = (jv[i + 1] - jv[i]) / (om[i + 1] - om[i])
            segments.append((om[i], om[i + 1], jv[i] - q * om[i], q))

        def g(a, w):
            return -(1 - mpmath.cos(a * w)) / w + a * mpmath.si(a * w) if w else 0

        def cin(x):
            return mpmath.euler + mpmath.log(x) - mpmath.ci(x) if x else 0

        pairs = mpmath.mpf(0)
        for j in range(n + 2):
            for k in range(j + 1, n + 2):
                a = t * (d[k] - d[j])
                knots = {w: (g(a, w), cin(a * w)) for seg in segments for w in seg[:2]}
                pairs += c[j] * c[k] * mpmath.fsum(
                    p * (knots[v][0] - knots[u][0]) + q * (knots[v][1] - knots[u][1])
                    for u, v, p, q in segments)
        return float(-pairs / 2)


# grid shared by the path-equality and quadrature-consistency checks
STANDARD_GRID = [
    (build, n, alpha, temp, t)
    for n in (0, 2, 10, 50)
    for build in (ddlab.udd, ddlab.equidistant)
    for alpha in (0.001, 0.25)
    for temp in (0.0, 0.1)
    for t in (1e-2, 1.0, 30.0, 1e3)
]
