"""Independent reference values the benchmark checks ddlab's outputs against.

Nothing here calls ddlab.  The filter sums are written out again with
plain numpy, so an oracle and the program share no code path.

* T = 0 ohmic bath with a hard cutoff (J = 2 alpha w for w <= wc): the
  frequency integrals have the closed forms

      chi_n(t) = -(alpha/2) sum_{j,k} c_j c_k Cin(wc t |d_j - d_k|)
      phi_n(t) =  alpha     sum_j     e_j     Si(wc t g_j)

  with Cin(x) = int_0^x (1 - cos u)/u du.  `ClosedForm` evaluates them
  in double precision with scipy.special.sici and returns an absolute
  floor at the sum's own cancellation level; `closed_form_mp` evaluates
  them with mpmath at 30 digits for small samples.
* Any other bath: `chi_quad` integrates the decay exponent with
  scipy.integrate.quad, with every kink of the weight as a breakpoint.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

EPS = float(np.finfo(float).eps)
# relative agreement demanded of chi and phi; ddlab integrates to 1e-10
REL_TOL = 1e-8
# below this argument Cin is summed from its series, where gamma + ln x - Ci
# would cancel
_CIN_SERIES = 1e-2


def y_terms(deltas):
    """Weights c_j and instants d_j with y_n(z) = sum_j c_j exp(i z d_j)."""
    d = np.concatenate([[0.0], np.asarray(deltas, dtype=float), [1.0]])
    n = len(d) - 2
    c = np.empty(n + 2)
    c[0] = 1.0
    c[1:n + 1] = 2.0 * (-1.0) ** np.arange(1, n + 1)
    c[n + 1] = (-1.0) ** (n + 1)
    return c, d


def x_terms(deltas):
    """Signs e_j and instants g_j with x_n(z) = sum_j e_j sin(z g_j)."""
    g = np.concatenate([np.asarray(deltas, dtype=float), [1.0]])
    n = len(g) - 1
    e = np.empty(n + 1)
    e[:n] = (-1.0) ** (np.arange(1, n + 1) + 1)
    e[n] = (-1.0) ** n
    return e, g


def _cin(x: np.ndarray) -> np.ndarray:
    from scipy.special import sici

    out = np.empty_like(x)
    small = x < _CIN_SERIES
    x2 = x[small] ** 2
    out[small] = x2 / 4.0 - x2 * x2 / 96.0 + x2 ** 3 / 4320.0
    big = x[~small]
    out[~small] = np.euler_gamma + np.log(big) - sici(big)[1]
    return out


class ClosedForm:
    """Closed-form chi and phi of one sequence on the T = 0 ohmic bath."""

    def __init__(self, deltas, alpha: float, cutoff: float = 1.0):
        self.alpha = alpha
        self.cutoff = cutoff
        c, d = y_terms(deltas)
        upper = np.triu_indices(len(d), 1)
        self._gaps = np.abs(d[:, None] - d[None, :])[upper]
        self._pair_c = (c[:, None] * c[None, :])[upper]
        self._e, self._g = x_terms(deltas)

    def chi(self, t: float):
        """(chi, absolute floor) at time t."""
        from scipy.special import sici

        x = self.cutoff * t * self._gaps
        cin = _cin(x)
        terms = self._pair_c * cin
        # each Cin carries ~eps (|gamma + ln x| + |Ci|) of rounding; the
        # floor is 32x their root-sum-square.  Equal gaps (equidistant
        # sequences) add coherently: up to 8x that sum was seen against ddlab.
        big = x >= _CIN_SERIES
        size = np.abs(cin)
        size[big] += 2.0 * np.abs(np.euler_gamma + np.log(x[big])) + np.abs(sici(x[big])[1])
        floor = 32.0 * EPS * self.alpha * float(np.linalg.norm(self._pair_c * size))
        return -self.alpha * float(np.sum(terms)), floor

    def phi(self, t: float):
        """(phi, absolute floor) at time t."""
        from scipy.special import sici

        si = sici(self.cutoff * t * self._g)[0]
        floor = 8.0 * EPS * self.alpha * float(np.sum(np.abs(si)))
        return self.alpha * float(np.dot(self._e, si)), floor

    def check_signal(self, t: float, phi=None, chi=None, s=None, saturated=False):
        """Compare any of phi, chi and s = cos(2 phi) exp(-2 chi) at t.

        Returns an error message, or None when every given value agrees.
        """
        chi_ref, chi_floor = self.chi(t)
        phi_ref, phi_floor = self.phi(t)
        chi_tol = REL_TOL * abs(chi_ref) + chi_floor
        phi_tol = REL_TOL * abs(phi_ref) + phi_floor
        if chi is not None:
            if saturated:
                if chi_ref < chi - chi_tol:
                    return f"t={t!r}: saturated chi={chi!r} but closed form {chi_ref!r}"
            elif abs(chi - chi_ref) > chi_tol:
                return f"t={t!r}: chi={chi!r}, closed form {chi_ref!r} +- {chi_tol:.2e}"
        if phi is not None and abs(phi - phi_ref) > phi_tol:
            return f"t={t!r}: phi={phi!r}, closed form {phi_ref!r} +- {phi_tol:.2e}"
        if s is not None and not saturated:
            s_ref = math.cos(2.0 * phi_ref) * math.exp(-2.0 * chi_ref)
            s_tol = 2.0 * chi_tol + 2.0 * phi_tol + 4.0 * EPS
            if abs(s - s_ref) > s_tol:
                return f"t={t!r}: s={s!r}, closed form {s_ref!r} +- {s_tol:.2e}"
        return None

    def envelope_error(self, t: float):
        """(1 - exp(-2 chi), absolute uncertainty) at t."""
        chi_ref, floor = self.chi(t)
        tol = REL_TOL * abs(chi_ref) + floor
        return -math.expm1(-2.0 * chi_ref), 2.0 * tol


def closed_form_mp(numerators, denominator: int, alpha: float, t: float,
                   cutoff: float = 1.0, dps: int = 30):
    """(chi, phi) of the closed forms with mpmath at `dps` digits.

    The instants are the exact rationals numerators[j] / denominator, so
    pairs with equal gaps share one Cin evaluation (equidistant(1000) needs
    1001 instead of half a million).
    """
    import mpmath

    nums = [0, *numerators, denominator]
    n = len(nums) - 2
    c = [1] + [2 * (-1) ** m for m in range(1, n + 1)] + [(-1) ** (n + 1)]
    by_gap: dict = {}
    for j in range(n + 2):
        cj, dj = c[j], nums[j]
        for k in range(j + 1, n + 2):
            gap = nums[k] - dj
            by_gap[gap] = by_gap.get(gap, 0) + cj * c[k]
    with mpmath.workdps(dps):
        x = mpmath.mpf(cutoff) * mpmath.mpf(t) / denominator
        chi = mpmath.fsum(w * (mpmath.euler + mpmath.log(x * g) - mpmath.ci(x * g))
                          for g, w in by_gap.items() if w)
        signs = [(-1) ** (m + 1) for m in range(1, n + 1)] + [(-1) ** n]
        phi = mpmath.fsum(e * mpmath.si(x * g) for e, g in zip(signs, nums[1:]))
        return float(-alpha * chi), float(alpha * phi)


def exact_instants(deltas, bits: int = 80):
    """(numerators, denominator) holding each double in deltas exactly."""
    from fractions import Fraction

    den = 1 << bits
    nums = []
    for d in deltas:
        q = Fraction(float(d)) * den
        if q.denominator != 1:
            raise ValueError(f"{d!r} needs more than {bits} fraction bits")
        nums.append(int(q))
    return nums, den


def chi_quad(deltas, weight, t: float, cutoff: float, breakpoints=()):
    """chi_n(t) = int_0^wc weight(w) |y_n(w t)|^2 / (4 w^2) dw by scipy quad.

    Returns (value, absolute error estimate).
    """
    from scipy.integrate import IntegrationWarning, quad

    c, d = y_terms(deltas)

    def f(w):
        y = np.dot(c, np.exp(1j * (w * t) * d))
        return weight(w) * (y.real * y.real + y.imag * y.imag) / (4.0 * w * w)

    points = [p for p in breakpoints if 0.0 < p < cutoff]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        val, err = quad(f, 0.0, cutoff, points=points or None,
                        limit=20 * (len(points) + 50), epsabs=0.0, epsrel=1e-11)
    return val, err


def straddles(error_at, lo: float, hi: float, epsilon: float):
    """None if the storage error is below epsilon at lo and reaches it at hi.

    error_at(t) returns (error, absolute uncertainty of that error).
    """
    e_lo, u_lo = error_at(lo)
    e_hi, u_hi = error_at(hi)
    slack = 1e-9 * epsilon
    if e_lo - u_lo - slack >= epsilon:
        return f"error {e_lo!r} at bracket low end {lo!r} already >= epsilon {epsilon!r}"
    if e_hi + u_hi + slack < epsilon:
        return f"error {e_hi!r} at bracket high end {hi!r} still < epsilon {epsilon!r}"
    return None


def quad_error_at(deltas, weight, cutoff: float, breakpoints=()):
    """error_at(t) for `straddles`, backed by `chi_quad`."""
    def error_at(t):
        val, err = chi_quad(deltas, weight, t, cutoff, breakpoints)
        return -math.expm1(-2.0 * val), 2.0 * err
    return error_at


def mc_z(mean: float, stderr: float, chi: float) -> float:
    """|z| of a Monte Carlo mean against exp(-2 chi)."""
    return abs(mean - math.exp(-2.0 * chi)) / stderr
