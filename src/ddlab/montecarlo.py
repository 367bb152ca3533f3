"""Monte Carlo cross-check of the classical-noise signal.

Stationary Gaussian noise with one-sided power spectrum p is synthesized
as a sum of random-amplitude cosines over mode_count equal frequency bins
(midpoint frequencies w_k, variances p(w_k) dw / pi), which reproduces the
autocovariance g(tau) = (1/pi) int_0^inf p(w) cos(w tau) dw as the mode
count grows.  The toggled phase integral int_0^t f(t') c(t') dt' uses the
trapezoid rule with grid points inserted exactly at the pulse instants,
and the estimated signal is the sample mean of cos(phase).

The toggled phase is linear in the mode amplitudes a_k, b_k: it equals
sum_k a_k u_cos[k] + b_k u_sin[k], where u_cos[k] is the toggled integral of
cos(w_k t') (u_sin of sin).  mc_signal integrates each mode's response once
and takes one dot product per trajectory; synthesize / Trajectory /
toggled_phase are the grid-sampled reference path the tests compare it to.

Seed splitting: trajectory k draws from numpy's default generator seeded
with the k-th output of a splitmix64 stream whose state is the base seed,
i.e. seed_k = mix64(base_seed + (k+1) * 0x9E3779B97F4A7C15) with the
splitmix64 finalizer mix64.  Each trajectory draws its cosine amplitudes
first, then its sine amplitudes.  This mapping is part of the module
contract and must not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import ClassicalBath
from .sequences import PulseSequence

__all__ = ["Trajectory", "McEstimate", "trajectory_seed", "synthesize",
           "toggled_phase", "mc_signal"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trajectory_seed(base_seed: int, index: int) -> int:
    """The declared 64-bit per-trajectory seed: output index of a splitmix64
    stream with state base_seed."""
    return _mix64((int(base_seed) + (int(index) + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class Trajectory:
    """One noise realization: grid samples plus the generating modes.

    The mode data (omegas, amp_cos, amp_sin) allows exact evaluation at
    arbitrary instants; toggled_phase evaluates every instant, grid points
    and pulse breakpoints alike, from the modes.
    """

    times: np.ndarray
    values: np.ndarray
    seed: int
    mode_count: int
    omegas: np.ndarray
    amp_cos: np.ndarray
    amp_sin: np.ndarray

    def value_at(self, t):
        """Evaluate f(t) from the modes; t may be a scalar or array."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.cos(np.outer(ts, self.omegas)) @ self.amp_cos
        out += np.sin(np.outer(ts, self.omegas)) @ self.amp_sin
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of cos(phase) with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _mode_bins(bath: ClassicalBath, mode_count: int):
    dw = bath.omega_max / mode_count
    omegas = (np.arange(mode_count) + 0.5) * dw
    sigmas = np.sqrt(np.asarray(bath.power_spectrum(omegas), dtype=float) * dw / math.pi)
    return omegas, sigmas


def _check_sampling(bath: ClassicalBath, dt: float, mode_count: int):
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if mode_count < 8:
        raise ValueError(f"mode_count must be >= 8, got {mode_count}")
    dt_max = math.pi / (4.0 * bath.omega_max)
    if dt > dt_max:
        raise ValueError(
            f"dt = {dt:g} aliases the spectrum: need dt <= pi/(4 omega_max) = {dt_max:g}")


def _draw_amplitudes(seed: int, sigmas: np.ndarray):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(len(sigmas))
    b = rng.standard_normal(len(sigmas))
    return sigmas * a, sigmas * b


def synthesize(bath: ClassicalBath, t_max: float, dt: float, mode_count: int,
               seed: int) -> Trajectory:
    """Draw one Gaussian trajectory on a uniform grid covering [0, t_max].

    dt is shrunk (never widened) so the grid lands exactly on t_max.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    _check_sampling(bath, dt, mode_count)
    n_steps = max(1, math.ceil(t_max / dt))
    times = np.linspace(0.0, t_max, n_steps + 1)
    omegas, sigmas = _mode_bins(bath, mode_count)
    amp_cos, amp_sin = _draw_amplitudes(seed, sigmas)
    values = np.cos(np.outer(times, omegas)) @ amp_cos
    values += np.sin(np.outer(times, omegas)) @ amp_sin
    for arr in (times, values, omegas, amp_cos, amp_sin):
        arr.setflags(write=False)
    return Trajectory(times=times, values=values, seed=int(seed),
                      mode_count=mode_count, omegas=omegas,
                      amp_cos=amp_cos, amp_sin=amp_sin)


def _segment_layout(seq: PulseSequence, t: float, grid_times: np.ndarray):
    """Evaluation instants and signed trapezoid weights for the toggled integral.

    Weights are built in normalized time u = t'/t so the pulse boundaries
    enter with their exact delta values; the result is the weight vector w
    with  integral = t * sum_j w_j f(instants_j).
    """
    bounds_u = (0.0, *seq.deltas, 1.0)
    instants = []
    weights = []
    for i in range(len(bounds_u) - 1):
        sign = 1.0 if i % 2 == 0 else -1.0
        u_lo, u_hi = bounds_u[i], bounds_u[i + 1]
        t_lo, t_hi = u_lo * t, u_hi * t
        j0 = np.searchsorted(grid_times, t_lo, side="right")
        j1 = np.searchsorted(grid_times, t_hi, side="left")
        us = np.concatenate([[u_lo], grid_times[j0:j1] / t, [u_hi]])
        w = np.empty(len(us))
        w[0] = 0.5 * (us[1] - us[0])
        w[-1] = 0.5 * (us[-1] - us[-2])
        w[1:-1] = 0.5 * (us[2:] - us[:-2])
        ts_seg = np.concatenate([[t_lo], grid_times[j0:j1], [t_hi]])
        instants.append(ts_seg)
        weights.append(sign * w)
    return np.concatenate(instants), np.concatenate(weights)


def toggled_phase(traj: Trajectory, seq: PulseSequence, t: float) -> float:
    """Phase int_0^t f(t') c(t') dt' accumulated with the sign history c.

    Grid points are inserted exactly at each pulse instant delta_j * t, so
    the sign flips carry no O(dt) bias; segment sums are compensated.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if t > traj.times[-1] * (1.0 + 1e-12):
        raise ValueError(f"t = {t:g} beyond the trajectory span {traj.times[-1]:g}")
    instants, weights = _segment_layout(seq, t, traj.times)
    return t * math.fsum(weights * traj.value_at(instants))


def _batched_phases(bath: ClassicalBath, seq: PulseSequence, t: float,
                    samples: int, seed: int, dt: float, mode_count: int) -> np.ndarray:
    """Toggled phases of `samples` independent trajectories: each mode's
    toggled response once, then one dot product per trajectory."""
    _check_sampling(bath, dt, mode_count)
    n_steps = max(1, math.ceil(t / dt))
    grid = np.linspace(0.0, t, n_steps + 1)
    omegas, sigmas = _mode_bins(bath, mode_count)
    instants, weights = _segment_layout(seq, t, grid)
    wcol = t * weights
    u_cos = np.cos(np.outer(omegas, instants)) @ wcol
    u_sin = np.sin(np.outer(omegas, instants)) @ wcol
    phases = np.empty(samples)
    for k in range(samples):
        ac, asn = _draw_amplitudes(trajectory_seed(seed, k), sigmas)
        phases[k] = ac @ u_cos + asn @ u_sin
    return phases


def mc_signal(bath: ClassicalBath, seq: PulseSequence, t: float, samples: int,
              seed: int, dt: float, mode_count: int) -> McEstimate:
    """Estimate the signal as mean cos(phase) over independent trajectories.

    Deterministic for a given seed: trajectory k is seeded with
    trajectory_seed(seed, k) and matches synthesize() with that seed.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    phases = _batched_phases(bath, seq, t, samples, seed, dt, mode_count)
    cosines = np.cos(phases)
    mean = float(np.mean(cosines))
    stderr = float(np.std(cosines, ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=int(seed))
