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

How the contract is served: np.random.default_rng(seed_k) would hash
seed_k through SeedSequence in Python and seed a fresh PCG64 per
trajectory.  mc_signal instead computes all trajectory seeds with uint64
arithmetic and their SeedSequence(seed_k).generate_state(4, uint64) words
in one batch with uint32 arithmetic (O'Neill's seed_seq_fe: hashmix and mix
over a pool of 4 words).  Each call then builds one PCG64 and one Generator,
sets the PCG64 state from each trajectory's words as PCG64's own seeding
does, and draws that trajectory's normals into a reused buffer.  synthesize
sets the state the same way from SeedSequence's words for its one seed.
The draws are numpy's default generator's, bit for bit: numpy's
stream-compatibility policy (NEP 19) fixes SeedSequence's hash and PCG64's
seeding.  Nothing is shared between calls, so mc_signal stays thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import ClassicalBath
from .sequences import PulseSequence

__all__ = ["Trajectory", "McEstimate", "trajectory_seed", "synthesize",
           "toggled_phase", "mc_signal"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence's hash constants and pool size, and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _mix64(z):
    """splitmix64's finalizer, on a Python int or elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trajectory_seed(base_seed: int, index: int) -> int:
    """The declared 64-bit per-trajectory seed: output index of a splitmix64
    stream with state base_seed."""
    return _mix64((int(base_seed) + (int(index) + 1) * _GOLDEN) & _MASK64)


def _hash_constants(init: int, mult: int):
    # SeedSequence's running hash constant h: each hash step xors the value
    # with h, advances h to h * mult and multiplies the value by the new h
    while True:
        nxt = (init * mult) & _MASK32
        yield init, nxt
        init = nxt


def _trajectory_words(base_seed: int, samples: int) -> np.ndarray:
    """SeedSequence(trajectory_seed(base_seed, k)).generate_state(4, np.uint64)
    for k < samples, one row of 4 uint64 words each.

    The base seed is reduced mod 2^64 first, as trajectory_seed does.  Each
    64-bit seed enters SeedSequence as its two little-endian 32-bit words; a
    seed below 2^32 is one word, which the pool pads with zeros, so the high
    word 0 gives the same hash.  All hash arithmetic is on uint32 arrays,
    which wrap silently.
    """
    steps = np.arange(1, samples + 1, dtype=np.uint64) * _GOLDEN
    seeds = _mix64(steps + (int(base_seed) & _MASK64))
    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ (value >> 16)

    zero = np.zeros(samples, dtype=np.uint32)
    entropy = ((seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    out = []
    for i, (xor, mult) in zip(range(8), _hash_constants(_INIT_B, _MULT_B)):
        value = (pool[i % _POOL_SIZE] ^ xor) * mult
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([out[2 * j] | (out[2 * j + 1] << 32) for j in range(4)], axis=1)


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


def _draw_amplitudes(gen: np.random.Generator, words, sigmas: np.ndarray,
                     buf: np.ndarray):
    """One trajectory's cosine and sine amplitudes, as np.random.default_rng
    would draw them from the seed whose generate_state(4, uint64) words are
    `words`.

    gen's PCG64 is set to the state its seeding derives from the words:
    inc = (w2:w3 << 1) | 1 and state = step(step(0) + w0:w1), with step the
    128-bit LCG.  buf (2 * len(sigmas) floats) takes all normals in one call,
    which is the same stream as a cosine call followed by a sine call.
    """
    w0, w1, w2, w3 = words.tolist()
    inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    gen.standard_normal(out=buf)
    m = len(sigmas)
    return sigmas * buf[:m], sigmas * buf[m:]


def _generator() -> np.random.Generator:
    # the state is overwritten before every draw; the seed only avoids
    # asking the OS for entropy
    return np.random.Generator(np.random.PCG64(0))


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
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    amp_cos, amp_sin = _draw_amplitudes(_generator(), words, sigmas,
                                        np.empty(2 * mode_count))
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
    gen, buf = _generator(), np.empty(2 * mode_count)
    phases = np.empty(samples)
    for k, row in enumerate(_trajectory_words(seed, samples)):
        ac, asn = _draw_amplitudes(gen, row, sigmas, buf)
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
