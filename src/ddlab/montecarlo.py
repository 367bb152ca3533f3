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
per call, over chunks of instants so that memory stays bounded for long t.

Seed splitting: trajectory k draws from numpy's default generator seeded
with the k-th output of a splitmix64 stream whose state is the base seed,
i.e. seed_k = mix64(base_seed + (k+1) * 0x9E3779B97F4A7C15) with the
splitmix64 finalizer mix64.  Each trajectory draws its cosine amplitudes
first, then its sine amplitudes.  This mapping is part of the module
contract and must not change.

How the contract is served: mc_signal computes the trajectory seeds with
uint64 arithmetic and their SeedSequence(seed_k).generate_state(4, uint64)
words with uint32 arithmetic (O'Neill's seed_seq_fe: hashmix and mix over a
pool of 4 words), a chunk of trajectories at a time.  Each trajectory draws
from np.random.Generator(PCG64(s)), with s an ISeedSequence whose
generate_state returns those words: the draws of default_rng(seed_k) bit for
bit, as numpy's stream-compatibility policy (NEP 19) fixes SeedSequence's
hash and PCG64's seeding.  A trajectory's phase is its row of normals dotted
with the sigma-scaled responses v = [sigma u_cos, sigma u_sin], formed once
per call.  The normals of _BLOCK trajectories fill one reused block, which
is reduced against v in one np.einsum("ij,j->i"): that sums each row on its
own and calls no BLAS, so a phase does not depend on the other rows of its
block, on how many rows the last block has, or on the BLAS thread count.
The mode responses are einsum sums as well.

Worker split: the trajectories are cut into one contiguous run of whole
blocks per worker, as many workers as the process may use CPUs (at most
_MAX_WORKERS, at most one per block).  The calling thread draws the first
run and plain threads the others; numpy's normals release the GIL, so the
runs draw at once.  Each run hashes its own seed words, fills its own block
and writes its own slice of the phases, so the phases are those of one
thread, bit for bit, whatever the CPU count.  An error or interrupt in any
run stops every run at its next block, and the caller joins every thread
before it raises the first error.  Nothing is shared between calls, so
mc_signal stays thread-safe.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bath import ClassicalBath, _checked_spectrum
from .sequences import PulseSequence

__all__ = ["McEstimate", "trajectory_seed", "mc_signal"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# trajectories per block: 64 x 1024 doubles (512 KB) at 512 modes
_BLOCK = 64
# elements of one chunk of the (mode x instant) phase matrix
_RESPONSE_CHUNK = 1 << 20
# trajectories per chunk of seed words, shared among the workers: about
# 1.4 MB of hash temporaries in flight whatever the worker count
_SEED_CHUNK = 1 << 13
# threads that draw at once: about 1.3 us of a trajectory's 14.7 us (512
# modes) holds the GIL, so beyond about 8 threads they queue for it
_MAX_WORKERS = 8


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


def _trajectory_words(base_seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence(trajectory_seed(base_seed, k)).generate_state(4, np.uint64)
    for start <= k < stop, as the rows of a C-contiguous array.

    The base seed is reduced mod 2^64 first, as trajectory_seed does.  Each
    64-bit seed enters SeedSequence as its two little-endian 32-bit words; a
    seed below 2^32 is one word, which the pool pads with zeros, so the high
    word 0 gives the same hash.  All hash arithmetic is on uint32 arrays,
    which wrap silently.
    """
    steps = np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN
    seeds = _mix64(steps + (int(base_seed) & _MASK64))
    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ (value >> 16)

    zero = np.zeros(stop - start, dtype=np.uint32)
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
class McEstimate:
    """Sample mean of cos(phase) with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _mode_bins(bath: ClassicalBath, mode_count: int):
    dw = bath.omega_max / mode_count
    omegas = (np.arange(mode_count) + 0.5) * dw
    return omegas, np.sqrt(_checked_spectrum(bath, omegas) * dw / math.pi)


@functools.cache
def _words_seed():
    """ISeedSequence whose generate_state(4, np.uint64) returns given words,
    bound on first use: numpy 2 imports numpy.random lazily.  PCG64 reads the
    words through a raw pointer, so they must be a C-contiguous uint64 array
    of 4, as a row of _trajectory_words is, and any other request is refused."""
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"cannot serve generate_state({n_words!r}, {dtype!r})")
            return self.words
    return WordsSeed


def _draw_amplitudes(words, out: np.ndarray) -> None:
    """Fill out with one trajectory's standard normals, the len(out) // 2 of
    its cosine amplitudes, then those of its sine amplitudes (one stream), as
    np.random.default_rng draws them from the seed whose
    generate_state(4, uint64) words are `words`, a row of _trajectory_words."""
    np.random.Generator(np.random.PCG64(_words_seed()(words))).standard_normal(out=out)


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


def _mode_responses(omegas: np.ndarray, instants: np.ndarray, weights: np.ndarray):
    """u_cos[k] = sum_j weights_j cos(omegas_k instants_j), and u_sin of sin.

    The (mode x instant) phase matrix is built over chunks of instants of at
    most _RESPONSE_CHUNK elements each, so memory stays bounded however long t
    is; up to _RESPONSE_CHUNK elements the sums are one chunk.
    """
    step = max(1, _RESPONSE_CHUNK // len(omegas))
    u_cos, u_sin = np.zeros(len(omegas)), np.zeros(len(omegas))
    for lo in range(0, len(instants), step):
        arg = np.outer(omegas, instants[lo:lo + step])
        w = weights[lo:lo + step]
        u_cos += np.einsum("ij,j->i", np.cos(arg), w)
        u_sin += np.einsum("ij,j->i", np.sin(arg, out=arg), w)
    return u_cos, u_sin


def _workers() -> int:
    """Threads that draw trajectories: the CPUs this process may run on, at
    most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _batched_phases(bath: ClassicalBath, seq: PulseSequence, t: float,
                    samples: int, seed: int, dt: float, mode_count: int) -> np.ndarray:
    """Toggled phases of `samples` independent trajectories: the sigma-scaled
    mode responses v once, then, in each worker's run of whole blocks, per
    chunk of seed words, blocks of _BLOCK rows filled by _draw_amplitudes and
    reduced against v in one einsum."""
    n_steps = max(1, math.ceil(t / dt))
    grid = np.linspace(0.0, t, n_steps + 1)
    omegas, sigmas = _mode_bins(bath, mode_count)
    instants, weights = _segment_layout(seq, t, grid)
    v = np.concatenate([sigmas * u for u in _mode_responses(omegas, instants, t * weights)])
    phases = np.empty(samples)
    n_blocks = -(-samples // _BLOCK)
    workers = min(_workers(), n_blocks)
    edges = [min(samples, n_blocks * i // workers * _BLOCK) for i in range(workers + 1)]
    chunk = max(1, _SEED_CHUNK // workers)
    stop = threading.Event()
    errors = []

    def run(lo: int, hi: int, block: np.ndarray) -> None:
        try:
            for start in range(lo, hi, chunk):
                words = _trajectory_words(seed, start, min(start + chunk, hi))
                for k in range(0, len(words), _BLOCK):
                    if stop.is_set():
                        return
                    rows = block[:len(words) - k]
                    for row, row_words in zip(rows, words[k:k + _BLOCK]):
                        _draw_amplitudes(row_words, row)
                    phases[start + k:start + k + len(rows)] = np.einsum("ij,j->i", rows, v)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    # blocks come from the calling thread's heap, the seed class is bound
    # before any helper needs it
    runs = [(lo, hi, np.empty((_BLOCK, 2 * mode_count))) for lo, hi in zip(edges, edges[1:])]
    _words_seed()
    helpers = [threading.Thread(target=run, args=r) for r in runs[1:]]
    try:
        for helper in helpers:
            helper.start()
        run(*runs[0])
    except BaseException as exc:  # a thread that cannot start, or an interrupt
        errors.append(exc)
        stop.set()
    for helper in helpers:
        while helper.is_alive():
            try:
                helper.join()
            except BaseException as exc:  # an interrupt while waiting
                errors.append(exc)
                stop.set()
    if errors:
        raise errors[0]
    return phases


def _integer(name: str, value) -> int:
    """value as a Python int; a bool is no integer here, as in the CLI's config."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def mc_signal(bath: ClassicalBath, seq: PulseSequence, t: float, samples: int,
              seed: int, dt: float, mode_count: int) -> McEstimate:
    """Estimate the signal as mean cos(phase) over independent trajectories.

    Deterministic for a given seed: trajectory k is seeded with
    trajectory_seed(seed, k).  samples, seed and mode_count must be
    integers (Python or numpy); the estimate holds them as Python ints.
    """
    samples = _integer("samples", samples)
    seed = _integer("seed", seed)
    mode_count = _integer("mode_count", mode_count)
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not t / dt < math.inf:
        raise ValueError(f"t / dt must be finite, got t = {t:g}, dt = {dt:g}")
    if mode_count < 8:
        raise ValueError(f"mode_count must be >= 8, got {mode_count}")
    dt_max = math.pi / (4.0 * bath.omega_max)
    if dt > dt_max:
        raise ValueError(
            f"dt = {dt:g} aliases the spectrum: need dt <= pi/(4 omega_max) = {dt_max:g}")
    phases = _batched_phases(bath, seq, t, samples, seed, dt, mode_count)
    cosines = np.cos(phases)
    mean = float(np.mean(cosines))
    stderr = float(np.std(cosines, ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
