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
uint64 arithmetic, their SeedSequence(seed_k).generate_state(4, uint64)
words with uint32 arithmetic (O'Neill's seed_seq_fe: hashmix and mix over a
pool of 4 words), and the PCG64 state those words seed with 128-bit
arithmetic on pairs of uint64 words, a chunk of trajectories at a time.
Each drawing thread owns one np.random.Generator(PCG64) and, before each
trajectory, writes that trajectory's state and increment into the bit
generator's memory (found through its ctypes.state_address, in the word
order that one check per process reads off a PCG64 that numpy seeded
itself), so no Python object is built per trajectory.  The draws are those
of default_rng(seed_k) bit for bit, as numpy's stream-compatibility policy
(NEP 19) fixes SeedSequence's hash and PCG64's seeding.  A trajectory's
phase is its row of normals dotted with the sigma-scaled responses
v = [sigma u_cos, sigma u_sin], formed once per call.  The normals of _BLOCK
trajectories fill one reused block, which is reduced against v in one
np.einsum("ij,j->i"): that sums each row on its own and calls no BLAS, so a
phase does not depend on the other rows of its block, on how many rows the
last block has, or on the BLAS thread count.  The mode responses are einsum
sums as well.  The phase being Gaussian with variance |v|^2, the
discretized model's exact mean exp(-|v|^2 / 2) comes with the estimate.

Worker split: the trajectories are cut into one contiguous run of whole
blocks per worker, as many workers as the process may use CPUs (at most
_MAX_WORKERS, at most one per block).  The calling thread draws the first
run and plain threads the others; numpy's normals release the GIL, so the
runs draw at once.  Each run hashes its own seed words into states, draws
from its own generator into its own block and writes its own slice of the
phases, so the phases are those of one thread, bit for bit, whatever the
CPU count.  Blocks and generators are built by the calling thread.  An
error or interrupt in any run stops every run at its next block, and the
caller joins every thread before it raises the first error.  Nothing is
shared between calls, so mc_signal stays thread-safe.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bath import ClassicalBath, _checked_spectrum
from .sequences import PulseSequence

__all__ = ["McEstimate", "trajectory_seed", "check_mc_settings", "mc_signal"]

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
# ceilings on mc_signal's work, checked before any response or draw.  Memory
# is about 16 B per trajectory (the phases, whose cosines are taken in place,
# and np.std's temporary) plus one block of _BLOCK x 2 mode_count doubles per
# drawing thread, and time is about 14.3 us per trajectory per core at 512
# modes, rising in step with the mode count.  10^7 samples then hold about
# 160 MB and take about 145 s per core at 512 modes; 2^14 modes take 16.8 MB
# of block per thread (134 MB at _MAX_WORKERS threads) and about 0.5 ms per
# trajectory per core.  At 2^20 steps of the toggled-phase grid, ceil(t / dt),
# the mode responses peak at about 50 MB (the grid, the layout's instants and
# weights and their pieces) and take about 10 ns per mode and step: 5 s at
# the default 256 modes, 11 s at 512 and about 6 min at 2^14.
_MAX_SAMPLES = 10**7
_MAX_MODE_COUNT = 1 << 14
_MAX_STEPS = 1 << 20
# threads that draw at once: about 1.1 us of a trajectory's 14.3 us (512
# modes) holds the GIL, so beyond about 13 threads they queue for it
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
    """Sample mean of cos(phase) with its standard error, and the exact mean
    of the discretized model that the samples are drawn from."""

    mean: float
    stderr: float
    samples: int
    seed: int
    # exp(-|v|^2 / 2), v the sigma-scaled mode responses: the toggled phase
    # is Gaussian with variance |v|^2
    model_mean: float


def _mode_bins(bath: ClassicalBath, mode_count: int):
    dw = bath.omega_max / mode_count
    omegas = (np.arange(mode_count) + 0.5) * dw
    return omegas, np.sqrt(_checked_spectrum(bath, omegas) * dw / math.pi)


# PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128 of numpy's pcg64.h)
# as its high and low words, and the masks and shifts of the 128-bit
# arithmetic, all np.uint64 so that no Python int meets a uint64 array
# (numpy < 2 promotes such a mix by value)
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(_MASK32)
_ONE, _THIRTY_TWO, _SIXTY_THREE = np.uint64(1), np.uint64(32), np.uint64(63)

# where PCG64's state words lie in memory: the order of (state low, state
# high, inc low, inc high) in numpy's pcg64.h, low word first with native
# 128-bit integers on a little-endian machine, high word first with the
# emulated {high, low} struct and on a big-endian machine
_LAYOUTS = ((0, 1, 2, 3), (1, 0, 3, 2))


def _state_view(bit_generator) -> np.ndarray:
    """A writable uint64[4] view of a PCG64's 128-bit state and increment.

    ctypes.state_address is the address of numpy's pcg64_state struct, whose
    first member points to them.  Both addresses must lie inside the bit
    generator object, where numpy keeps both structs; RuntimeError if not.
    """
    start = id(bit_generator)
    end = start + type(bit_generator).__basicsize__
    struct = bit_generator.ctypes.state_address
    address = ctypes.c_void_p.from_address(struct).value if start <= struct <= end - 8 else None
    if address is None or not start <= address <= end - 32:
        raise RuntimeError("PCG64's state does not lie inside the bit generator object")
    memory = (ctypes.c_uint64 * 4).from_address(address)
    memory.owner = bit_generator  # the view keeps the memory it shows alive
    return np.ctypeslib.as_array(memory)


def _layout_of(image, state: int, inc: int) -> tuple:
    """The one of _LAYOUTS in which the memory words `image` hold the 128-bit
    state and inc; RuntimeError for any other layout."""
    parts = (state & _MASK64, state >> 64, inc & _MASK64, inc >> 64)
    for layout in _LAYOUTS:
        if [parts[j] for j in layout] == [int(word) for word in image]:
            return layout
    raise RuntimeError(f"unknown PCG64 state layout {[hex(int(w)) for w in image]}")


@functools.cache
def _word_order() -> tuple:
    """The layout of PCG64's state words in this process, read once from a
    PCG64 that numpy has seeded itself (from a seed whose four state words
    all differ)."""
    bit_generator = np.random.PCG64(np.random.SeedSequence(_GOLDEN))
    state = bit_generator.state["state"]
    return _layout_of(_state_view(bit_generator), state["state"], state["inc"])


def _trajectory_states(words: np.ndarray) -> np.ndarray:
    """PCG64's seeded state for each row (w0, w1, w2, w3) of
    _trajectory_words, as numpy's pcg64_set_seed computes it: with
    s = w0||w1 and inc = (w2||w3) << 1 | 1 (high word first),
    state = (s + inc) M + inc mod 2^128.  Each row holds the state and inc in
    the memory order of _word_order(), ready to be written into a view from
    _generator()."""
    w0, w1, w2, w3 = words.T
    inc_lo = (w3 << _ONE) | _ONE
    inc_hi = (w2 << _ONE) | (w3 >> _SIXTY_THREE)
    lo = w1 + inc_lo
    hi = w0 + inc_hi + (lo < inc_lo)
    # (hi, lo) M mod 2^128: the high word takes the carry of lo x M_lo,
    # summed from its 32-bit partial products
    a0, a1 = lo & _LOW32, lo >> _THIRTY_TWO
    m0, m1 = _MULT_LO & _LOW32, _MULT_LO >> _THIRTY_TWO
    p00, p01, p10, p11 = a0 * m0, a0 * m1, a1 * m0, a1 * m1
    mid = (p00 >> _THIRTY_TWO) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = p11 + (p01 >> _THIRTY_TWO) + (p10 >> _THIRTY_TWO) + (mid >> _THIRTY_TWO)
    hi = carry + lo * _MULT_HI + hi * _MULT_LO
    lo = lo * _MULT_LO + inc_lo
    parts = (lo, hi + inc_hi + (lo < inc_lo), inc_lo, inc_hi)
    return np.stack([parts[j] for j in _word_order()], axis=1)


def _generator():
    """A Generator over PCG64 and the view of its state words, into which
    _draw_amplitudes writes each trajectory's row of _trajectory_states."""
    gen = np.random.Generator(np.random.PCG64(0))
    return gen, _state_view(gen.bit_generator)


def _draw_amplitudes(gen, state: np.ndarray, row_state: np.ndarray, out: np.ndarray) -> None:
    """Fill out with one trajectory's standard normals, the len(out) // 2 of
    its cosine amplitudes, then those of its sine amplitudes (one stream), as
    np.random.default_rng draws them: row_state, the trajectory's row of
    _trajectory_states, is written into `state`, the state view of gen (both
    from _generator()), and gen draws."""
    state[:] = row_state
    gen.standard_normal(out=out)


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


def _scaled_responses(bath: ClassicalBath, seq: PulseSequence, t: float, dt: float,
                      mode_count: int) -> np.ndarray:
    """v = [sigma u_cos, sigma u_sin]: a trajectory's toggled phase is its
    row of standard normals dotted with v, on a grid of ceil(t / dt) steps."""
    n_steps = max(1, math.ceil(t / dt))
    grid = np.linspace(0.0, t, n_steps + 1)
    omegas, sigmas = _mode_bins(bath, mode_count)
    instants, weights = _segment_layout(seq, t, grid)
    return np.concatenate([sigmas * u for u in _mode_responses(omegas, instants, t * weights)])


def _batched_phases(v: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Toggled phases of `samples` independent trajectories with the scaled
    responses v: in each worker's run of whole blocks, per chunk of seeded
    states, blocks of _BLOCK rows filled by _draw_amplitudes from the run's
    one generator and reduced against v in one einsum."""
    phases = np.empty(samples)
    n_blocks = -(-samples // _BLOCK)
    workers = min(_workers(), n_blocks)
    edges = [min(samples, n_blocks * i // workers * _BLOCK) for i in range(workers + 1)]
    chunk = max(1, _SEED_CHUNK // workers)
    stop = threading.Event()
    errors = []

    def run(lo: int, hi: int, block: np.ndarray, gen, state: np.ndarray) -> None:
        try:
            for start in range(lo, hi, chunk):
                states = _trajectory_states(_trajectory_words(seed, start, min(start + chunk, hi)))
                for k in range(0, len(states), _BLOCK):
                    if stop.is_set():
                        return
                    rows = block[:len(states) - k]
                    for row, row_state in zip(rows, states[k:k + _BLOCK]):
                        _draw_amplitudes(gen, state, row_state, row)
                    phases[start + k:start + k + len(rows)] = np.einsum("ij,j->i", rows, v)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    # blocks and generators come from the calling thread, which also checks
    # the state layout before any helper needs it
    _word_order()
    runs = [(lo, hi, np.empty((_BLOCK, len(v))), *_generator())
            for lo, hi in zip(edges, edges[1:])]
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


def check_mc_settings(bath: ClassicalBath, t: float, samples: int, seed: int, dt: float,
                      mode_count: int) -> tuple:
    """(samples, seed, mode_count) as Python ints; ValueError unless every
    setting of mc_signal lies within its floors and its work ceilings
    (samples <= 10^7, mode_count <= 2^14, t / dt <= 2^20).  mc_signal
    checks them so; a caller can check them before other work of its own."""
    samples = _integer("samples", samples)
    seed = _integer("seed", seed)
    mode_count = _integer("mode_count", mode_count)
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be <= {_MAX_SAMPLES}, got {samples}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not t / dt <= _MAX_STEPS:
        raise ValueError(f"t / dt must be finite and <= {_MAX_STEPS}, got t = {t:g}, dt = {dt:g}")
    if mode_count < 8:
        raise ValueError(f"mode_count must be >= 8, got {mode_count}")
    if mode_count > _MAX_MODE_COUNT:
        raise ValueError(f"mode_count must be <= {_MAX_MODE_COUNT}, got {mode_count}")
    dt_max = math.pi / (4.0 * bath.omega_max)
    if dt > dt_max:
        raise ValueError(
            f"dt = {dt:g} aliases the spectrum: need dt <= pi/(4 omega_max) = {dt_max:g}")
    return samples, seed, mode_count


def mc_signal(bath: ClassicalBath, seq: PulseSequence, t: float, samples: int,
              seed: int, dt: float, mode_count: int) -> McEstimate:
    """Estimate the signal as mean cos(phase) over independent trajectories.

    Deterministic for a given seed: trajectory k is seeded with
    trajectory_seed(seed, k).  samples, seed and mode_count must be
    integers (Python or numpy); the estimate holds them as Python ints.
    The settings are checked by check_mc_settings before any work.
    """
    samples, seed, mode_count = check_mc_settings(bath, t, samples, seed, dt, mode_count)
    v = _scaled_responses(bath, seq, t, dt, mode_count)
    cosines = _batched_phases(v, samples, seed)
    np.cos(cosines, out=cosines)
    mean = float(np.mean(cosines))
    stderr = float(np.std(cosines, ddof=1) / math.sqrt(samples))
    model_mean = math.exp(-float(np.einsum("i,i->", v, v)) / 2.0)
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed,
                      model_mean=model_mean)
