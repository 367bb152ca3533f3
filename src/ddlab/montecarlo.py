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

Seed splitting: the trajectories come in blocks of _BLOCK = 64, and block b
draws from np.random.default_rng(np.random.SeedSequence(seed mod 2^64,
spawn_key=(b,))), the stream that SeedSequence(seed mod 2^64).spawn() hands
out b-th, row by row: each row holds its trajectory's cosine amplitudes,
then its sine amplitudes.  A shorter last block takes the first rows of its
stream.  numpy's stream-compatibility policy (NEP 19) fixes SeedSequence's
hash and PCG64's seeding, so this mapping is part of the module contract
and must not change.

How the contract is served: each block seeds one generator, about 12 us or
0.2 us per trajectory, and draws all its rows in one call into one reused
block of normals.  standard_normal fills the block in C order, row by row
from the one stream, so one call per block draws the same normals as one
call per row, and releases the GIL once per block, not once per trajectory.
A trajectory's phase is its row of normals dotted with the sigma-scaled
responses v = [sigma u_cos, sigma u_sin], formed once per call.  Each block
is reduced against v in one np.einsum("ij,j->i"): that sums each row on its
own and calls no BLAS, so a phase does not depend on the other rows of its
block, on how many rows the last block has, or on the BLAS thread count.
The mode responses are einsum sums as well.  The phase being Gaussian with
variance |v|^2, the discretized model's exact mean exp(-|v|^2 / 2) comes
with the estimate.

Worker split: the trajectories are cut into one contiguous run of whole
blocks per worker, as many workers as the process may use CPUs (at most
_MAX_WORKERS, at most one per block).  The calling thread draws the first
run and plain threads the others; numpy's normals release the GIL, so the
runs draw at once.  Each run seeds its own blocks' generators, draws into
its own block of normals and writes its own slice of the phases, so the
phases are those of one thread, bit for bit, whatever the CPU count.  An
error or interrupt in any run stops every run at its next block, and the
caller joins every thread before it raises the first error.  Nothing is
shared between calls, so mc_signal stays thread-safe.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bath import ClassicalBath, _checked_spectrum
from .sequences import PulseSequence

__all__ = ["McEstimate", "check_mc_settings", "mc_signal"]

# trajectories per block, each block one seeded stream: 64 x 1024 doubles
# (512 KB) at 512 modes
_BLOCK = 64
# elements of one chunk of the (mode x instant) phase matrix
_RESPONSE_CHUNK = 1 << 20
# ceilings on mc_signal's work, checked before any response or draw.  Memory
# is about 16 B per trajectory (the phases, whose cosines are taken in place,
# and np.std's temporary) plus one block of _BLOCK x 2 mode_count doubles per
# drawing thread, and time is about 13.2 us per trajectory per core at 512
# modes, rising in step with the mode count.  10^7 samples then hold about
# 160 MB and take about 130 s per core at 512 modes; 2^14 modes take 16.8 MB
# of block per thread (134 MB at _MAX_WORKERS threads) and about 0.47 ms per
# trajectory per core.  At 2^20 steps of the toggled-phase grid, ceil(t / dt),
# the mode responses peak at about 50 MB (the grid, the layout's instants and
# weights and their pieces) and take about 10 ns per mode and step: 5 s at
# the default 256 modes, 11 s at 512 and about 6 min at 2^14.
_MAX_SAMPLES = 10**7
_MAX_MODE_COUNT = 1 << 14
_MAX_STEPS = 1 << 20
# threads that draw at once: about 0.5 us of a trajectory's 13.2 us (512
# modes) holds the GIL, the block's seeding 0.2 us and its einsum at most
# 0.35 us, so beyond about 25 threads they queue for it
_MAX_WORKERS = 8


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


def _draw_amplitudes(gen, out: np.ndarray) -> None:
    """Fill out, the rows of one block, with standard normals from gen, the
    block's generator: row by row, each row the len(out[0]) // 2 cosine
    amplitudes of its trajectory, then those of its sine amplitudes."""
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
    responses v: in each worker's run of whole blocks, each block's rows
    filled by one _draw_amplitudes call from the block's own seeded
    generator and reduced against v in one einsum."""
    phases = np.empty(samples)
    entropy = seed % (1 << 64)
    n_blocks = -(-samples // _BLOCK)
    workers = min(_workers(), n_blocks)
    edges = [n_blocks * i // workers for i in range(workers + 1)]
    stop = threading.Event()
    errors = []

    def run(first: int, last: int, block: np.ndarray) -> None:
        try:
            for b in range(first, last):
                if stop.is_set():
                    return
                gen = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(b,)))
                lo = b * _BLOCK
                rows = block[:samples - lo]
                _draw_amplitudes(gen, rows)
                phases[lo:lo + len(rows)] = np.einsum("ij,j->i", rows, v)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    runs = [(first, last, np.empty((_BLOCK, len(v)))) for first, last in zip(edges, edges[1:])]
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

    Deterministic for a given seed: trajectories come in blocks of 64, and
    block b draws from np.random.default_rng(np.random.SeedSequence(seed
    mod 2^64, spawn_key=(b,))), row by row, each row its cosine amplitudes
    and then its sine amplitudes.  samples, seed and mode_count must be
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
