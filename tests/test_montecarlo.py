import gc
import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

import ddlab
from ddlab import ClassicalBath, mc_signal, udd
from ddlab.montecarlo import (_BLOCK, _LAYOUTS, _MAX_WORKERS, _RESPONSE_CHUNK, _SEED_CHUNK,
                              _batched_phases, _draw_amplitudes, _generator, _layout_of,
                              _mode_bins, _mode_responses, _scaled_responses, _segment_layout,
                              _state_view, _trajectory_states, _trajectory_words, _word_order,
                              trajectory_seed)
from conftest import classical_twin


def phases_of(bath, seq, t: float, samples: int, seed: int, dt: float, mode_count: int):
    """_batched_phases of the cell's scaled responses, as mc_signal draws them."""
    return _batched_phases(_scaled_responses(bath, seq, t, dt, mode_count), samples, seed)


def flat_bath(p0: float = 0.2, omega_max: float = 20.0) -> ClassicalBath:
    return ClassicalBath(
        power_spectrum=lambda w: np.full_like(np.asarray(w, float), p0),
        omega_max=omega_max)


def zero_bath() -> ClassicalBath:
    return ClassicalBath(
        power_spectrum=lambda w: np.zeros_like(np.asarray(w, float)),
        omega_max=1.0)


def static_phase(value: float, seq, t: float) -> float:
    """Toggled phase of constant noise f = value, from _segment_layout's
    weights (the ones mc_signal integrates with) on a 17-point grid over
    [0, 4]."""
    _, weights = _segment_layout(seq, t, np.linspace(0.0, 4.0, 17))
    return t * math.fsum(weights * value)


def reference_modes(bath: ClassicalBath, mode_count: int, seed: int):
    """Mode frequencies and amplitudes of the trajectory seeded with seed,
    straight from the spectrum and np.random.default_rng: midpoint bins of
    width omega_max / mode_count, variances p dw / pi, cosines first."""
    dw = bath.omega_max / mode_count
    omegas = (np.arange(mode_count) + 0.5) * dw
    sigmas = np.sqrt(bath.power_spectrum(omegas) * dw / math.pi)
    rng = np.random.default_rng(seed)
    amp_cos = sigmas * rng.standard_normal(mode_count)
    return omegas, amp_cos, sigmas * rng.standard_normal(mode_count)


def reference_phase(omegas, amp_cos, amp_sin, seq, t: float, dt: float) -> float:
    """int_0^t f(t') c(t') dt' of the noise sum_k a_k cos(w_k t') + b_k
    sin(w_k t'): a plain trapezoid on each interval between pulses, over its
    ends and the points of linspace(0, t, ceil(t / dt) + 1) inside it."""
    grid = np.linspace(0.0, t, max(1, math.ceil(t / dt)) + 1)
    bounds = (0.0, *(d * t for d in seq.deltas), t)
    phase = 0.0
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        ts = np.concatenate([[lo], grid[(grid > lo) & (grid < hi)], [hi]])
        f = np.cos(np.outer(ts, omegas)) @ amp_cos + np.sin(np.outer(ts, omegas)) @ amp_sin
        phase += (-1) ** i * float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(ts)))
    return phase


class TestSeedSplitting:
    def test_declared_mapping_is_stable(self):
        assert trajectory_seed(0, 0) == 16294208416658607535
        assert trajectory_seed(12345, 7) == 7959005890829367068

    def test_distinct_across_index_and_base(self):
        seeds = {trajectory_seed(1, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert trajectory_seed(1, 5) != trajectory_seed(2, 5)


def unmix64(z: int) -> int:
    # inverse of splitmix64's finalizer
    def unxorshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x
    mask = (1 << 64) - 1
    z = unxorshift(z, 31)
    z = unxorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    return unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)


def base_for(seed: int) -> int:
    """The base seed whose trajectory 0 has the given seed."""
    return (unmix64(seed) - 0x9E3779B97F4A7C15) % 2**64


def force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr("ddlab.montecarlo._workers", lambda: workers)


def reference_draw(base_seed, samples: int):
    """_draw_amplitudes as np.random.default_rng(trajectory_seed(base_seed, k))
    draws it, for the trajectory k < samples whose seeded state it is given,
    in any order of calls: cosine normals into the first half of out, then
    sine normals into the second."""
    states = _trajectory_states(_trajectory_words(base_seed, 0, samples))
    index = {row.tobytes(): k for k, row in enumerate(states)}

    def draw(gen, state, row_state, out):
        rng = np.random.default_rng(trajectory_seed(base_seed, index[row_state.tobytes()]))
        m = len(out) // 2
        out[:m] = rng.standard_normal(m)
        out[m:] = rng.standard_normal(m)
    return draw


def states_of(words) -> list:
    """_trajectory_states of rows of words, as plain Python ints in the order
    (state low, state high, inc low, inc high), whatever the memory layout
    (each layout is its own inverse)."""
    return [[int(row[j]) for j in _word_order()] for row in _trajectory_states(words)]


def pcg64_words(state: dict) -> list:
    """numpy's PCG64 state dict as (state low, state high, inc low, inc high)."""
    s, inc = state["state"]["state"], state["state"]["inc"]
    return [s & (2**64 - 1), s >> 64, inc & (2**64 - 1), inc >> 64]


class FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed whose generate_state(4, np.uint64) gives the chosen words, so
    that numpy's PCG64 seeds itself from them."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words


class TestSeedBatch:
    """The batched SeedSequence hash and PCG64 seeding against numpy itself:
    a numpy release that changed either would fail here."""

    @pytest.mark.parametrize("base", [0, 12345, 2024, -1, 2**64 + 5, 2**64 - 1])
    def test_words_match_seed_sequence(self, base):
        words = _trajectory_words(base, 0, 1000)
        expected = [np.random.SeedSequence(trajectory_seed(base, k)).generate_state(4, np.uint64)
                    for k in range(1000)]
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.array(expected))

    def test_words_of_chosen_seeds(self):
        # seeds below 2^32 enter SeedSequence as one word, the rest as two
        rng = np.random.default_rng(2024)
        seeds = ([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
                 + [int(s) for s in rng.integers(0, 2**32, 1000, dtype=np.uint64)])
        for seed in seeds:
            assert np.array_equal(_trajectory_words(base_for(seed), 0, 1)[0],
                                  np.random.SeedSequence(seed).generate_state(4, np.uint64))

    def test_draws_match_default_rng(self):
        # into rows of a block from one reused generator, as _batched_phases
        # draws
        block = np.empty((8, 2 * 96))
        gen, state = _generator()
        for k, row_state in enumerate(_trajectory_states(_trajectory_words(31, 0, 1000))):
            row = block[k % 8]
            _draw_amplitudes(gen, state, row_state, row)
            rng = np.random.default_rng(trajectory_seed(31, k))
            assert np.array_equal(row[:96], rng.standard_normal(96))
            assert np.array_equal(row[96:], rng.standard_normal(96))

    @pytest.mark.parametrize("base", [0, 12345, -1, 2**64 - 1, 2**64 + 5])
    def test_states_match_pcg64_seeding(self, base):
        states = states_of(_trajectory_words(base, 0, 500))
        for k, row in enumerate(states):
            assert row == pcg64_words(np.random.PCG64(trajectory_seed(base, k)).state)

    ONES = 2**64 - 1
    CHOSEN_WORDS = [
        [ONES] * 4,             # every word all ones: s + inc and every sum carry
        [0, 0, 2**63, 0],       # top bit of w2 leaves inc
        [0, 0, 0, 2**63],       # top bit of w3 moves into inc's high word
        [0, ONES, 0, 0],        # s + inc carries from the low word
        [ONES, ONES, 0, 0],     # s + inc overflows 2^128
        [0, 0, 0, 0],
        [1, 2, 3, 4],
    ]

    def test_states_of_chosen_words(self):
        # numpy seeds a PCG64 from the same four words
        rng = np.random.default_rng(7)
        words = self.CHOSEN_WORDS + rng.integers(0, 2**64, (500, 4), dtype=np.uint64).tolist()
        states = states_of(np.array(words, dtype=np.uint64))
        for row, w in zip(states, words):
            assert row == pcg64_words(np.random.PCG64(FixedWords(w)).state)

    def test_state_matches_pcg64_seeding(self):
        # the whole state of the reused generator after the write, has_uint32
        # included, against numpy's own seeding
        seeds = (0, 1, 2**32, 2**64 - 1, *(trajectory_seed(5, k) for k in range(200)))
        words = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
        gen, state = _generator()
        for seed, row_state in zip(seeds, _trajectory_states(words)):
            _draw_amplitudes(gen, state, row_state, np.empty(0))
            assert gen.bit_generator.state == np.random.PCG64(seed).state

    def test_reused_generator_keeps_nothing(self):
        # a trajectory drawn after others of any length draws as a fresh
        # default_rng: the ziggurat takes a varying count of words per normal
        states = _trajectory_states(_trajectory_words(11, 0, 4))
        gen, state = _generator()
        for j, k, size in ((0, 1, 7), (2, 1, 1000), (3, 0, 1), (1, 1, 33)):
            _draw_amplitudes(gen, state, states[j], np.empty(size))
            out = np.empty(64)
            _draw_amplitudes(gen, state, states[k], out)
            assert np.array_equal(out, np.random.default_rng(trajectory_seed(11, k))
                                  .standard_normal(64))


class TestStateLayout:
    """The word order of PCG64's state in memory, checked once per process."""

    STATE, INC = 0x0123456789ABCDEF_FEDCBA9876543210, 0x1111111122222222_3333333344444445
    LOW_FIRST = [0xFEDCBA9876543210, 0x0123456789ABCDEF, 0x3333333344444445, 0x1111111122222222]
    HIGH_FIRST = [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x1111111122222222, 0x3333333344444445]

    def test_both_orders_are_read(self):
        image = np.array(self.LOW_FIRST, dtype=np.uint64)
        assert _layout_of(image, self.STATE, self.INC) == (0, 1, 2, 3)
        image = np.array(self.HIGH_FIRST, dtype=np.uint64)
        assert _layout_of(image, self.STATE, self.INC) == (1, 0, 3, 2)

    @pytest.mark.parametrize("order", [(2, 3, 0, 1), (1, 0, 2, 3), (0, 1, 3, 2), (3, 2, 1, 0)])
    def test_any_other_order_raises(self, order):
        image = np.array([self.LOW_FIRST[j] for j in order], dtype=np.uint64)
        with pytest.raises(RuntimeError, match="unknown PCG64 state layout"):
            _layout_of(image, self.STATE, self.INC)

    def test_this_process_reads_a_known_layout(self):
        assert _word_order() in _LAYOUTS
        bit_generator = np.random.PCG64(12345)
        refs = sys.getrefcount(bit_generator)
        view = _state_view(bit_generator)
        assert view.dtype == np.uint64 and view.shape == (4,) and view.flags.writeable
        assert [int(view[j]) for j in _word_order()] == pcg64_words(bit_generator.state)
        # the view holds the bit generator whose memory it shows
        assert sys.getrefcount(bit_generator) == refs + 1
        del view
        gc.collect()
        assert sys.getrefcount(bit_generator) == refs

    def test_state_outside_the_object_refused(self):
        # a state struct outside the object given is not read through
        fake = types.SimpleNamespace(ctypes=np.random.PCG64(1).ctypes)
        with pytest.raises(RuntimeError, match="does not lie inside"):
            _state_view(fake)


    # a base seed whose first trajectory seed is below 2^32, where
    # SeedSequence takes a one-word entropy
    SHORT_SEED_BASE = base_for(12345)

    @pytest.mark.parametrize("base", [-1, 2**64 + 5, SHORT_SEED_BASE, 17])
    def test_batched_phases_match_the_default_rng_loop(self, base, monkeypatch):
        bath = classical_twin(0.1, 0.25)
        args = (bath, udd(3), 2.0, 300, base, 0.02, 128)
        phases = phases_of(*args)
        monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", reference_draw(base, 300))
        assert np.array_equal(phases, phases_of(*args))

    def test_short_seed_base(self):
        assert trajectory_seed(self.SHORT_SEED_BASE, 0) == 12345


class TestBlocks:
    """Trajectories drawn into blocks of _BLOCK rows and reduced per block:
    no phase depends on the other rows of its block or on their count."""

    @pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_every_sample_count_is_a_prefix(self, samples):
        bath = classical_twin(0.1, 0.25)
        args = (bath, udd(3), 2.0)
        full = phases_of(*args, 4 * _BLOCK, 23, 0.02, 128)
        assert np.array_equal(phases_of(*args, samples, 23, 0.02, 128), full[:samples])

    @pytest.mark.parametrize("chunk", [1, _BLOCK, 100])
    def test_seed_chunks_match_one_chunk(self, chunk, monkeypatch):
        # chunks of seed words that split blocks, or do not, or are single
        # trajectories, give the phases of one chunk and one worker bit for
        # bit, however many workers share the chunk
        bath = classical_twin(0.1, 0.25)
        args = (bath, udd(3), 2.0, 3 * _BLOCK + 5, 23, 0.02, 32)
        assert args[3] <= _SEED_CHUNK
        force_workers(monkeypatch, 1)
        whole = phases_of(*args)
        monkeypatch.setattr("ddlab.montecarlo._SEED_CHUNK", chunk)
        for workers in (1, 2, 3, _MAX_WORKERS):
            force_workers(monkeypatch, workers)
            assert np.array_equal(phases_of(*args), whole)

    @pytest.mark.parametrize("cap", [_RESPONSE_CHUNK, 7 * 512 + 3])
    def test_chunked_responses_match_one_chunk(self, cap, monkeypatch):
        omegas, _ = _mode_bins(classical_twin(0.1, 0.25), 512)
        t = 50.0
        instants, weights = _segment_layout(udd(3), t, np.linspace(0.0, t, 5001))
        assert omegas.size * instants.size > cap
        monkeypatch.setattr("ddlab.montecarlo._RESPONSE_CHUNK", cap)
        chunked = _mode_responses(omegas, instants, t * weights)
        monkeypatch.setattr("ddlab.montecarlo._RESPONSE_CHUNK", omegas.size * instants.size)
        whole = _mode_responses(omegas, instants, t * weights)
        for a, b in zip(chunked, whole):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_long_cell_peak_memory_bound(self):
        # 2e4 instants at 512 modes: one unchunked phase matrix would take
        # 82 MB; two chunk matrices of _RESPONSE_CHUNK doubles take 16.8 MB
        bath = classical_twin(0.1, 0.25)
        tracemalloc.start()
        try:
            phases_of(bath, udd(3), 200.0, 100, 7, 0.01, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestWorkers:
    """Trajectories split into one run of whole blocks per thread: no phase
    depends on the split, and an error in any run stops every run."""

    @pytest.mark.parametrize("samples", [100, 129, 8193, 20001])
    def test_partition_is_invisible(self, samples, monkeypatch):
        # more threads than cores, switching often: a lost or misplaced
        # write of a run would show as a changed phase
        bath = classical_twin(0.1, 0.25)
        args = (bath, udd(3), 2.0, samples, 23, 0.02, 16)
        force_workers(monkeypatch, 1)
        whole = phases_of(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 3, _MAX_WORKERS):
                force_workers(monkeypatch, workers)
                assert np.array_equal(phases_of(*args), whole)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def failing_draw(base: int, index: int, exc):
        """_draw_amplitudes that raises exc at trajectory index of base seed
        base, and counts its calls."""
        fail_state = _trajectory_states(_trajectory_words(base, index, index + 1))[0]
        calls = []

        def draw(gen, state, row_state, out):
            calls.append(1)
            if np.array_equal(row_state, fail_state):
                raise exc
            _draw_amplitudes(gen, state, row_state, out)
        return draw, calls

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # three runs of 1, 2 and 2 blocks of 64: trajectory 250 is in the
        # last helper's run
        force_workers(monkeypatch, 3)
        draw, _ = self.failing_draw(5, 250, ZeroDivisionError("x"))
        monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", draw)
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError):
            mc_signal(flat_bath(), udd(2), 1.0, 300, 5, 0.02, 16)
        assert threading.active_count() == threads

    def test_interrupt_in_the_caller_stops_the_helpers(self, monkeypatch):
        # the caller's run is interrupted at its first trajectory; the
        # helper stops at its next block, far short of its 10^4 trajectories
        force_workers(monkeypatch, 2)
        draw, calls = self.failing_draw(5, 0, KeyboardInterrupt())
        monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", draw)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            mc_signal(flat_bath(), udd(2), 1.0, 20000, 5, 0.02, 16)
        assert threading.active_count() == threads
        assert len(calls) < 10000


class TestSynthesize:
    """The noise synthesis: mode bins, their draws and the sampling checks."""

    def test_zero_spectrum_gives_zero_trajectory(self):
        assert not np.any(phases_of(zero_bath(), udd(2), 1.0, 100, 3, 0.1, 16))

    def test_repeatable_bit_identical(self):
        bath = flat_bath()
        a = phases_of(bath, udd(1), 2.0, 100, 42, 0.01, 64)
        assert np.array_equal(a, phases_of(bath, udd(1), 2.0, 100, 42, 0.01, 64))

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            mc_signal(flat_bath(omega_max=20.0), udd(1), 1.0, 100, 1, 0.1, 16)

    def test_mode_count_minimum(self):
        with pytest.raises(ValueError):
            mc_signal(flat_bath(), udd(1), 1.0, 100, 1, 0.01, 4)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_spectrum_at_a_mode_frequency_named(self, bad):
        # ClassicalBath's probe sees omega = j/16 only; the bad window holds
        # two of the 512 mode frequencies, (153 + 1/2)/512 and (154 + 1/2)/512,
        # and the error names the first
        bath = ClassicalBath(
            power_spectrum=lambda w: np.where(abs(w - 0.30078125) < 1e-3, bad, 0.2 * w),
            omega_max=1.0)
        with pytest.raises(ValueError, match=r"got p\(0\.2998046875\) = "):
            mc_signal(bath, udd(2), 1.0, 100, 1, 0.01, 512)

    def test_variance_matches_spectrum_integral(self):
        # Var f(0) = g(0) = (1/pi) int p over 1e4 independent draws
        bath = flat_bath(p0=0.2, omega_max=20.0)
        g0 = 0.2 * 20.0 / math.pi
        _, sigmas = _mode_bins(bath, 512)
        f0 = np.empty(10000)
        buf = np.empty(2 * 512)
        gen, state = _generator()
        for k, row_state in enumerate(_trajectory_states(_trajectory_words(99, 0, 10000))):
            _draw_amplitudes(gen, state, row_state, buf)
            f0[k] = (sigmas * buf[:512]).sum()
        assert np.var(f0) == pytest.approx(g0, rel=0.05, abs=0.0)


class TestToggledPhase:
    def test_free_evolution_integrates_constant(self):
        assert static_phase(2.5, udd(0), 4.0) == pytest.approx(10.0, rel=1e-14, abs=0.0)

    def test_echo_cancels_static_noise_exactly(self):
        # exact zero whenever the weight products stay representable
        # (dyadic times on the dyadic grid)
        assert static_phase(3.7, udd(1), 4.0) == 0.0
        assert static_phase(3.7, udd(1), 1.0) == 0.0

    def test_cpmg_balances_exactly(self):
        assert static_phase(-1.1, udd(2), 4.0) == 0.0
        assert static_phase(-1.1, udd(2), 2.0) == 0.0

    def test_balanced_equidistant_triplet(self):
        assert static_phase(0.9, ddlab.equidistant(3), 4.0) == 0.0

    def test_balanced_sequences_within_ulps_generic_time(self):
        # at non-dyadic times rounding of the weight products leaves a
        # couple of ulps of c0 * t
        for seq in (udd(1), udd(2), udd(3), udd(4), udd(7)):
            for t in (1.3, 2.9, 3.7):
                phi = static_phase(1.0, seq, t)
                assert abs(phi) <= 16 * np.finfo(float).eps * t

    def test_matches_dense_reference_for_real_noise(self):
        # trapezoid with exact pulse breakpoints against a 10x denser grid
        bath = flat_bath(p0=0.5, omega_max=4.0)
        seq = udd(3)
        t = 2.0
        coarse = phases_of(bath, seq, t, 1, 11, 0.02, 64)[0]
        fine = reference_phase(*reference_modes(bath, 64, trajectory_seed(11, 0)), seq, t, 0.002)
        assert coarse == pytest.approx(fine, abs=1e-3)


class TestMcSignal:
    def test_zero_spectrum(self):
        est = mc_signal(zero_bath(), udd(0), 2.0, 200, 7, 0.1, 16)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.samples == 200
        assert est.model_mean == 1.0

    def test_deterministic(self):
        bath = flat_bath()
        a = mc_signal(bath, udd(1), 1.0, 150, 5, 0.02, 64)
        b = mc_signal(bath, udd(1), 1.0, 150, 5, 0.02, 64)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_signal(flat_bath(), udd(0), 1.0, 50, 1, 0.02, 64)

    @pytest.mark.parametrize("name, value", [("samples", 100.5), ("seed", 1.5),
                                             ("mode_count", 8.5), ("seed", True),
                                             ("samples", "100")])
    def test_non_integer_counts_and_seeds_rejected(self, name, value):
        args = {"samples": 100, "seed": 1, "mode_count": 16, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            mc_signal(flat_bath(), udd(1), 1.0, dt=0.02, **args)

    def test_numpy_integers_held_as_python_ints(self):
        est = mc_signal(flat_bath(), udd(1), 1.0, np.int64(100), np.uint64(5), 0.02,
                        np.int32(16))
        assert type(est.samples) is int and type(est.seed) is int
        assert est == mc_signal(flat_bath(), udd(1), 1.0, 100, 5, 0.02, 16)

    @pytest.mark.parametrize("t, dt, name", [(math.inf, 0.02, "t"), (math.nan, 0.02, "t"),
                                             (1.0, math.nan, "dt")])
    def test_non_finite_time_or_step_rejected(self, t, dt, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            mc_signal(flat_bath(), udd(1), t, 100, 1, dt, 16)

    def test_batched_matches_per_trajectory_path(self):
        bath = classical_twin(0.1, 0.25)
        # a small cell and the production-size one (512 modes, dt 0.01)
        for seq, t, dt, modes in ((udd(2), 3.0, 0.05, 128), (udd(3), 5.0, 0.01, 512)):
            phases = phases_of(bath, seq, t, 4, 17, dt, modes)
            for k in range(4):
                modes_k = reference_modes(bath, modes, trajectory_seed(17, k))
                assert phases[k] == pytest.approx(reference_phase(*modes_k, seq, t, dt),
                                                  rel=1e-10, abs=1e-12)

    def test_unbounded_step_count_rejected(self):
        # t / dt overflows: no grid of that many steps can be built
        with pytest.raises(ValueError, match=r"^t / dt must be finite"):
            mc_signal(flat_bath(), udd(2), 1e308, 100, 1, 0.01, 16)

    def test_step_count_beyond_the_ceiling_rejected(self, monkeypatch):
        # 10^14 steps: refused before any grid is built
        def unreachable(*args):
            raise AssertionError("responses built")

        monkeypatch.setattr("ddlab.montecarlo._scaled_responses", unreachable)
        with pytest.raises(ValueError, match=r"^t / dt must be finite and <= 1048576"):
            mc_signal(flat_bath(), udd(2), 1e12, 100, 1, 0.01, 16)

    def test_batched_peak_memory_bound(self, monkeypatch):
        # one response vector per mode and one block per worker, at the
        # worker ceiling: no samples x modes matrix (that alone would take
        # 82 MB here)
        force_workers(monkeypatch, _MAX_WORKERS)
        bath = classical_twin(0.1, 0.25)
        tracemalloc.start()
        try:
            phases_of(bath, udd(3), 5.0, 10000, 7, 0.01, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_seed_words_peak_memory_bound(self, monkeypatch):
        # seed words are hashed _SEED_CHUNK trajectories at a time, shared
        # among the workers (here at their ceiling): the 2e5 phases take
        # 1.6 MB and one chunk's hash about 1.4 MB, where every trajectory's
        # words at once would peak at 35 MB
        force_workers(monkeypatch, _MAX_WORKERS)
        bath = classical_twin(0.1, 0.25)
        tracemalloc.start()
        try:
            phases_of(bath, udd(3), 1.0, 200_000, 7, 0.01, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_estimate_peak_memory_bound(self, monkeypatch):
        # the cosines are taken in place of the phases: one samples-long
        # array fewer than cos(phases) took (4.8 MB at the parent)
        force_workers(monkeypatch, _MAX_WORKERS)
        bath = classical_twin(0.1, 0.25)
        tracemalloc.start()
        try:
            mc_signal(bath, udd(3), 1.0, 200_000, 7, 0.01, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_white_noise_free_decay(self):
        # flat spectrum with omega_max * t >> 1 decays as exp(-p0 t / 2)
        p0, t = 0.2, 10.0
        bath = flat_bath(p0=p0, omega_max=20.0)
        est = mc_signal(bath, udd(0), t, 10000, 7, math.pi / 160, 1024)
        assert abs(est.mean - math.exp(-p0 * t / 2)) <= 3.0 * est.stderr

    def test_gaussian_identity(self):
        # <cos phi> against exp(-<phi^2>/2) from the same sample
        bath = classical_twin(0.1, 0.25)
        phases = phases_of(bath, udd(1), 2.0, 10000, 7, 0.01, 512)
        mean = float(np.mean(np.cos(phases)))
        stderr = float(np.std(np.cos(phases), ddof=1) / 100.0)
        assert abs(mean - math.exp(-float(np.mean(phases**2)) / 2.0)) <= 3.0 * stderr

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_model_mean_matches_chi(self, n, t, quad):
        # the toggled phase is Gaussian with variance |v|^2, so the mode
        # bins and the trapezoid have the exact mean exp(-|v|^2 / 2): within
        # 1e-5 of exp(-2 chi) (5.5e-6 at udd(1), t = 5), far below what the
        # 3 sigma sampling checks can see
        bath, seq = classical_twin(0.1, 0.25), udd(n)
        est = mc_signal(bath, seq, t, 100, 7, 0.01, 512)
        target = math.exp(-2.0 * ddlab.chi(seq, bath, t, quad))
        assert est.model_mean == pytest.approx(target, rel=1e-5, abs=0.0)

    def test_oracle_agreement_single_cell(self, quad):
        bath = classical_twin(0.1, 0.25)
        seq = udd(3)
        t = 5.0
        est = mc_signal(bath, seq, t, 10000, 7, 0.01, 512)
        target = math.exp(-2.0 * ddlab.chi(seq, bath, t, quad))
        assert abs(est.mean - target) <= 3.0 * est.stderr
