import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ddlab
from ddlab import ClassicalBath, Trajectory, mc_signal, synthesize, toggled_phase, udd
from ddlab.montecarlo import (_batched_phases, _draw_amplitudes, _generator, _mode_bins,
                              _trajectory_words, trajectory_seed)
from conftest import classical_twin


def flat_bath(p0: float = 0.2, omega_max: float = 20.0) -> ClassicalBath:
    return ClassicalBath(
        power_spectrum=lambda w: np.full_like(np.asarray(w, float), p0),
        omega_max=omega_max)


def zero_bath() -> ClassicalBath:
    return ClassicalBath(
        power_spectrum=lambda w: np.zeros_like(np.asarray(w, float)),
        omega_max=1.0)


def constant_trajectory(value: float, t_max: float = 4.0) -> Trajectory:
    """f(t) = value via a single zero-frequency cosine mode."""
    times = np.linspace(0.0, t_max, 17)
    return Trajectory(times=times, values=np.full_like(times, value), seed=0,
                      mode_count=1, omegas=np.array([0.0]),
                      amp_cos=np.array([value]), amp_sin=np.array([0.0]))


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


def reference_draw(base_seed):
    """_draw_amplitudes as np.random.default_rng(trajectory_seed(base_seed, k))
    draws it, for the k-th call."""
    calls = itertools.count()

    def draw(gen, words, sigmas, buf):
        rng = np.random.default_rng(trajectory_seed(base_seed, next(calls)))
        return sigmas * rng.standard_normal(len(sigmas)), sigmas * rng.standard_normal(len(sigmas))
    return draw


class TestSeedBatch:
    """The batched SeedSequence hash and PCG64 seeding against numpy itself:
    a numpy release that changed either would fail here."""

    @pytest.mark.parametrize("base", [0, 12345, 2024, -1, 2**64 + 5, 2**64 - 1])
    def test_words_match_seed_sequence(self, base):
        words = _trajectory_words(base, 1000)
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
            assert np.array_equal(_trajectory_words(base_for(seed), 1)[0],
                                  np.random.SeedSequence(seed).generate_state(4, np.uint64))

    def test_draws_match_default_rng(self):
        sigmas = np.linspace(0.1, 2.0, 96)
        gen, buf = _generator(), np.empty(2 * 96)
        for k, words in enumerate(_trajectory_words(31, 1000)):
            amp_cos, amp_sin = _draw_amplitudes(gen, words, sigmas, buf)
            rng = np.random.default_rng(trajectory_seed(31, k))
            assert np.array_equal(amp_cos, sigmas * rng.standard_normal(96))
            assert np.array_equal(amp_sin, sigmas * rng.standard_normal(96))

    def test_state_matches_pcg64_seeding(self):
        gen, empty = _generator(), np.empty(0)
        for seed in (0, 1, 2**32, 2**64 - 1, *(trajectory_seed(5, k) for k in range(200))):
            words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            _draw_amplitudes(gen, words, empty, empty)
            assert gen.bit_generator.state == np.random.PCG64(seed).state

    # a base seed whose first trajectory seed is below 2^32, where
    # SeedSequence takes a one-word entropy
    SHORT_SEED_BASE = base_for(12345)

    @pytest.mark.parametrize("base", [-1, 2**64 + 5, SHORT_SEED_BASE, 17])
    def test_batched_phases_match_the_default_rng_loop(self, base, monkeypatch):
        bath = classical_twin(0.1, 0.25)
        args = (bath, udd(3), 2.0, 300, base, 0.02, 128)
        phases = _batched_phases(*args)
        monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", reference_draw(base))
        assert np.array_equal(phases, _batched_phases(*args))

    def test_short_seed_base(self):
        assert trajectory_seed(self.SHORT_SEED_BASE, 0) == 12345

    def test_synthesize_matches_default_rng(self):
        bath = flat_bath()
        _, sigmas = _mode_bins(bath, 64)
        for seed in (0, 12345, 2**64 - 1, 2**70 + 3):
            traj = synthesize(bath, 1.0, 0.02, 64, seed)
            rng = np.random.default_rng(seed)
            assert np.array_equal(traj.amp_cos, sigmas * rng.standard_normal(64))
            assert np.array_equal(traj.amp_sin, sigmas * rng.standard_normal(64))

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_synthesize_rejects_what_default_rng_rejects(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            synthesize(flat_bath(), 1.0, 0.02, 16, seed)


class TestSynthesize:
    def test_zero_spectrum_gives_zero_trajectory(self):
        traj = synthesize(zero_bath(), 1.0, 0.1, 16, 3)
        assert np.all(traj.values == 0.0)

    def test_repeatable_bit_identical(self):
        bath = flat_bath()
        a = synthesize(bath, 2.0, 0.01, 64, 42)
        b = synthesize(bath, 2.0, 0.01, 64, 42)
        assert np.array_equal(a.values, b.values)

    def test_grid_uniform_and_spans_t_max(self):
        traj = synthesize(flat_bath(), 1.0, 0.03, 16, 5)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        steps = np.diff(traj.times)
        assert steps.max() - steps.min() < 1e-15
        assert steps.max() <= 0.03 + 1e-15

    def test_values_match_mode_evaluation(self):
        traj = synthesize(flat_bath(), 1.0, 0.03, 32, 9)
        np.testing.assert_allclose(traj.value_at(traj.times), traj.values,
                                   rtol=1e-12, atol=1e-14)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            synthesize(flat_bath(omega_max=20.0), 1.0, 0.1, 16, 1)

    def test_mode_count_minimum(self):
        with pytest.raises(ValueError):
            synthesize(flat_bath(), 1.0, 0.01, 4, 1)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_span_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max must be finite"):
            synthesize(flat_bath(), t_max, 0.01, 16, 1)

    def test_variance_matches_spectrum_integral(self):
        # Var f(0) = g(0) = (1/pi) int p over 1e4 independent draws
        bath = flat_bath(p0=0.2, omega_max=20.0)
        g0 = 0.2 * 20.0 / math.pi
        _, sigmas = _mode_bins(bath, 512)
        f0 = np.empty(10000)
        gen, buf = _generator(), np.empty(2 * 512)
        for k, words in enumerate(_trajectory_words(99, 10000)):
            amp_cos, _ = _draw_amplitudes(gen, words, sigmas, buf)
            f0[k] = amp_cos.sum()
        assert np.var(f0) == pytest.approx(g0, rel=0.05, abs=0.0)


class TestToggledPhase:
    def test_free_evolution_integrates_constant(self):
        traj = constant_trajectory(2.5)
        assert toggled_phase(traj, udd(0), 4.0) == pytest.approx(10.0, rel=1e-14, abs=0.0)

    def test_echo_cancels_static_noise_exactly(self):
        # exact zero whenever the weight products stay representable
        # (dyadic times on the dyadic grid)
        traj = constant_trajectory(3.7)
        assert toggled_phase(traj, udd(1), 4.0) == 0.0
        assert toggled_phase(traj, udd(1), 1.0) == 0.0

    def test_cpmg_balances_exactly(self):
        traj = constant_trajectory(-1.1)
        assert toggled_phase(traj, udd(2), 4.0) == 0.0
        assert toggled_phase(traj, udd(2), 2.0) == 0.0

    def test_balanced_equidistant_triplet(self):
        traj = constant_trajectory(0.9)
        assert toggled_phase(traj, ddlab.equidistant(3), 4.0) == 0.0

    def test_balanced_sequences_within_ulps_generic_time(self):
        # at non-dyadic times rounding of the weight products leaves a
        # couple of ulps of c0 * t
        traj = constant_trajectory(1.0)
        for seq in (udd(1), udd(2), udd(3), udd(4), udd(7)):
            for t in (1.3, 2.9, 3.7):
                phi = toggled_phase(traj, seq, t)
                assert abs(phi) <= 16 * np.finfo(float).eps * t

    def test_zero_time(self):
        traj = constant_trajectory(1.0)
        assert toggled_phase(traj, udd(2), 0.0) == 0.0

    def test_beyond_span_rejected(self):
        traj = constant_trajectory(1.0, t_max=2.0)
        with pytest.raises(ValueError, match="beyond"):
            toggled_phase(traj, udd(0), 3.0)

    def test_nan_time_rejected(self):
        traj = constant_trajectory(1.0, t_max=2.0)
        with pytest.raises(ValueError, match="t must be finite"):
            toggled_phase(traj, udd(2), math.nan)

    def test_matches_dense_reference_for_real_noise(self):
        # trapezoid with exact pulse breakpoints against a 10x denser grid
        bath = flat_bath(p0=0.5, omega_max=4.0)
        seq = udd(3)
        t = 2.0
        coarse = synthesize(bath, t, 0.02, 64, 11)
        fine = synthesize(bath, t, 0.002, 64, 11)
        assert toggled_phase(coarse, seq, t) == pytest.approx(
            toggled_phase(fine, seq, t), abs=1e-3)


class TestMcSignal:
    def test_zero_spectrum(self):
        est = mc_signal(zero_bath(), udd(0), 2.0, 200, 7, 0.1, 16)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.samples == 200

    def test_deterministic(self):
        bath = flat_bath()
        a = mc_signal(bath, udd(1), 1.0, 150, 5, 0.02, 64)
        b = mc_signal(bath, udd(1), 1.0, 150, 5, 0.02, 64)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_signal(flat_bath(), udd(0), 1.0, 50, 1, 0.02, 64)

    @pytest.mark.parametrize("t, dt, name", [(math.inf, 0.02, "t"), (math.nan, 0.02, "t"),
                                             (1.0, math.nan, "dt")])
    def test_non_finite_time_or_step_rejected(self, t, dt, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            mc_signal(flat_bath(), udd(1), t, 100, 1, dt, 16)

    def test_batched_matches_per_trajectory_path(self):
        bath = classical_twin(0.1, 0.25)
        # a small cell and the production-size one (512 modes, dt 0.01)
        for seq, t, dt, modes in ((udd(2), 3.0, 0.05, 128), (udd(3), 5.0, 0.01, 512)):
            phases = _batched_phases(bath, seq, t, 4, 17, dt, modes)
            for k in range(4):
                traj = synthesize(bath, t, dt, modes, trajectory_seed(17, k))
                assert phases[k] == pytest.approx(toggled_phase(traj, seq, t),
                                                  rel=1e-10, abs=1e-12)

    def test_batched_peak_memory_bound(self):
        # one response vector per mode and one draw at a time: no
        # samples x modes matrix (that alone would take 82 MB here)
        bath = classical_twin(0.1, 0.25)
        tracemalloc.start()
        try:
            _batched_phases(bath, udd(3), 5.0, 10000, 7, 0.01, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_white_noise_free_decay(self):
        # flat spectrum with omega_max * t >> 1 decays as exp(-p0 t / 2)
        p0, t = 0.2, 10.0
        bath = flat_bath(p0=p0, omega_max=20.0)
        est = mc_signal(bath, udd(0), t, 10000, 7, math.pi / 160, 1024)
        assert abs(est.mean - math.exp(-p0 * t / 2)) <= 3.0 * est.stderr

    def test_gaussian_identity(self):
        # <cos phi> against exp(-<phi^2>/2) from the same sample
        bath = classical_twin(0.1, 0.25)
        phases = _batched_phases(bath, udd(1), 2.0, 10000, 7, 0.01, 512)
        mean = float(np.mean(np.cos(phases)))
        stderr = float(np.std(np.cos(phases), ddof=1) / 100.0)
        assert abs(mean - math.exp(-float(np.mean(phases**2)) / 2.0)) <= 3.0 * stderr

    def test_oracle_agreement_single_cell(self, quad):
        bath = classical_twin(0.1, 0.25)
        seq = udd(3)
        t = 5.0
        est = mc_signal(bath, seq, t, 10000, 7, 0.01, 512)
        target = math.exp(-2.0 * ddlab.chi(seq, bath, t, quad))
        assert abs(est.mean - target) <= 3.0 * est.stderr
