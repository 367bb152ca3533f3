import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import ddlab
from ddlab import ClassicalBath, mc_signal, udd
from ddlab.montecarlo import (_BLOCK, _MAX_WORKERS, _RESPONSE_CHUNK, _batched_phases,
                              _draw_amplitudes, _mode_bins, _mode_responses, _scaled_responses,
                              _segment_layout)
from conftest import classical_twin, thermal_chi


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


def reference_normals(seed: int, samples: int, width: int) -> np.ndarray:
    """Each trajectory's row of width standard normals, straight from numpy:
    block b of 64 trajectories draws from default_rng(SeedSequence(seed mod
    2^64, spawn_key=(b,))), row by row, the width // 2 cosine normals of a
    row first, then its sine normals."""
    rows = []
    for b in range(-(-samples // 64)):
        rng = np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=(b,)))
        for _ in range(min(64, samples - 64 * b)):
            cos_normals = rng.standard_normal(width // 2)
            rows.append(np.concatenate([cos_normals, rng.standard_normal(width // 2)]))
    return np.array(rows)


def reference_modes(bath: ClassicalBath, mode_count: int, seed: int, k: int):
    """Mode frequencies and amplitudes of trajectory k of the given seed,
    straight from the spectrum and reference_normals: midpoint bins of
    width omega_max / mode_count, variances p dw / pi, cosines first."""
    dw = bath.omega_max / mode_count
    omegas = (np.arange(mode_count) + 0.5) * dw
    sigmas = np.sqrt(bath.power_spectrum(omegas) * dw / math.pi)
    normals = reference_normals(seed, k + 1, 2 * mode_count)[k]
    return omegas, sigmas * normals[:mode_count], sigmas * normals[mode_count:]


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


def force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr("ddlab.montecarlo._workers", lambda: workers)


class TestSeedSplitting:
    """Block b of 64 trajectories draws from the b-th stream spawned from
    SeedSequence(seed mod 2^64)."""

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
    @pytest.mark.parametrize("samples", [100, 137, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_batched_phases_match_the_block_reference(self, seed, samples, workers, monkeypatch):
        force_workers(monkeypatch, workers)
        v = np.random.default_rng(3).standard_normal(48)
        expected = np.einsum("ij,j->i", reference_normals(seed, samples, 48), v)
        assert np.array_equal(_batched_phases(v, samples, seed), expected)

    def test_declared_mapping_is_stable(self):
        # with 16 modes, seed 0's trajectory 0 and its first cosine normal,
        # and seed 12345's trajectory 64 (block 1, row 0) and its first sine
        # normal: numpy's stream policy fixes both, so ddlab mc's output too
        v = np.zeros(32)
        v[0] = 1.0
        assert _batched_phases(v, 100, 0)[0] == 1.4436909546981256
        v[0], v[16] = 0.0, 1.0
        assert _batched_phases(v, 100, 12345)[64] == 0.25446512613639555

    def test_distinct_across_index_and_base(self):
        v = np.random.default_rng(5).standard_normal(32)
        for seed in (7, 2**64 - 1):
            assert np.array_equal(_batched_phases(v, 200, seed),
                                  _batched_phases(v, 200, seed + 2**64))
        phases = _batched_phases(v, 1000, 1)
        assert len(set(phases.tolist())) == 1000
        assert not np.any(phases == _batched_phases(v, 1000, 2))


class TestStateLayout:
    """The phases of full Monte Carlo cells against a default_rng loop over
    the block streams: seeds whose entropy is one 32-bit word (17,
    2^64 + 5) and two (-1, 5246975980767324365)."""

    @pytest.mark.parametrize("base", [-1, 2**64 + 5, 5246975980767324365, 17])
    def test_batched_phases_match_the_default_rng_loop(self, base, monkeypatch):
        force_workers(monkeypatch, 3)
        bath = classical_twin(0.1, 0.25)
        v = _scaled_responses(bath, udd(3), 2.0, 0.02, 128)
        expected = np.einsum("ij,j->i", reference_normals(base, 300, 256), v)
        assert np.array_equal(phases_of(bath, udd(3), 2.0, 300, base, 0.02, 128), expected)


class TestBlocks:
    """Trajectories drawn into blocks of _BLOCK rows and reduced per block:
    no phase depends on the other rows of its block or on their count."""

    @pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_every_sample_count_is_a_prefix(self, samples):
        bath = classical_twin(0.1, 0.25)
        args = (bath, udd(3), 2.0)
        full = phases_of(*args, 4 * _BLOCK, 23, 0.02, 128)
        assert np.array_equal(phases_of(*args, samples, 23, 0.02, 128), full[:samples])

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
    def failing_draw(seed: int, index: int, width: int, exc):
        """_draw_amplitudes that raises exc once it has drawn the block that
        holds trajectory index of the given seed, with rows of width normals,
        and lists the rows of every block it draws."""
        fail_row = reference_normals(seed, index + 1, width)[index]
        rows = []

        def draw(gen, out):
            rows.append(len(out))
            _draw_amplitudes(gen, out)
            if np.any(np.all(out == fail_row, axis=1)):
                raise exc
        return draw, rows

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # three runs of 1, 2 and 2 blocks of 64: trajectory 250 is row 58 of
        # block 3, in the last helper's run
        force_workers(monkeypatch, 3)
        draw, _ = self.failing_draw(5, 250, 32, ZeroDivisionError("x"))
        monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", draw)
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError):
            mc_signal(flat_bath(), udd(2), 1.0, 300, 5, 0.02, 16)
        assert threading.active_count() == threads

    def test_interrupt_in_the_caller_stops_the_helpers(self, monkeypatch):
        # the caller's run is interrupted at its first block; the helper
        # stops at its next block, far short of its 10^4 trajectories
        force_workers(monkeypatch, 2)
        draw, rows = self.failing_draw(5, 0, 32, KeyboardInterrupt())
        monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", draw)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            mc_signal(flat_bath(), udd(2), 1.0, 20000, 5, 0.02, 16)
        assert threading.active_count() == threads
        assert sum(rows) < 10000


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
        # f(0) = sum_k sigma_k a_k: the phase of responses [sigma, 0]
        f0 = _batched_phases(np.concatenate([sigmas, np.zeros(512)]), 10000, 99)
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
        fine = reference_phase(*reference_modes(bath, 64, 11, 0), seq, t, 0.002)
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
                modes_k = reference_modes(bath, modes, 17, k)
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

    @pytest.mark.parametrize("t, samples, dt, mode_count, message", [
        (1.0, 10**7 + 1, 0.5, 16, r"samples must be <= 10000000, got 10000001"),
        (1.0, 100, 0.5, 2**14 + 1, r"mode_count must be <= 16384, got 16385"),
        ((1 << 19) + 0.5, 100, 0.5, 16, r"t / dt must be finite and <= 1048576, "
                                        r"got t = 524288, dt = 0.5")])
    def test_work_ceilings_rejected_before_any_response(self, monkeypatch, t, samples, dt,
                                                        mode_count, message):
        def unreachable(*args):
            raise AssertionError("responses built or trajectories drawn")

        monkeypatch.setattr("ddlab.montecarlo._scaled_responses", unreachable)
        monkeypatch.setattr("ddlab.montecarlo._batched_phases", unreachable)
        with pytest.raises(ValueError, match=f"^{message}$"):
            mc_signal(flat_bath(omega_max=1.0), udd(2), t, samples, 1, dt, mode_count)

    @pytest.mark.parametrize("t, samples, mode_count", [(1.0, 10**7, 16), (1.0, 100, 2**14),
                                                        (float(1 << 19), 100, 16)])
    def test_work_ceilings_themselves_allowed(self, monkeypatch, t, samples, mode_count):
        # each ceiling passes the checks and reaches the responses, which
        # stop the call before anything is built or drawn
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr("ddlab.montecarlo._scaled_responses", reached)
        with pytest.raises(Reached):
            mc_signal(flat_bath(omega_max=1.0), udd(2), t, samples, 1, 0.5, mode_count)

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
        # each block's generator is seeded when the block is drawn, by the
        # workers (here at their ceiling): the 2e5 phases take 1.6 MB, and
        # no memory is held per trajectory or per block beyond that
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
    def test_model_mean_matches_chi(self, n, t):
        # the toggled phase is Gaussian with variance |v|^2, so the mode
        # bins and the trapezoid have the exact mean exp(-|v|^2 / 2): within
        # 1e-5 of exp(-2 chi) (5.5e-6 at udd(1), t = 5), far below what the
        # 3 sigma sampling checks can see; chi is the twin's exact closed
        # form, so no quadrature enters the check
        bath, seq = classical_twin(0.1, 0.25), udd(n)
        est = mc_signal(bath, seq, t, 100, 7, 0.01, 512)
        target = math.exp(-2.0 * thermal_chi(seq.deltas, 0.1, 0.25, t))
        assert est.model_mean == pytest.approx(target, rel=1e-5, abs=0.0)

    def test_oracle_agreement_single_cell(self):
        bath = classical_twin(0.1, 0.25)
        seq = udd(3)
        t = 5.0
        est = mc_signal(bath, seq, t, 10000, 7, 0.01, 512)
        target = math.exp(-2.0 * thermal_chi(seq.deltas, 0.1, 0.25, t))
        assert abs(est.mean - target) <= 3.0 * est.stderr
