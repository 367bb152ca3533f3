import math

import numpy as np
import pytest

import ddlab.analysis
from ddlab import (
    OhmicBath,
    QuadratureError,
    RangeExhaustedError,
    SearchExhaustedError,
    SweepRow,
    TabulatedSpectralDensity,
    compare_schemes,
    custom,
    equidistant,
    min_pulses,
    signal,
    storage_time,
    udd,
)
from ddlab.decoherence import _chi_raw


def decay_error(seq, bath, t, quad):
    chi_val, _ = _chi_raw(seq, bath, t, quad)
    return -math.expm1(-2.0 * chi_val)


def storage_error(seq, bath, t, quad, include_phase):
    if include_phase:
        return 1.0 - signal(seq, bath, t, quad).signal
    return decay_error(seq, bath, t, quad)


def reference_storage(err, epsilon, t_c=1.0):
    """Linear-scan reference solver: march 60 log-spaced points over
    [1e-3, 1e4] * t_C upward to the first one with err >= epsilon, then
    bisect that grid cell geometrically to relative width 1e-6.

    Returns (t_store, bracket, cell).
    """
    grid = [float(t) for t in np.geomspace(1e-3 * t_c, 1e4 * t_c, 60)]
    assert err(grid[0]) < epsilon, "reference: crossing below the grid"
    i = next((i for i in range(1, len(grid)) if err(grid[i]) >= epsilon), None)
    assert i is not None, "reference: no crossing on the grid"
    lo, hi = grid[i - 1], grid[i]
    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        if err(mid) >= epsilon:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi), (lo, hi), (grid[i - 1], grid[i])


def assert_matches_reference(seq, bath, epsilon, quad, include_phase=False):
    def err(t):
        return storage_error(seq, bath, t, quad, include_phase)

    res = storage_time(seq, bath, epsilon, quad, include_phase=include_phase)
    t_ref, _, (cell_lo, cell_hi) = reference_storage(err, epsilon, 1.0 / bath.cutoff)
    lo, hi = res.bracket
    assert not res.floored
    assert cell_lo <= lo < hi <= cell_hi
    assert err(lo) < epsilon <= err(hi)
    assert hi / lo <= 1.0 + 1e-6
    assert abs(res.t_store / t_ref - 1.0) <= 1e-6
    assert res.evaluations <= 20


class TestStorageTime:
    def test_bracket_invariant(self, quad):
        bath = OhmicBath(alpha=0.25)
        res = storage_time(udd(2), bath, 1e-4, quad)
        lo, hi = res.bracket
        assert hi / lo <= 1.0 + 1e-6
        assert decay_error(udd(2), bath, lo, quad) < 1e-4
        assert decay_error(udd(2), bath, hi, quad) >= 1e-4
        assert lo <= res.t_store <= hi
        assert res.evaluations > 0
        assert not res.floored

    def test_floor_flag(self, quad):
        # error is already above a tiny threshold at the scan floor
        res = storage_time(udd(0), OhmicBath(alpha=0.25), 1e-12, quad)
        assert res.floored
        assert res.t_store == pytest.approx(1e-3)

    def test_range_exhausted_names_high_end(self, quad):
        with pytest.raises(RangeExhaustedError, match="high"):
            storage_time(udd(0), OhmicBath(alpha=0.0), 1e-4, quad)

    def test_epsilon_validation(self, quad):
        with pytest.raises(ValueError):
            storage_time(udd(0), OhmicBath(alpha=0.1), 0.0, quad)
        with pytest.raises(ValueError):
            storage_time(udd(0), OhmicBath(alpha=0.1), 1.0, quad)

    def test_deterministic(self, quad):
        bath = OhmicBath(alpha=0.1)
        a = storage_time(udd(3), bath, 1e-4, quad)
        b = storage_time(udd(3), bath, 1e-4, quad)
        assert a == b

    def test_phase_criterion_is_stricter(self, quad):
        # the deterministic phase caps the full-signal storage time far
        # below the decay-envelope one
        bath = OhmicBath(alpha=0.25)
        full = storage_time(udd(4), bath, 1e-4, quad, include_phase=True)
        decay = storage_time(udd(4), bath, 1e-4, quad)
        assert full.t_store < 0.3 * decay.t_store

    def test_nondecreasing_in_pulse_count_udd(self, quad):
        bath = OhmicBath(alpha=0.25)
        stores = [storage_time(udd(n), bath, 1e-4, quad).t_store
                  for n in (0, 1, 2, 5, 10)]
        assert all(b >= a for a, b in zip(stores, stores[1:]))

    def test_nondecreasing_within_parity_equidistant(self, quad):
        # odd equidistant counts echo the static component (quartic filter
        # onset) while even counts only give a quadratic one, so storage
        # time zig-zags with parity; monotonicity holds per parity class
        bath = OhmicBath(alpha=0.25)
        for chain in ((0, 2, 10, 20), (1, 5, 11, 21)):
            stores = [storage_time(equidistant(n), bath, 1e-4, quad).t_store
                      for n in chain]
            assert all(b >= a for a, b in zip(stores, stores[1:]))

    def test_equidistant_parity_zigzag_is_real(self, quad):
        # pin the counterexample so the restriction above stays justified
        bath = OhmicBath(alpha=0.25)
        t1 = storage_time(equidistant(1), bath, 1e-4, quad).t_store
        t2 = storage_time(equidistant(2), bath, 1e-4, quad).t_store
        assert t2 < t1

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_udd_dominates_equidistant(self, quad, n):
        bath = OhmicBath(alpha=0.25)
        t_udd = storage_time(udd(n), bath, 1e-4, quad).t_store
        t_eq = storage_time(equidistant(n), bath, 1e-4, quad).t_store
        assert t_udd >= t_eq

    def test_equidistant_scaling_linear_in_n(self, quad):
        bath = OhmicBath(alpha=0.25)
        scaled = [storage_time(equidistant(n), bath, 1e-4, quad).t_store / (n + 1)
                  for n in (10, 20, 50)]
        assert max(scaled) / min(scaled) < 3.0


class TestStorageOracle:
    """storage_time against the linear-scan reference solver."""

    @pytest.mark.parametrize("include_phase", [False, True], ids=["decay", "phase"])
    @pytest.mark.parametrize("temperature", [0.0, 0.1])
    @pytest.mark.parametrize("alpha", [0.25, 0.001])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 100])
    @pytest.mark.parametrize("build", [udd, equidistant], ids=["udd", "equidistant"])
    def test_generated_sequences(self, quad, build, n, alpha, temperature, include_phase):
        assert_matches_reference(build(n), OhmicBath(alpha=alpha, temperature=temperature),
                                 1e-4, quad, include_phase)

    def test_tabulated_bath_jittered_custom(self, quad):
        rng = np.random.default_rng(5)
        seq = custom((np.arange(1, 11) + rng.uniform(-0.3, 0.3, 10)) / 11)
        om = np.linspace(0.0, 2.0, 21)
        bath = TabulatedSpectralDensity(om, 0.5 * om * np.exp(-om ** 2), temperature=0.05)
        assert_matches_reference(seq, bath, 1e-4, quad)

    # a bump in W(w)/w: the error reaches epsilon, dips below it and
    # returns, so the grid search can miss the first crossing (ROADMAP item 1)
    BUMP_OMEGA = np.linspace(0.0, 1.0, 101)
    BUMP = TabulatedSpectralDensity(
        BUMP_OMEGA, 0.25 * BUMP_OMEGA ** 3 * np.exp(-((BUMP_OMEGA - 0.8) / 0.05) ** 2))

    @pytest.mark.xfail(strict=True, raises=(AssertionError, RangeExhaustedError),
                       reason="the grid search assumes one crossing; a bump table "
                              "breaks it (ROADMAP item 1)")
    @pytest.mark.parametrize("epsilon, t_first", [(0.0275, 3.63028), (0.053, 4.51840)])
    def test_bump_table_first_crossing(self, quad, epsilon, t_first):
        res = storage_time(udd(1), self.BUMP, epsilon, quad)
        t_ref, _, _ = reference_storage(lambda t: decay_error(udd(1), self.BUMP, t, quad),
                                        epsilon)
        assert t_ref == pytest.approx(t_first, rel=1e-5)
        assert res.t_store == pytest.approx(t_ref, rel=1e-6)

    def test_udd100_work_counter(self, quad):
        # machine-independent cost: the linear scan needed 65 evaluations
        res = storage_time(udd(100), OhmicBath(alpha=0.25), 1e-4, quad)
        assert res.evaluations <= 15

    def test_udd300_within_the_evaluation_ceiling(self, quad):
        # the documented ceiling, 6 grid evaluations and 20 ITP steps; this
        # solve takes all of them
        res = storage_time(udd(300), OhmicBath(alpha=0.25), 1e-4, quad)
        assert res.evaluations <= 6 + 20

    @pytest.mark.parametrize("shape", ["zero_step", "tiny_step", "kink"])
    def test_worst_case_is_one_step_beyond_bisection(self, quad, monkeypatch, shape):
        # errors that defeat interpolation: a jump from 0 or 1e-300 to 1, and
        # a kink in (ln t, ln err) with slopes 1e-3 and 1e3 about t0
        t0 = 0.7315

        def err(t):
            x = math.log(t / t0)
            if shape == "kink":
                return 1e-4 * math.exp(max(-700.0, min(9.0, (1e-3 if x < 0 else 1e3) * x)))
            return 1.0 if x >= 0 else (0.0 if shape == "zero_step" else 1e-300)

        monkeypatch.setattr(ddlab.analysis, "_error_fn", lambda *args: err)
        res = storage_time(udd(0), OhmicBath(alpha=0.1), 1e-4, quad)
        lo, hi = res.bracket
        assert lo < t0 <= hi and hi / lo <= 1.0 + 1e-6
        # 6 grid evaluations, and bisection needs 19 steps to shrink a grid
        # cell (ratio 10^(7/59)) to 1e-6
        assert res.evaluations <= 6 + 19 + 1


class TestMinPulses:
    def test_zero_when_target_already_met(self, quad):
        bath = OhmicBath(alpha=0.25)
        floor = storage_time(udd(0), bath, 1e-4, quad).t_store
        assert min_pulses("udd", bath, 1e-4, 0.5 * floor, quad) == 0

    def test_matches_linear_scan_oracle(self, quad):
        # brute-force scan of storage times is the independent reference
        bath = OhmicBath(alpha=0.25)
        t_target = 1.0
        expected = next(
            n for n in range(20)
            if storage_time(udd(n), bath, 1e-4, quad).t_store >= t_target)
        assert min_pulses("udd", bath, 1e-4, t_target, quad) == expected

    @pytest.mark.parametrize("t_target", [0.5, 1.1])
    def test_equidistant_matches_linear_scan_across_parity(self, quad, t_target):
        # equidistant storage times zig-zag with parity, so the smallest
        # count can sit well below the first n with store(n - 1) < t_target
        bath = OhmicBath(alpha=0.25)
        expected = next(
            n for n in range(40)
            if storage_time(equidistant(n), bath, 1e-4, quad).t_store >= t_target)
        assert min_pulses("equidistant", bath, 1e-4, t_target, quad) == expected

    def test_include_phase_matches_linear_scan_below_the_plateau(self, quad):
        bath = OhmicBath(alpha=0.25)
        t_target = 0.05658
        expected = next(
            n for n in range(8)
            if storage_time(udd(n), bath, 1e-4, quad, include_phase=True).t_store >= t_target)
        assert expected == 2
        assert min_pulses("udd", bath, 1e-4, t_target, quad, include_phase=True) == expected

    def test_include_phase_plateau_stops_the_search(self, quad, monkeypatch):
        # with the phase, udd storage times sit on a plateau near
        # sqrt(2 epsilon)/alpha from n = 4 on (bit-identical from n = 8); the
        # doubling used to run on to N_SEARCH_CAP, 18 solves
        solves = []

        def counted(seq, *args, **kwargs):
            solves.append(seq.n)
            return storage_time(seq, *args, **kwargs)

        monkeypatch.setattr("ddlab.analysis.storage_time", counted)
        with pytest.raises(SearchExhaustedError, match=r"stalls at 0\.0565790838"):
            min_pulses("udd", OhmicBath(alpha=0.25), 1e-4, 1.0, quad, include_phase=True)
        assert len(solves) <= 8
        assert max(solves) <= 16

    def test_each_count_solved_once(self, quad, monkeypatch):
        # every doubling step asks again for the count before it, and the
        # parity check for n - 2; the memo solves each count once
        solves = []

        def counted(seq, *args, **kwargs):
            solves.append(seq.n)
            return storage_time(seq, *args, **kwargs)

        monkeypatch.setattr("ddlab.analysis.storage_time", counted)
        assert min_pulses("equidistant", OhmicBath(alpha=0.25), 1e-4, 1.1, quad) >= 2
        assert len(solves) >= 4 and len(solves) == len(set(solves))

    def test_scheme_validation(self, quad):
        with pytest.raises(ValueError, match="scheme"):
            min_pulses("custom", OhmicBath(alpha=0.1), 1e-4, 1.0, quad)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, math.nan])
    def test_epsilon_validation(self, quad, epsilon):
        with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\)"):
            min_pulses("udd", OhmicBath(alpha=0.1), epsilon, 1.0, quad)

    def test_range_exhausted_counts_as_reaching_the_target(self, quad):
        # at alpha = 1e-6 free evolution never reaches epsilon inside the
        # scan range, which holds the target, so no pulse is needed
        with pytest.raises(RangeExhaustedError):
            storage_time(udd(0), OhmicBath(alpha=1e-6), 1e-4, quad)
        assert min_pulses("udd", OhmicBath(alpha=1e-6), 1e-4, 5.0, quad) == 0

    FLAT = TabulatedSpectralDensity([0.0, 1.0], [0.2, 0.2], temperature=0.1)

    def test_divergent_free_evolution_stores_at_zero(self, quad, monkeypatch):
        # J(0) > 0 at T > 0: free evolution's chi diverges (S1 = -1), udd(1)
        # and udd(2) converge (S1 = 0); store(0) reads 0 without a solve,
        # both where the search starts and where it asks for n - 2
        solves = []

        def counted(seq, *args, **kwargs):
            solves.append(seq.n)
            return storage_time(seq, *args, **kwargs)

        monkeypatch.setattr("ddlab.analysis.storage_time", counted)
        assert storage_time(udd(1), self.FLAT, 1e-4, quad).t_store < 1.0
        assert storage_time(udd(2), self.FLAT, 1e-4, quad).t_store >= 1.0
        solves.clear()
        assert min_pulses("udd", self.FLAT, 1e-4, 1.0, quad) == 2
        assert 0 not in solves

    def test_divergent_even_equidistant_still_raises(self, quad):
        # equidistant(2)'s chi diverges as well (S1 = -1/3): that count is
        # asked for, so the search ends with the configuration error
        with pytest.raises(ValueError, match=r"got S1 = -0\.333333$"):
            min_pulses("equidistant", self.FLAT, 1e-4, 1.0, quad)

    def test_search_cap_exhausted(self, quad, monkeypatch):
        monkeypatch.setattr("ddlab.analysis.N_SEARCH_CAP", 8)
        with pytest.raises(SearchExhaustedError, match="no pulse count up to 8 reaches storage 50"):
            min_pulses("udd", OhmicBath(alpha=0.25), 1e-4, 50.0, quad)

    def test_target_validation(self, quad):
        bath = OhmicBath(alpha=0.1)
        with pytest.raises(ValueError):
            min_pulses("udd", bath, 1e-4, 0.0, quad)
        with pytest.raises(ValueError):
            min_pulses("udd", bath, 1e-4, 1e6, quad)
        for t_target in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t_target"):
                min_pulses("udd", bath, 1e-4, t_target, quad)


class TestCompareSchemes:
    def test_layout_and_order(self, quad):
        table = compare_schemes(2, [0.25, 0.1], [0.0], [0.5, 1.0, 2.0], quad)
        assert type(table) is tuple and all(type(r) is SweepRow for r in table)
        assert len(table) == 2 * 2 * 1 * 3
        schemes = [r.scheme for r in table]
        assert schemes == ["equidistant"] * 6 + ["udd"] * 6
        # alpha blocks in given order, t ascending inside
        first_block = list(table)[:3]
        assert [r.alpha for r in first_block] == [0.25] * 3
        assert [r.t for r in first_block] == [0.5, 1.0, 2.0]
        assert all(r.error == "" for r in table)

    def test_rows_match_direct_signal(self, quad):
        table = compare_schemes(3, [0.1], [0.1], [0.7, 3.0], quad)
        for row in table:
            seq = udd(3) if row.scheme == "udd" else equidistant(3)
            bath = OhmicBath(alpha=row.alpha, temperature=row.temperature)
            assert row.s == pytest.approx(signal(seq, bath, row.t, quad).signal,
                                          abs=1e-10)
            assert row.one_minus_s == pytest.approx(1.0 - row.s, abs=1e-15)

    def test_single_pulse_schemes_coincide(self, quad):
        table = compare_schemes(1, [0.25], [0.0], [0.5, 1.0], quad)
        eq_rows = [r for r in table if r.scheme == "equidistant"]
        udd_rows = [r for r in table if r.scheme == "udd"]
        for a, b in zip(eq_rows, udd_rows):
            assert a.s == pytest.approx(b.s, abs=1e-12)

    def test_quadrature_failure_becomes_row_error(self, quad, monkeypatch):
        def failing(seq, bath, t, quad):
            raise QuadratureError("no convergence", estimate=0.0, error_bound=1.0)

        monkeypatch.setattr(ddlab.analysis, "signal", failing)
        table = compare_schemes(2, [0.25], [0.0], [1.0], quad)
        assert len(table) == 2
        for row in table:
            assert row.error == "QuadratureError: no convergence"
            assert math.isnan(row.s) and math.isnan(row.one_minus_s)

    def test_programming_error_propagates(self, quad, monkeypatch):
        # only QuadratureError becomes a row error: a cell with validated
        # inputs has no cause for a ValueError, so one is a fault
        for error in (TypeError, ValueError):
            def broken(seq, bath, t, quad):
                raise error("bad call")

            monkeypatch.setattr(ddlab.analysis, "signal", broken)
            with pytest.raises(error, match="bad call"):
                compare_schemes(2, [0.25], [0.0], [1.0], quad)

    def test_grid_validation(self, quad):
        with pytest.raises(ValueError):
            compare_schemes(2, [0.25], [0.0], [2.0, 1.0], quad)

    @pytest.mark.parametrize("alphas, temperatures, match", [
        ([0.25, -1.0], [0.0], "alpha must be >= 0"),
        ([0.25], [0.0, -0.5], "temperature must be >= 0")], ids=["alpha", "temperature"])
    def test_baths_checked_before_any_cell(self, quad, monkeypatch, alphas, temperatures,
                                           match):
        cells = []

        def counted(*args):
            cells.append(args)
            return signal(*args)

        monkeypatch.setattr(ddlab.analysis, "signal", counted)
        with pytest.raises(ValueError, match=match):
            compare_schemes(2, alphas, temperatures, [1.0, 2.0], quad)
        assert cells == []

    @pytest.mark.parametrize("alphas, temperatures, name", [
        ([], [0.0], "alphas"), ([0.25], np.array([]), "temperatures")],
        ids=["alphas", "temperatures"])
    def test_empty_axis_rejected_before_any_cell(self, quad, monkeypatch, alphas,
                                                 temperatures, name):
        # an empty axis would sweep nothing and return no rows
        cells = []

        def counted(*args):
            cells.append(args)
            return signal(*args)

        monkeypatch.setattr(ddlab.analysis, "signal", counted)
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            compare_schemes(2, alphas, temperatures, [1.0], quad)
        assert cells == []

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_grid_rejected(self, quad, t):
        with pytest.raises(ValueError, match="finite"):
            compare_schemes(2, [0.25], [0.0], [1.0, t], quad)

    @pytest.mark.parametrize("include_phase", [False, True])
    def test_storage_rows_are_storage_time(self, quad, include_phase):
        # per bath, alpha then temperature: one storage row per scheme, then
        # the udd/equidistant ratio, after every signal row
        table = compare_schemes(2, [0.25, 0.1], [0.0, 0.1], [1.0], quad, epsilon=1e-3,
                                include_phase=include_phase)
        assert [r.kind for r in table] == ["signal"] * 8 + ["storage", "storage", "ratio"] * 4
        storage = iter(table[8:])
        for alpha in (0.25, 0.1):
            for temp in (0.0, 0.1):
                bath = OhmicBath(alpha=alpha, temperature=temp)
                eq, ud, ratio = next(storage), next(storage), next(storage)
                stores = []
                for row, scheme, seq in ((eq, "equidistant", equidistant(2)),
                                         (ud, "udd", udd(2))):
                    t_store = storage_time(seq, bath, 1e-3, quad, include_phase).t_store
                    assert (row.scheme, row.n, row.alpha, row.temperature, row.t, row.error) == (
                        scheme, 2, alpha, temp, t_store, "")
                    assert math.isnan(row.s) and math.isnan(row.one_minus_s)
                    assert math.isnan(row.ratio)
                    stores.append(t_store)
                assert (ratio.scheme, ratio.alpha, ratio.temperature, ratio.error) == (
                    "udd/equidistant", alpha, temp, "")
                assert ratio.ratio == stores[1] / stores[0]
                assert math.isnan(ratio.t) and math.isnan(ratio.s)

    def test_without_epsilon_only_signal_rows(self, quad):
        table = compare_schemes(2, [0.25], [0.0], [1.0, 2.0], quad)
        assert [r.kind for r in table] == ["signal"] * 4
        assert all(math.isnan(r.ratio) for r in table)

    def test_each_bath_built_once(self, quad, monkeypatch):
        built = []

        def counted(**kwargs):
            built.append(kwargs)
            return OhmicBath(**kwargs)

        monkeypatch.setattr(ddlab.analysis, "OhmicBath", counted)
        compare_schemes(1, [0.25, 0.1], [0.0, 0.1], [1.0], quad, epsilon=1e-2)
        assert [(b["alpha"], b["temperature"]) for b in built] == [
            (0.25, 0.0), (0.25, 0.1), (0.1, 0.0), (0.1, 0.1)]

    def test_failed_solve_becomes_row_error(self, quad, monkeypatch):
        # alpha = 0 never reaches epsilon; a QuadratureError in a solve is
        # recorded too; a bath without both solves has no ratio row
        table = compare_schemes(2, [0.0, 0.25], [0.0], [1.0], quad, epsilon=1e-4)
        storage = [r for r in table if r.kind == "storage"]
        assert [(r.alpha, r.scheme) for r in storage] == [
            (0.0, "equidistant"), (0.0, "udd"), (0.25, "equidistant"), (0.25, "udd")]
        for r in storage[:2]:
            assert r.error.startswith("RangeExhaustedError: storage error stayed below")
            assert math.isnan(r.t)
        assert [r.alpha for r in table if r.kind == "ratio"] == [0.25]

        def failing(seq, *args):
            if seq == udd(2):
                raise QuadratureError("no convergence", estimate=0.0, error_bound=1.0)
            return storage_time(seq, *args)

        monkeypatch.setattr(ddlab.analysis, "storage_time", failing)
        table = compare_schemes(2, [0.25], [0.0], [1.0], quad, epsilon=1e-4)
        assert [(r.kind, r.scheme, r.error) for r in table[2:]] == [
            ("storage", "equidistant", ""),
            ("storage", "udd", "QuadratureError: no convergence")]

    @pytest.mark.parametrize("settings, match", [
        ({"include_phase": True}, "include_phase needs epsilon"),
        ({"epsilon": 0.0}, r"epsilon must be in \(0, 1\)"),
        ({"epsilon": 1.0, "include_phase": True}, r"epsilon must be in \(0, 1\)")],
        ids=["phase-without-epsilon", "epsilon-0", "epsilon-1"])
    def test_storage_settings_checked_before_any_cell(self, quad, monkeypatch, settings,
                                                      match):
        cells = []
        monkeypatch.setattr(ddlab.analysis, "signal", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match=match):
            compare_schemes(2, [0.25], [0.0], [1.0, 2.0], quad, **settings)
        assert cells == []
