import math

import pytest

import ddlab.analysis
from ddlab import (
    OhmicBath,
    QuadratureError,
    RangeExhaustedError,
    compare_schemes,
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

    def test_scheme_validation(self, quad):
        with pytest.raises(ValueError, match="scheme"):
            min_pulses("custom", OhmicBath(alpha=0.1), 1e-4, 1.0, quad)

    def test_target_validation(self, quad):
        bath = OhmicBath(alpha=0.1)
        with pytest.raises(ValueError):
            min_pulses("udd", bath, 1e-4, 0.0, quad)
        with pytest.raises(ValueError):
            min_pulses("udd", bath, 1e-4, 1e6, quad)


class TestCompareSchemes:
    def test_layout_and_order(self, quad):
        table = compare_schemes(2, [0.25, 0.1], [0.0], [0.5, 1.0, 2.0], quad)
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

    def test_metadata_records_grid(self, quad):
        table = compare_schemes(2, [0.25], [0.0], [1.0], quad)
        assert table.metadata["n"] == 2
        assert table.metadata["alphas"] == [0.25]
        assert table.metadata["quad"]["rel_tol"] == quad.rel_tol

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
        def broken(seq, bath, t, quad):
            raise TypeError("bad call")

        monkeypatch.setattr(ddlab.analysis, "signal", broken)
        with pytest.raises(TypeError, match="bad call"):
            compare_schemes(2, [0.25], [0.0], [1.0], quad)

    def test_grid_validation(self, quad):
        with pytest.raises(ValueError):
            compare_schemes(2, [0.25], [0.0], [2.0, 1.0], quad)
