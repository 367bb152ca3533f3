import pytest
from hypothesis import given, strategies as st

from ddlab import PulseSequence, custom, deltas_from_csv, equidistant, udd

# sin^2(pi j / 8), j = 1..3, with the exact midpoint
UDD3 = (0.14644660940672624, 0.5, 0.8535533905932737)


class TestEquidistant:
    def test_free_evolution(self):
        seq = equidistant(0)
        assert seq.deltas == ()
        assert seq.n == 0
        assert seq.scheme == "equidistant"

    def test_hahn_midpoint(self):
        assert equidistant(1).deltas == (0.5,)

    def test_quarters(self):
        assert equidistant(3).deltas == (0.25, 0.5, 0.75)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            equidistant(-1)


class TestUdd:
    def test_cpmg_exact(self):
        assert udd(2).deltas == (0.25, 0.75)

    def test_single_pulse_exact(self):
        assert udd(1).deltas == (0.5,)

    def test_three_pulses(self):
        assert udd(3).deltas == pytest.approx(UDD3, abs=1e-15)
        assert udd(3).deltas[1] == 0.5

    def test_matches_equidistant_below_two(self):
        for n in (0, 1):
            assert udd(n).deltas == equidistant(n).deltas

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 40])
    def test_differs_from_equidistant(self, n):
        assert udd(n).deltas != equidistant(n).deltas

    def test_scheme_tag(self):
        assert udd(4).scheme == "udd"


@pytest.mark.parametrize("build", [equidistant, udd])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 100, 101, 10000])
def test_generated_sequences_are_valid_and_symmetric(build, n):
    seq = build(n)
    assert seq.n == n
    ds = seq.deltas
    assert all(0.0 < d < 1.0 for d in ds)
    assert all(ds[i] < ds[i + 1] for i in range(n - 1))
    # mirror symmetry holds exactly by construction
    assert all(ds[j] + ds[n - 1 - j] == 1.0 for j in range(n))


class TestCustom:
    def test_valid(self):
        seq = custom([0.1, 0.9])
        assert seq.n == 2
        assert seq.scheme == "custom"

    def test_duplicate_names_index(self):
        with pytest.raises(ValueError, match=r"delta\[1\]"):
            custom([0.5, 0.5])

    def test_boundary_excluded(self):
        with pytest.raises(ValueError, match=r"delta\[0\]"):
            custom([0.0, 0.5])
        with pytest.raises(ValueError, match=r"delta\[1\]"):
            custom([0.5, 1.0])

    def test_non_increasing_rejected_not_sorted(self):
        with pytest.raises(ValueError, match=r"delta\[1\]"):
            custom([0.7, 0.3])

    @given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=30, unique=True))
    def test_sorted_unique_always_accepted(self, values):
        seq = custom(sorted(values))
        assert seq.n == len(values)


class TestCsvLoading:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("delta\n0.1\n0.5\n0.9\n")
        seq = deltas_from_csv(path)
        assert seq.deltas == (0.1, 0.5, 0.9)
        assert seq.scheme == "custom"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("d\n0.1\n")
        with pytest.raises(ValueError, match="delta"):
            deltas_from_csv(path)

    def test_malformed_values_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("delta\n0.9\n0.1\n")
        with pytest.raises(ValueError):
            deltas_from_csv(path)


def test_pulse_sequence_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        PulseSequence(deltas=(0.5,), scheme="cpmg")


def test_pulse_sequence_rejects_mislabelled_instants():
    # the label selects the analytic filter form, so it must match the instants
    for scheme in ("udd", "equidistant"):
        with pytest.raises(ValueError, match=rf"not the {scheme}\(2\) instants"):
            PulseSequence(deltas=(0.3, 0.6), scheme=scheme)
    assert PulseSequence(deltas=udd(5).deltas, scheme="udd") == udd(5)
    assert PulseSequence(deltas=equidistant(2).deltas, scheme="equidistant") == equidistant(2)
