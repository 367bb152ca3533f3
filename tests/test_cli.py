import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddlab
import ddlab.analysis
import ddlab.cli
import ddlab.decoherence
import ddlab.montecarlo
from ddlab.cli import RunConfig, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    data = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(data)))
    return comments, rows


def unrecognized(args, capsys):
    """Run a command line that argparse refuses: exit 2, before any work."""
    with pytest.raises(SystemExit) as exc_info:
        main(args)
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    return captured.err


def embedded_config(comments):
    line = next(ln for ln in comments if ln.startswith("# config: "))
    return json.loads(line[len("# config: "):])


class TestSignalCommand:
    def test_csv_shape_and_config_header(self, capsys):
        code, out, err = run_cli(
            ["signal", "--scheme", "udd", "--n", "2", "--alpha", "0.1",
             "--tmin", "0.1", "--tmax", "10", "--points", "40", "--quiet"], capsys)
        assert code == 0
        comments, rows = parse_csv(out)
        assert len(rows) == 40
        assert set(rows[0]) == {"t", "phi", "chi", "s", "one_minus_s",
                                "envelope_error", "saturated"}
        cfg = embedded_config(comments)
        assert cfg["scheme"] == "udd" and cfg["n"] == 2 and cfg["alpha"] == 0.1

    def test_decoupled_bath_gives_unit_signal(self, capsys):
        code, out, _ = run_cli(
            ["signal", "--n", "0", "--alpha", "0", "--points", "10",
             "--tmin", "0.1", "--tmax", "5", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r["s"]) == 1.0 for r in rows)

    def test_equidistant_100_crosses_threshold_near_five(self, capsys):
        # decay envelope crosses 1e-4 around t = 5 t_C for 100 pulses
        code, out, _ = run_cli(
            ["signal", "--scheme", "equidistant", "--n", "100", "--alpha", "0.25",
             "--tmin", "1", "--tmax", "20", "--points", "60", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        crossing = next(float(r["t"]) for r in rows
                        if float(r["envelope_error"]) >= 1e-4)
        assert 2.5 <= crossing <= 10.0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["signal", "--n", "1", "--points", "5", "--tmin", "0.5", "--tmax", "2",
             "--format", "json", "--quiet"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "signal"
        assert doc["version"]
        assert len(doc["rows"]) == 5
        assert doc["config"]["n"] == 1

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_single_point_is_tmin(self, capsys, spacing):
        code, out, _ = run_cli(
            ["signal", "--n", "1", "--points", "1", "--tmin", "0.7", "--tmax", "3",
             "--spacing", spacing, "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["t"] for r in rows] == ["0.7"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            ["signal", "--n", "0", "--points", "3", "--tmin", "1", "--tmax", "2",
             "--out", str(target), "--quiet"], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# ddlab")


class TestStorageCommand:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            ["storage", "--scheme", "udd", "--n", "2", "--alpha", "0.25",
             "--epsilon", "1e-3", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["t_store"]) > 0
        assert row["floored"] == "0"
        assert float(row["bracket_hi"]) / float(row["bracket_lo"]) <= 1 + 1e-6

    def test_range_exhausted_exit_code(self, capsys):
        code, _, err = run_cli(
            ["storage", "--n", "0", "--alpha", "0", "--epsilon", "1e-4",
             "--quiet"], capsys)
        assert code == 4
        assert "range" in err.lower()

    def test_mirror_symmetric_custom_matches_udd(self, capsys):
        # the instants are udd(2)'s, so the row is udd(2)'s but for the
        # scheme the command named
        args = ["storage", "--alpha", "0.2", "--epsilon", "1e-4", "--quiet"]
        code, out, _ = run_cli(args + ["--scheme", "custom", "--deltas", "0.25,0.75"], capsys)
        assert code == 0
        _, (row,) = parse_csv(out)
        code, out, _ = run_cli(args + ["--scheme", "udd", "--n", "2"], capsys)
        assert code == 0
        _, (udd_row,) = parse_csv(out)
        assert row["scheme"] == "custom"
        row["scheme"] = "udd"
        assert row == udd_row

    def test_custom_udd3_instants_solve_as_udd3(self, capsys):
        # the udd(3) instants under scheme custom take udd(3)'s Bessel form:
        # the direct sums sit at their rounding floor at the scan's small t
        args = ["storage", "--alpha", "0.25", "--epsilon", "1e-4", "--quiet"]
        code, out, _ = run_cli(args + ["--scheme", "custom", "--deltas",
                                       "0.14644660940672624,0.5,0.8535533905932737"], capsys)
        assert code == 0
        _, (row,) = parse_csv(out)
        assert row["t_store"] == "2.184858352783554"
        _, (udd_row,) = parse_csv(run_cli(args + ["--scheme", "udd", "--n", "3"], capsys)[1])
        assert {**row, "scheme": "udd"} == udd_row

    def test_mirror_symmetric_custom_from_file(self, tmp_path, capsys, quad):
        path = tmp_path / "seq.csv"
        path.write_text("delta\n0.2\n0.5\n0.8\n")
        code, out, _ = run_cli(
            ["storage", "--scheme", "custom", "--deltas-file", str(path),
             "--alpha", "0.2", "--epsilon", "1e-4", "--quiet"], capsys)
        assert code == 0
        _, (row,) = parse_csv(out)
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
        assert row["n"] == "3" and row["floored"] == "0"
        assert hi / lo <= 1 + 1e-6
        seq, bath = ddlab.custom([0.2, 0.5, 0.8]), ddlab.OhmicBath(alpha=0.2)

        def err(t):
            return -math.expm1(-2.0 * ddlab.chi(seq, bath, t, quad))

        assert err(lo) < 1e-4 <= err(hi)


class TestTableBathAlphaColumn:
    """A table sets the bath, so the data row leaves alpha empty, and the run
    takes alpha and omega_d only at their defaults."""

    @pytest.fixture
    def linear_table(self, tmp_path):
        # J = 0.2 w, the ohmic bath with alpha = 0.1
        path = tmp_path / "lin.csv"
        path.write_text("omega,J\n0.0,0.0\n0.5,0.1\n1.0,0.2\n")
        return str(path)

    ARGS = {
        "storage": ["storage", "--n", "2"],
        "min-pulses": ["min-pulses", "--scheme", "udd", "--epsilon", "1e-3", "--t-target", "2"],
    }

    @pytest.mark.parametrize("command", list(ARGS))
    def test_alpha_empty_whatever_the_flag(self, capsys, linear_table, command):
        # the default alpha, given as a flag or not, leaves the cell empty
        args = self.ARGS[command] + ["--bath-csv", linear_table, "--quiet"]
        code, out, _ = run_cli(args + ["--alpha", "0.1"], capsys)
        assert code == 0
        _, (row,) = parse_csv(out)
        assert row["alpha"] == ""
        code, plain, _ = run_cli(args, capsys)
        assert code == 0
        _, (plain_row,) = parse_csv(plain)
        assert plain_row == row
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["alpha"] is None

    @pytest.mark.parametrize("command, name, value", [
        ("storage", "alpha", 0.7), ("storage", "omega_d", 2.0), ("min-pulses", "alpha", 0.7),
        ("min-pulses", "omega_d", 2.0)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_other_alpha_or_omega_d_exit_2(self, tmp_path, capsys, linear_table, command,
                                           name, value, source):
        # the table's J replaces the ohmic bath: another alpha or omega_d
        # would be recorded in the embedded config but never used
        args = self.ARGS[command] + ["--bath-csv", linear_table, "--quiet"]
        if source == "flag":
            args += ["--" + name.replace("_", "-"), repr(value)]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({name: value}))
            args += ["--config", str(cfg)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        reads = "scheme, n, temperature, bath_csv" if command == "storage" else \
            "scheme, temperature, bath_csv"
        assert err == (f"ddlab: configuration error: {command} does not read {name}; its "
                       f"sequence and bath inputs are {reads}\n")

    def test_ohmic_bath_keeps_alpha(self, capsys):
        code, out, _ = run_cli(["storage", "--n", "2", "--alpha", "0.25", "--quiet"], capsys)
        assert code == 0
        _, (row,) = parse_csv(out)
        assert row["alpha"] == "0.25"


class TestMinPulsesCommand:
    def test_reports_count(self, capsys):
        code, out, _ = run_cli(
            ["min-pulses", "--scheme", "udd", "--alpha", "0.25",
             "--epsilon", "1e-4", "--t-target", "1.0", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["n_min"] == "2"

    def test_include_phase_plateau_exit_4(self, capsys, monkeypatch):
        solves = []
        storage_time = ddlab.analysis.storage_time

        def counted(seq, *args, **kwargs):
            solves.append(seq.n)
            return storage_time(seq, *args, **kwargs)

        monkeypatch.setattr("ddlab.analysis.storage_time", counted)
        code, out, err = run_cli(
            ["min-pulses", "--scheme", "udd", "--alpha", "0.25", "--epsilon", "1e-4",
             "--t-target", "1.0", "--include-phase", "--quiet"], capsys)
        assert code == 4
        assert out == ""
        assert "storage time stalls at 0.05657908389" in err
        assert len(solves) <= 8

    def test_custom_scheme_exit_2(self, tmp_path, capsys):
        # min-pulses generates its sequences: it has no deltas flag, its
        # --scheme offers no custom, and min_pulses refuses scheme custom
        # from a config file before any solve
        assert "--deltas 0.5" in unrecognized(["min-pulses", "--deltas", "0.5", "--quiet"],
                                              capsys)
        with pytest.raises(SystemExit) as exc_info:
            main(["min-pulses", "--scheme", "custom", "--t-target", "1", "--quiet"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --scheme: invalid choice: 'custom'" in captured.err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scheme": "custom"}))
        code, out, err = run_cli(["min-pulses", "--config", str(cfg), "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "scheme must be one of ['equidistant', 'udd'], got 'custom'" in err

    def test_help_offers_the_generated_schemes(self, capsys):
        # min-pulses offers udd and equidistant; the commands that take a
        # custom sequence still offer custom
        offered = {command: next(a.choices for a in parser._actions if a.dest == "scheme")
                   for command, parser in TestParser.subparsers().items()
                   if command != "compare"}
        assert offered == {"signal": ("udd", "equidistant", "custom"),
                           "storage": ("udd", "equidistant", "custom"),
                           "min-pulses": ("udd", "equidistant"),
                           "mc": ("udd", "equidistant", "custom")}
        with pytest.raises(SystemExit):
            main(["min-pulses", "--help"])
        assert "--scheme {udd,equidistant}]" in capsys.readouterr().out


class TestCompareCommand:
    def test_table_layout(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--n", "1", "--alphas", "0.25", "--temperatures", "0",
             "--tmin", "0.5", "--tmax", "2", "--points", "3", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6  # 2 schemes x 1 alpha x 1 T x 3 times
        assert all(r["kind"] == "signal" for r in rows)
        eq = [r for r in rows if r["scheme"] == "equidistant"]
        ud = [r for r in rows if r["scheme"] == "udd"]
        for a, b in zip(eq, ud):
            assert float(a["s"]) == pytest.approx(float(b["s"]), abs=1e-12)

    def test_storage_and_ratio_rows_with_epsilon(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--n", "2", "--alphas", "0.25", "--temperatures", "0",
             "--tmin", "0.5", "--tmax", "1", "--points", "2",
             "--epsilon", "1e-3", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        storage = [r for r in rows if r["kind"] == "storage"]
        ratio = [r for r in rows if r["kind"] == "ratio"]
        assert {r["scheme"] for r in storage} == {"equidistant", "udd"}
        assert len(ratio) == 1
        assert float(ratio[0]["ratio"]) >= 1.0

    def test_uncoupled_alpha_gives_storage_errors_and_no_ratio(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--n", "2", "--alphas", "0,0.25", "--temperatures", "0",
             "--tmin", "0.5", "--tmax", "1", "--points", "2",
             "--epsilon", "1e-4", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        storage = [r for r in rows if r["kind"] == "storage" and r["alpha"] == "0.0"]
        assert [r["scheme"] for r in storage] == ["equidistant", "udd"]
        for r in storage:
            assert r["t"] == ""
            assert r["error"].startswith("RangeExhaustedError: storage error stayed below")
        assert [r["alpha"] for r in rows if r["kind"] == "ratio"] == ["0.25"]

    @pytest.mark.parametrize("flag", ["--alphas=0.25,-1", "--temperatures=0,-0.5"])
    def test_bad_bath_exit_2_before_any_cell(self, capsys, monkeypatch, flag):
        cells = []
        monkeypatch.setattr(ddlab.analysis, "signal", lambda *args: cells.append(args))
        code, out, err = run_cli(["compare", "--n", "2", flag, "--tmin", "1", "--tmax", "2",
                                  "--points", "2", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "must be >= 0" in err
        assert cells == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_include_phase_needs_epsilon_exit_2(self, tmp_path, capsys, monkeypatch, source):
        # include_phase selects only the storage rows' error, which need
        # epsilon; without it the flag would be recorded and ignored
        cells = []
        monkeypatch.setattr(ddlab.analysis, "signal", lambda *args: cells.append(args))
        args = ["compare", "--n", "2", "--alphas", "0.25", "--tmin", "1", "--tmax", "2",
                "--points", "2", "--quiet"]
        if source == "flag":
            args.append("--include-phase")
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"include_phase": True}))
            args += ["--config", str(cfg)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err == ("ddlab: configuration error: include_phase needs epsilon, since only "
                       "the storage rows read it\n")
        assert cells == []

    def test_rows_come_from_compare_schemes(self, capsys, monkeypatch):
        # the command formats compare_schemes' rows: it builds no bath and
        # solves nothing itself
        def unreachable(*args, **kwargs):
            raise AssertionError("cmd_compare built a bath or solved")

        monkeypatch.setattr(ddlab.cli, "storage_time", unreachable)
        monkeypatch.setattr(ddlab.cli, "OhmicBath", unreachable)
        code, out, _ = run_cli(
            ["compare", "--n", "2", "--alphas", "0.25", "--temperatures", "0,0.1",
             "--tmin", "0.5", "--tmax", "1", "--points", "2", "--epsilon", "1e-3",
             "--include-phase", "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        table = ddlab.compare_schemes(2, (0.25,), (0.0, 0.1), np.geomspace(0.5, 1.0, 2),
                                      epsilon=1e-3, include_phase=True)
        assert [r["kind"] for r in rows] == [r.kind for r in table]
        for cells, r in zip(rows, table):
            if r.kind == "storage":
                assert (float(cells["t"]), cells["s"], cells["ratio"]) == (r.t, "", "")
            if r.kind == "ratio":
                assert (cells["t"], float(cells["ratio"])) == ("", r.ratio)

    @pytest.mark.parametrize("epsilon", ["2", "0", "-1e-4", "1"])
    def test_bad_epsilon_exit_2_before_any_cell(self, capsys, monkeypatch, epsilon):
        def unreachable(*args, **kwargs):
            raise AssertionError("compare_schemes called")

        monkeypatch.setattr(ddlab.cli, "compare_schemes", unreachable)
        code, out, err = run_cli(["compare", "--n", "100", f"--epsilon={epsilon}",
                                  "--points", "50", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "epsilon must be in (0, 1)" in err

    def test_every_cell_failing_exit_3(self, capsys, monkeypatch):
        def failing(seq, bath, t, quad):
            raise ddlab.QuadratureError("no convergence", estimate=0.0, error_bound=1.0)

        monkeypatch.setattr(ddlab.analysis, "signal", failing)
        code, out, err = run_cli(
            ["compare", "--n", "2", "--alphas", "0.25", "--temperatures", "0",
             "--tmin", "0.5", "--tmax", "1", "--points", "2", "--quiet"], capsys)
        assert code == 3
        assert out == ""
        assert "every sweep cell failed" in err

    @pytest.mark.parametrize("with_epsilon", [True, False])
    def test_epsilon_in_config_file_toggles_storage(self, tmp_path, capsys, with_epsilon):
        cfg = {"n": 2, "alphas": [0.25], "temperatures": [0.0],
               "tmin": 0.5, "tmax": 1.0, "points": 2}
        if with_epsilon:
            cfg["epsilon"] = 1e-3
        path = tmp_path / "compare.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["compare", "--config", str(path), "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        kinds = [r["kind"] for r in rows]
        assert kinds[:4] == ["signal"] * 4
        if with_epsilon:
            assert kinds[4:] == ["storage", "storage", "ratio"]
            assert [r["scheme"] for r in rows[4:6]] == ["equidistant", "udd"]
        else:
            assert kinds[4:] == []


    def test_config_integers_print_as_floats_in_every_row(self, tmp_path, capsys):
        # every row takes alpha and temperature from the bath compare_schemes
        # built, so an integer in a config file prints alike in all kinds
        path = tmp_path / "compare.json"
        path.write_text(json.dumps({"n": 2, "alphas": [1], "temperatures": [0],
                                    "epsilon": 1e-3, "tmin": 0.5, "tmax": 1.0, "points": 2}))
        code, out, _ = run_cli(["compare", "--config", str(path), "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["kind"] for r in rows] == ["signal"] * 4 + ["storage", "storage", "ratio"]
        assert {(r["alpha"], r["temperature"]) for r in rows} == {("1.0", "0.0")}

    @pytest.mark.parametrize("flag, value, field", [
        ("--bath-csv", "missing.csv", "bath_csv"),
        ("--deltas", "0.5", "deltas"),
        ("--deltas-file", "missing.csv", "deltas_file")])
    def test_unused_sequence_and_bath_inputs_rejected(self, tmp_path, capsys, flag, value,
                                                      field):
        # compare sweeps the ohmic baths of --alphas with the generated
        # schemes; a custom sequence or a table would be silently ignored,
        # so it has no flag for them, and a config file may not set them
        args = ["compare", "--n", "2", "--alphas", "0.25", "--tmin", "1", "--tmax", "2",
                "--points", "2", "--quiet"]
        assert f"{flag} {value}" in unrecognized(args + [flag, value], capsys)
        assert "--scheme custom" in unrecognized(args + ["--scheme", "custom"], capsys)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: [0.5] if field == "deltas" else value}))
        code, out, err = run_cli(args + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert f"compare does not read {field};" in err

    @pytest.mark.parametrize("flags", [["--alpha", "0.5"], ["--temperature", "0.3"],
                                       ["--alpha", "0.5", "--temperature", "0.3"]],
                             ids=["alpha", "temperature", "both"])
    def test_single_bath_flags_rejected(self, capsys, flags):
        # compare sweeps --alphas and --temperatures; a single value would
        # be ignored, and an abbreviation must not pass for the sweep flag
        with pytest.raises(SystemExit) as exc_info:
            main(["compare", "--n", "1", "--points", "2", "--tmin", "1", "--tmax", "2",
                  *flags])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("values, sweeps", [
        ({"alpha": 0.5}, ["alphas"]), ({"temperature": 0.3}, ["temperatures"]),
        ({"alpha": 0.5, "temperature": 0.3}, ["alphas"])],
        ids=["alpha", "temperature", "both"])
    def test_single_bath_config_values_rejected(self, tmp_path, capsys, values, sweeps):
        # a config file can still carry alpha or temperature; the sweep would
        # record them in the embedded config and ignore them
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(["compare", "--config", str(cfg), "--n", "1", "--points",
                                  "2", "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert all(sweep in err for sweep in sweeps)

    @pytest.mark.parametrize("field", ["alphas", "temperatures"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_sweep_axis_exit_2(self, tmp_path, capsys, field, source):
        args = ["compare", "--n", "2", "--tmin", "1", "--tmax", "2", "--points", "2",
                "--quiet"]
        if source == "flag":
            args += [f"--{field}", ""]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({field: []}))
            args += ["--config", str(cfg)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert f"{field} must not be empty" in err


class TestUnreadInputs:
    """A command offers exactly the sequence and bath inputs it reads; a
    config file may set any other only to its RunConfig default."""

    READS = {
        "signal": ddlab.cli._SOURCES,
        "storage": ddlab.cli._SOURCES,
        "min-pulses": ("scheme", "alpha", "temperature", "omega_d", "bath_csv"),
        "compare": ("n", "omega_d", "alphas", "temperatures"),
        "mc": ("scheme", "n", "alpha", "temperature", "omega_d", "deltas", "deltas_file"),
    }
    # a value other than the default for each input
    OTHER = {"scheme": "equidistant", "n": 5, "alpha": 0.5, "temperature": 0.3,
             "deltas": [0.5], "deltas_file": "seq.csv", "bath_csv": "bath.csv",
             "alphas": [0.5], "temperatures": [0.3]}

    @pytest.mark.parametrize("command", list(READS))
    def test_offered_flags_are_the_read_inputs(self, command):
        parser = TestParser.subparsers()[command]
        offered = [a.dest for a in parser._actions if a.dest in ddlab.cli._INPUTS]
        assert tuple(offered) == self.READS[command]

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, reads in READS.items()
        for name in ddlab.cli._INPUTS if name not in reads])
    def test_unread_input_in_config_exit_2(self, tmp_path, capsys, monkeypatch, command,
                                           name):
        def unreachable(cfg):
            raise AssertionError("the command ran")

        entry = ddlab.cli._COMMANDS[command]
        monkeypatch.setitem(ddlab.cli._COMMANDS, command, (unreachable, *entry[1:]))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({name: self.OTHER[name]}))
        code, out, err = run_cli([command, "--config", str(cfg), "--quiet"], capsys)
        assert code == 2
        assert out == ""
        # under the default scheme udd the deltas are not read either
        reads = [s for s in self.READS[command] if s not in ("deltas", "deltas_file")]
        assert err == (f"ddlab: configuration error: {command} does not read {name}; its "
                       f"sequence and bath inputs are {', '.join(reads)}\n")

    def test_rule_comes_before_the_settings_checks(self, tmp_path, capsys):
        # compare reads n but not scheme: the scheme is named, not the n
        # that scheme custom would refuse
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scheme": "custom"}))
        code, out, err = run_cli(["compare", "--config", str(cfg), "--n", "5", "--quiet"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "compare does not read scheme;" in err


class TestMcCommand:
    def test_zero_coupling_is_exact(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--n", "0", "--alpha", "0", "--t", "1.0", "--samples", "200",
             "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["mean"]) == 1.0
        assert float(row["z_score"]) == 0.0

    def test_z_score_against_analytic(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--scheme", "udd", "--n", "1", "--alpha", "0.1",
             "--temperature", "0.25", "--t", "2.0", "--samples", "2000",
             "--dt", "0.01", "--mode-count", "256", "--seed", "7",
             "--quiet"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["z_score"])) <= 3.0

    def test_unbounded_step_count_exit_2(self, capsys):
        # t / dt overflows a float: no trajectory grid, a configuration error
        code, out, err = run_cli(["mc", "--scheme", "udd", "--n", "2", "--t", "1e308",
                                  "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "t / dt must be finite" in err

    @staticmethod
    def forbid_chi_and_draws(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("chi evaluated or trajectories drawn")

        monkeypatch.setattr(ddlab.cli, "chi", unreachable)
        monkeypatch.setattr(ddlab.montecarlo, "_scaled_responses", unreachable)
        monkeypatch.setattr(ddlab.montecarlo, "_batched_phases", unreachable)

    @pytest.mark.parametrize("flag, value, name", [("--samples", "10000001", "samples"),
                                                   ("--mode-count", "16385", "mode_count")])
    def test_work_ceilings_exit_2_before_any_draw(self, capsys, monkeypatch, flag, value, name):
        # the ceilings are mc_signal's, checked before chi and any draw
        self.forbid_chi_and_draws(monkeypatch)
        code, out, err = run_cli(["mc", "--scheme", "udd", "--n", "2", "--t", "1", flag, value,
                                  "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert f"{name} must be <= {int(value) - 1}" in err

    def test_work_ceilings_themselves_allowed(self, monkeypatch):
        # the responses stop the run once the settings have passed
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(ddlab.montecarlo, "_scaled_responses", reached)
        with pytest.raises(Reached):
            main(["mc", "--scheme", "udd", "--n", "2", "--t", "1", "--samples", "10000000",
                  "--mode-count", "16384", "--quiet"])

    def test_step_ceiling_exit_2_before_any_draw(self, capsys, monkeypatch):
        # 10^14 steps would ask for hundreds of TiB of grid
        self.forbid_chi_and_draws(monkeypatch)
        code, out, err = run_cli(["mc", "--scheme", "udd", "--n", "2", "--t", "1e12", "--dt",
                                  "0.01", "--samples", "100", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "t / dt must be finite and <= 1048576" in err

    def test_step_ceiling_itself_allowed(self, capsys, monkeypatch):
        # t / dt = 2^20 exactly passes on to chi; one dt more is refused
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(ddlab.cli, "chi", reached)
        args = ["mc", "--scheme", "udd", "--n", "2", "--dt", "0.5", "--quiet"]
        with pytest.raises(Reached):
            main(args + ["--t", str(float(1 << 19))])
        self.forbid_chi_and_draws(monkeypatch)
        code, out, err = run_cli(args + ["--t", str((1 << 19) + 0.5)], capsys)
        assert (code, out) == (2, "")
        assert "t / dt must be finite and <= 1048576" in err

    def test_analytic_reference_before_any_draw(self, capsys, monkeypatch):
        # chi fails at 16 panels: no trajectory is drawn for it
        def unreachable(*args, **kwargs):
            raise AssertionError("trajectories drawn")

        monkeypatch.setattr(ddlab.montecarlo, "_scaled_responses", unreachable)
        monkeypatch.setattr(ddlab.montecarlo, "_batched_phases", unreachable)
        code, out, err = run_cli(["mc", "--scheme", "udd", "--n", "8", "--t", "200",
                                  "--max-panels", "16", "--samples", "100000", "--quiet"], capsys)
        assert code == 3
        assert out == ""
        assert "chi(t=200): no convergence within 16 panels" in err

    @pytest.mark.parametrize("args", [
        ["signal", "--scheme", "udd", "--n", "2", "--tmin", "1", "--tmax", "2", "--points", "2"],
        ["storage", "--scheme", "udd", "--n", "4"],
        ["min-pulses", "--scheme", "udd", "--alpha", "1e-6", "--t-target", "5"],
        ["compare", "--n", "2", "--alphas", "0.1", "--tmin", "1", "--tmax", "2",
         "--points", "2"]])
    def test_other_commands_ignore_monte_carlo_values(self, tmp_path, capsys, args):
        # values beyond mc's ceilings are no error where no trajectory is drawn
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"samples": 2 * 10**7, "mode_count": 2**15, "t": 1e12,
                                   "dt": 0.01}))
        code, out, _ = run_cli(args + ["--config", str(cfg), "--quiet"], capsys)
        assert code == 0
        assert embedded_config(parse_csv(out)[0])["samples"] == 2 * 10**7

    def test_output_fields_unchanged(self, capsys):
        # McEstimate also carries the model mean; mc prints the same
        # explicit fields as before
        code, out, _ = run_cli(["mc", "--scheme", "udd", "--n", "1", "--t", "1.0",
                                "--samples", "200", "--format", "json", "--quiet"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc["rows"][0]) == ["t", "mean", "stderr", "samples", "seed", "analytic",
                                        "z_score"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bath_csv_rejected(self, tmp_path, capsys, source):
        # the Monte Carlo path only has the ohmic classical twin
        args = ["mc", "--scheme", "udd", "--n", "2", "--alpha", "0.2", "--t", "1",
                "--samples", "200", "--quiet"]
        missing = str(tmp_path / "missing.csv")
        if source == "flag":
            unrecognized(args + ["--bath-csv", missing], capsys)
            return
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bath_csv": missing}))
        code, out, err = run_cli(args + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "mc does not read bath_csv;" in err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "alpha": 0.2, "points": 4,
                                   "tmin": 0.5, "tmax": 2.0}))
        code, out, _ = run_cli(
            ["signal", "--config", str(cfg), "--alpha", "0.3", "--quiet"], capsys)
        assert code == 0
        comments, rows = parse_csv(out)
        resolved = embedded_config(comments)
        assert resolved["alpha"] == 0.3  # flag wins
        assert resolved["n"] == 3        # file value kept
        assert len(rows) == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pulses": 3}))
        code, _, err = run_cli(["signal", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown" in err

    def test_bad_values_exit_2(self, capsys):
        assert run_cli(["signal", "--n", "-1", "--quiet"], capsys)[0] == 2
        assert run_cli(["signal", "--points", "0", "--quiet"], capsys)[0] == 2
        assert run_cli(["signal", "--tmin", "0", "--spacing", "log",
                        "--quiet"], capsys)[0] == 2

    def test_infinite_tmax_exit_2(self, capsys):
        code, _, err = run_cli(["signal", "--tmax", "inf", "--quiet"], capsys)
        assert code == 2
        assert "tmax must be finite" in err

    @pytest.mark.parametrize("field", ["alpha", "temperature", "epsilon", "t_target",
                                       "tmax", "t", "rel_tol", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["alphas", "temperatures", "deltas"])
    def test_non_finite_tuple_entry_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RunConfig(**{field: (0.25, math.nan)})

    @pytest.mark.parametrize("field, value", [
        ("alpha", "0.1"), ("n", 2.5), ("n", True), ("quiet", "no"),
        ("alphas", [0.25, "0.1"])])
    def test_wrongly_typed_config_value_exit_2(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        # storage does not read alphas, so it refuses any value; compare does
        command = "compare" if field == "alphas" else "storage"
        code, out, err = run_cli([command, "--config", str(cfg), "--epsilon", "1e-3"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"ddlab: configuration error: {field} must be ")

    def test_int_for_float_field_kept_as_int(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1, "epsilon": None, "deltas": None}))
        code, out, _ = run_cli(["storage", "--config", str(cfg), "--quiet"], capsys)
        assert code == 0
        resolved = embedded_config(parse_csv(out)[0])
        assert type(resolved["alpha"]) is int

    def test_custom_scheme_needs_deltas(self, capsys):
        code, out, err = run_cli(["signal", "--scheme", "custom", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "scheme custom needs exactly one of deltas and deltas_file" in err

    @pytest.mark.parametrize("args", [
        ["signal", "--points", "2", "--tmin", "1", "--tmax", "2"], ["storage"],
        ["compare", "--alphas", "0.25", "--points", "2", "--tmin", "1", "--tmax", "2"],
        ["mc", "--t", "1", "--samples", "100"]], ids=["signal", "storage", "compare", "mc"])
    def test_negative_n_exit_2_before_any_work(self, capsys, monkeypatch, args):
        # the generators refuse a negative count before any quadrature
        def unreachable(*args, **kwargs):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(ddlab.decoherence, "integrate_adaptive", unreachable)
        code, out, err = run_cli(args + ["--n", "-1", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "n must be >= 0, got -1" in err

    @pytest.mark.parametrize("command", [
        ["storage", "--n", "2"], ["min-pulses", "--t-target", "1"]])
    @pytest.mark.parametrize("flag, value, field", [
        ("--deltas", "0.3,0.6", "deltas"), ("--deltas-file", "missing.csv", "deltas_file")])
    def test_deltas_need_custom_scheme(self, capsys, command, flag, value, field):
        # a generated scheme builds its own instants; the deltas would be
        # recorded in the embedded config but never used; min-pulses only
        # generates, so it has no flag for them
        args = command + ["--scheme", "udd", flag, value, "--quiet"]
        if command[0] == "min-pulses":
            unrecognized(args, capsys)
            return
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err == (f"ddlab: configuration error: storage does not read {field}; its "
                       "sequence and bath inputs are scheme, n, alpha, temperature, omega_d, "
                       "bath_csv\n")

    @pytest.mark.parametrize("command", [
        ["signal", "--points", "2", "--tmin", "1", "--tmax", "2"], ["storage"],
        ["mc", "--t", "1", "--samples", "100"]], ids=["signal", "storage", "mc"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_n_needs_generated_scheme(self, tmp_path, capsys, command, source):
        # custom instants fix the pulse count; an n would be recorded in the
        # embedded config but never used
        args = command + ["--scheme", "custom", "--deltas", "0.5", "--quiet"]
        if source == "flag":
            args += ["--n", "5"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"n": 5}))
            args += ["--config", str(cfg)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        tables = ", bath_csv" if command[0] != "mc" else ""
        assert err == (f"ddlab: configuration error: {command[0]} does not read n; its "
                       "sequence and bath inputs are scheme, alpha, temperature, omega_d, "
                       f"deltas, deltas_file{tables}\n")
        assert RunConfig(scheme="custom", deltas=(0.5,), n=0).n == 0

    def test_inline_and_file_deltas_exclude_each_other(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("delta\n0.25\n0.75\n")
        code, out, err = run_cli(
            ["signal", "--scheme", "custom", "--deltas", "0.5", "--deltas-file", str(path),
             "--points", "2", "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "scheme custom needs exactly one of deltas and deltas_file" in err

    def test_quadrature_failure_exit_3(self, capsys):
        code, _, err = run_cli(
            ["signal", "--scheme", "equidistant", "--n", "2", "--alpha", "0.25",
             "--tmin", "900", "--tmax", "1000", "--points", "2",
             "--max-panels", "16", "--quiet"], capsys)
        assert code == 3
        assert "quadrature" in err.lower()

    def test_round_trip_reproducible(self, capsys):
        args = ["signal", "--n", "2", "--alpha", "0.1", "--points", "5",
                "--tmin", "0.5", "--tmax", "5", "--quiet"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    COMPARE = ["compare", "--n", "2", "--alphas", "0.25", "--temperatures", "0",
               "--tmin", "0.5", "--tmax", "1", "--points", "2"]

    @pytest.mark.parametrize("args", [
        ["signal", "--n", "2", "--alpha", "0.15", "--points", "4",
         "--tmin", "0.5", "--tmax", "4"],
        ["storage", "--scheme", "udd", "--n", "2", "--alpha", "0.25"],
        ["min-pulses", "--scheme", "udd", "--alpha", "0.25", "--epsilon", "1e-3",
         "--t-target", "2"],
        COMPARE,
        COMPARE + ["--epsilon", "1e-3"],
        ["mc", "--scheme", "udd", "--n", "1", "--alpha", "0.1", "--t", "1",
         "--samples", "100"],
    ], ids=["signal", "storage", "min-pulses", "compare", "compare-epsilon", "mc"])
    def test_rerun_from_embedded_config(self, tmp_path, capsys, args):
        code, out, _ = run_cli(args + ["--quiet"], capsys)
        assert code == 0
        comments, _ = parse_csv(out)
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(embedded_config(comments)))
        code2, out2, _ = run_cli([args[0], "--config", str(cfg_path), "--quiet"],
                                 capsys)
        assert code2 == 0
        assert out2 == out

    def test_quiet_suppresses_progress(self, capsys):
        _, _, noisy = run_cli(["signal", "--n", "0", "--points", "2",
                               "--tmin", "1", "--tmax", "2"], capsys)
        assert noisy != ""
        _, _, quiet = run_cli(["signal", "--n", "0", "--points", "2",
                               "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert quiet == ""


def rows_under_blas_threads(argv, thread_counts):
    """The data rows of `python -m ddlab.cli *argv` with OPENBLAS_NUM_THREADS
    unset (None) or set to each count."""
    src = str(Path(ddlab.__file__).resolve().parents[1])
    rows = []
    for threads in thread_counts:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "ddlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        rows.append([ln for ln in proc.stdout.splitlines() if not ln.startswith("#")])
    return rows


class TestDeterminism:
    def test_storage_rows_independent_of_blas_threads(self):
        # the filter kernel hands row sums to BLAS; a rerun must give the
        # same bytes whether BLAS runs one thread or several
        rows = rows_under_blas_threads(
            ["storage", "--scheme", "udd", "--n", "100", "--quiet"], (None, "1"))
        assert len(rows[0]) == 2
        assert rows[0] == rows[1]

    def test_large_custom_signal_independent_of_blas_threads(self, tmp_path):
        # a jittered udd(1000) near t = 3000 takes the panel kernel on
        # rounds of about a thousand panels, whose slice products are large
        # enough for OpenBLAS to run them on several threads
        base = np.sin(np.pi * np.arange(1, 1001) / 2002) ** 2
        gaps = np.diff(np.concatenate([[0.0], base, [1.0]]))
        jitter = np.random.default_rng(5).uniform(-0.2, 0.2, 1000)
        deltas = base + jitter * np.minimum(gaps[:-1], gaps[1:])
        path = tmp_path / "deltas.csv"
        path.write_text("delta\n" + "".join(f"{float(d)!r}\n" for d in deltas))
        rows = rows_under_blas_threads(
            ["signal", "--scheme", "custom", "--deltas-file", str(path), "--points", "2",
             "--tmin", "2900", "--tmax", "3000", "--quiet"], (None, "1", "2"))
        assert len(rows[0]) == 3
        assert rows[0] == rows[1] == rows[2]


class TestCustomSequenceInput:
    def test_inline_deltas(self, capsys):
        code, out, _ = run_cli(
            ["signal", "--scheme", "custom", "--deltas", "0.1,0.5,0.9",
             "--points", "2", "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert code == 0

    def test_deltas_csv(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("delta\n0.25\n0.75\n")
        code, out, _ = run_cli(
            ["signal", "--scheme", "custom", "--deltas-file", str(path),
             "--points", "2", "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert code == 0

    def test_deltas_csv_blank_first_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("\n0.5\n")
        code, out, err = run_cli(["storage", "--scheme", "custom", "--deltas-file", str(path),
                                  "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert "expected header 'delta'" in err

    def test_invalid_inline_deltas_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["signal", "--scheme", "custom", "--deltas", "0.5,0.5",
             "--points", "2", "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert code == 2

    def test_deltas_csv_two_cell_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("delta\n0.3,0.4\n0.5\n")
        code, out, err = run_cli(["storage", "--scheme", "custom", "--deltas-file", str(path),
                                  "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert f"{path}, line 2: expected 'delta'" in err

    @pytest.mark.parametrize("text, where", [
        ("omega,J,extra\n0.0,0.0,1\n1.0,0.2,1\n", "expected header 'omega,J'"),
        ("omega,J\n0.0,0.0\n1.0,0.2,9\n", "line 3: expected 'omega,J'"),
        ("omega,J\n0.0,0.0\n1.0,abc\n", "line 3: could not convert string to float: 'abc'")])
    def test_bath_csv_malformed_exit_2(self, tmp_path, capsys, text, where):
        path = tmp_path / "bath.csv"
        path.write_text(text)
        code, out, err = run_cli(["storage", "--bath-csv", str(path), "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert f"{path}" in err and where in err

    def test_bath_csv_short_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bath.csv"
        path.write_text("omega,J\n0.0,0.0\n0.5\n1.0,0.2\n")
        code, _, err = run_cli(["storage", "--bath-csv", str(path), "--quiet"], capsys)
        assert code == 2
        assert "line 3" in err

    def test_tabulated_bath_csv(self, tmp_path, capsys):
        path = tmp_path / "bath.csv"
        path.write_text("omega,J\n0.0,0.0\n0.5,0.1\n1.0,0.2\n")
        code, out, _ = run_cli(
            ["signal", "--bath-csv", str(path), "--n", "1", "--points", "2",
             "--tmin", "1", "--tmax", "2", "--quiet"], capsys)
        assert code == 0


class TestTableWithPositiveJAtZero:
    """A table with J(0) > 0: a named configuration error where an integrand
    diverges at omega = 0, the same bytes where none does."""

    @pytest.fixture
    def flat_csv(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("omega,J\n0.0,0.2\n1.0,0.2\n")
        return str(path)

    @pytest.mark.parametrize("args, moment", [
        (["storage", "--scheme", "equidistant", "--n", "2", "--temperature", "0.1"],
         "the chi integrand diverges like 1/omega at omega = 0 unless S1 = sum_j c_j d_j "
         "vanishes, got S1 = -0.333333"),
        (["signal", "--scheme", "udd", "--n", "2", "--tmin", "1", "--tmax", "2", "--points", "2"],
         "the phase integrand diverges like 1/omega at omega = 0 unless x'(0) = ((-1)^n - S1)/2 "
         "vanishes, got x'(0) = 0.5")])
    def test_divergent_integrand_exit_2(self, capsys, flat_csv, args, moment):
        temperature = "0.1" if "--temperature" in args else "0"
        code, out, err = run_cli(args + ["--bath-csv", flat_csv, "--quiet"], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"ddlab: configuration error: J(0) = 0.2 > 0 at T = {temperature}: "
                       f"{moment}\n")

    @pytest.mark.parametrize("scheme, temperature, t_store", [
        ("udd", "0.1", 1.3208569730336406), ("equidistant", "0", 0.09490367185809882)])
    def test_convergent_integrand_solves(self, capsys, flat_csv, scheme, temperature, t_store):
        # udd(2)'s S1 vanishes, and chi converges at T = 0 whatever S1
        code, out, _ = run_cli(["storage", "--scheme", scheme, "--n", "2", "--bath-csv",
                                flat_csv, "--temperature", temperature, "--quiet"], capsys)
        assert code == 0
        assert float(parse_csv(out)[1][0]["t_store"]) == t_store

    def test_min_pulses_passes_divergent_free_evolution(self, capsys, flat_csv):
        # free evolution's chi diverges at T > 0 (S1 = -1), so it stores at
        # 0; udd(1) stores at 0.467 and udd(2) at 1.3209
        code, out, _ = run_cli(["min-pulses", "--scheme", "udd", "--bath-csv", flat_csv,
                                "--temperature", "0.1", "--t-target", "1", "--quiet"], capsys)
        assert code == 0
        assert parse_csv(out)[1][0]["n_min"] == "2"

    def test_min_pulses_divergent_even_equidistant_exit_2(self, capsys, flat_csv):
        code, out, err = run_cli(["min-pulses", "--scheme", "equidistant", "--bath-csv",
                                  flat_csv, "--temperature", "0.1", "--t-target", "1", "--quiet"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.endswith("unless S1 = sum_j c_j d_j vanishes, got S1 = -0.333333\n")


class TestParser:
    """The flags are RunConfig's settings, declared once."""

    @staticmethod
    def subparsers():
        parser = ddlab.cli._build_parser()
        return next(a for a in parser._actions if a.dest == "command").choices

    def test_every_setting_is_a_flag_named_after_it(self):
        dests = set()
        for sub in self.subparsers().values():
            for action in sub._actions:
                if action.dest not in ("help", "config"):
                    assert action.option_strings == ["--" + action.dest.replace("_", "-")]
                    dests.add(action.dest)
        assert dests == {f.name for f in dataclasses.fields(RunConfig)}

    def test_offered_choices_are_the_accepted_ones(self):
        # every command's list: min-pulses offers fewer schemes than the others
        offered = [(action.dest, action.choices)
                   for sub in self.subparsers().values() for action in sub._actions
                   if action.choices is not None]
        assert {name for name, _ in offered} == {"scheme", "spacing", "format"}
        for name, choices in offered:
            for value in choices:
                extra = {"deltas": (0.5,)} if value == "custom" else {}
                assert getattr(RunConfig(**{name: value}, **extra), name) == value
            with pytest.raises(ValueError, match=name):
                RunConfig(**{name: "bogus"})

    @pytest.mark.parametrize("flag, value, expected", [
        ("--n", "3", 3), ("--alpha", "0.5", 0.5), ("--epsilon", "0.001", 0.001),
        ("--alphas", "0.1,0.2", (0.1, 0.2)), ("--deltas", "0.25,0.75", (0.25, 0.75)),
        ("--out", "x.csv", "x.csv")])
    def test_flags_convert_by_type_hint(self, flag, value, expected):
        command = "compare" if flag == "--alphas" else "storage"
        args = ddlab.cli._build_parser().parse_args([command, flag, value])
        assert getattr(args, flag[2:].replace("-", "_")) == expected

    def test_type_hints_read_once_per_process(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("type hints read again")

        monkeypatch.setattr("typing.get_type_hints", unreachable)
        assert RunConfig(n=3).n == 3

    def test_bool_setting_is_a_bare_flag(self):
        args = ddlab.cli._build_parser().parse_args(["storage", "--include-phase"])
        assert args.include_phase is True
        assert ddlab.cli._build_parser().parse_args(["storage"]).include_phase is None
