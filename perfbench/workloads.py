"""The benchmark's workloads: seeded inputs, operations, checks.

Each workload is a fixed list of operations.  An operation calls into ddlab
through `call(span, fn, *args)` so that the traced run can record a span
around the entry call, and returns its output as bytes: the CLI's output
file, or the repr of the returned numbers.  Equal bytes mean equal answers.
Every operation has a check against an oracle that shares no code with
ddlab (see oracles.py).

    paper_storage      the paper's headline run through the in-process CLI
    deep_curve         signal curves of 1000-pulse sequences, no solver
    tabulated_storage  CLI storage solve on a kinked tabulated bath
    mc_crosscheck      Monte Carlo cells against exp(-2 chi)
"""

from __future__ import annotations

import ast
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ALPHA = 0.25
EPSILON = 1e-4


@dataclass
class Op:
    """One closed-loop operation and the check of its output bytes."""

    name: str
    kind: str                # "cli", "signal" or "mc"
    run: Callable            # run(call) -> bytes
    check: Callable          # check(bytes) -> error message or None


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: list            # small ops run once during set-up


def direct_call(span, fn, *args, **kwargs):
    """The untraced `call`: no span, no bookkeeping."""
    return fn(*args, **kwargs)


# --- instants computed independently of ddlab.sequences -------------------

def udd_instants(n: int) -> np.ndarray:
    return np.sin(np.pi * np.arange(1, n + 1) / (2 * n + 2)) ** 2


def equidistant_instants(n: int) -> np.ndarray:
    return np.arange(1, n + 1) / (n + 1)


def jittered(base: np.ndarray, rng, share: float) -> np.ndarray:
    """Move each instant by up to `share` of its smaller neighbouring gap."""
    gaps = np.diff(np.concatenate([[0.0], base, [1.0]]))
    return base + rng.uniform(-share, share, base.size) * np.minimum(gaps[:-1], gaps[1:])


# --- CLI plumbing --------------------------------------------------------------

def _cli_op(name: str, argv: list, out: Path, check) -> Op:
    def run(call):
        import ddlab.cli

        out.unlink(missing_ok=True)   # a pass that writes nothing must not pass
        rc = call("cli.main", ddlab.cli.main, [*argv, "--out", str(out), "--quiet"])
        if rc != 0:
            raise RuntimeError(f"ddlab {argv[0]} exited with code {rc}")
        return out.read_bytes()
    return Op(name, "cli", run, check)


def csv_rows(data: bytes) -> list:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _write_csv(path: Path, header: str, columns) -> None:
    rows = zip(*columns)
    path.write_text(header + "\n" + "".join(",".join(repr(float(v)) for v in r) + "\n"
                                            for r in rows))


def _storage_straddle(row, error_at) -> str | None:
    if row["floored"] != "0":
        return "storage solve floored at the scan start"
    return oracles.straddles(error_at, float(row["bracket_lo"]), float(row["bracket_hi"]),
                             float(row["epsilon"]))


# --- paper_storage -------------------------------------------------------------

def paper_storage(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    tmin = float(10 ** rng.uniform(-0.1, 0.1))
    tmax = float(100 * 10 ** rng.uniform(-0.1, 0.1))
    points = 4
    alphas = (0.25, 0.001)
    mp_row = int(rng.integers(2 * len(alphas) * points))
    n = 100
    instants = {"udd": udd_instants(n), "equidistant": equidistant_instants(n)}
    forms = {(s, a): oracles.ClosedForm(d, a) for s, d in instants.items() for a in alphas}

    def check_compare(data):
        rows = csv_rows(data)
        signals = [r for r in rows if r["kind"] == "signal"]
        stores = {(r["scheme"], float(r["alpha"])): r for r in rows if r["kind"] == "storage"}
        ratios = [r for r in rows if r["kind"] == "ratio"]
        if len(signals) != 2 * len(alphas) * points or len(stores) != 4 or len(ratios) != 2:
            return f"unexpected row counts in {len(rows)} rows"
        if any(r["error"] for r in rows):
            return "a compare cell reported an error"
        for i, r in enumerate(signals):
            t, s = float(r["t"]), float(r["s"])
            msg = forms[r["scheme"], float(r["alpha"])].check_signal(t, s=s)
            if msg:
                return f"{r['scheme']} alpha={r['alpha']}: {msg}"
            if i == mp_row:
                chi_mp, phi_mp = oracles.closed_form_mp(
                    *oracles.exact_instants(instants[r["scheme"]]), float(r["alpha"]), t)
                s_mp = math.cos(2 * phi_mp) * math.exp(-2 * chi_mp)
                if abs(s - s_mp) > oracles.REL_TOL * (1.0 - s_mp) + 4 * oracles.EPS:
                    return f"t={t!r}: s={s!r}, mpmath closed form {s_mp!r}"
        for (scheme, alpha), r in stores.items():
            t = float(r["t"])
            # t_store is the geometric centre of a bracket narrower than 1e-6
            msg = oracles.straddles(forms[scheme, alpha].envelope_error,
                                    t * (1 - 1e-6), t * (1 + 1e-6), EPSILON)
            if msg:
                return f"storage {scheme} alpha={alpha}: {msg}"
        for r in ratios:
            alpha = float(r["alpha"])
            want = float(stores["udd", alpha]["t"]) / float(stores["equidistant", alpha]["t"])
            if float(r["ratio"]) != want:
                return f"ratio {r['ratio']} != {want!r}"
        return None

    def check_min(expected):
        def check(data):
            (row,) = csv_rows(data)
            got = int(row["n_min"])
            return None if got == expected else f"n_min = {got}, expected {expected}"
        return check

    temp = 0.1

    def thermal_weight(w):
        return 2.0 * ALPHA * w / math.tanh(w / (2.0 * temp))

    def check_thermal(data):
        (row,) = csv_rows(data)
        return _storage_straddle(row, oracles.quad_error_at(udd_instants(20), thermal_weight, 1.0))

    ops = [
        _cli_op("compare", ["compare", "--n", str(n), "--alphas", "0.25,0.001",
                            "--temperatures", "0", "--epsilon", repr(EPSILON),
                            "--tmin", repr(tmin), "--tmax", repr(tmax),
                            "--points", str(points)], work / "compare.csv", check_compare),
        _cli_op("min_pulses_udd", ["min-pulses", "--scheme", "udd", "--alpha", repr(ALPHA),
                                   "--epsilon", repr(EPSILON), "--t-target", "5"],
                work / "min_udd.csv", check_min(6)),
        _cli_op("min_pulses_equidistant", ["min-pulses", "--scheme", "equidistant",
                                           "--alpha", repr(ALPHA), "--epsilon", repr(EPSILON),
                                           "--t-target", "5"],
                work / "min_eq.csv", check_min(94)),
        _cli_op("storage_thermal", ["storage", "--scheme", "udd", "--n", "20",
                                    "--alpha", repr(ALPHA), "--temperature", repr(temp),
                                    "--epsilon", repr(EPSILON)],
                work / "thermal.csv", check_thermal),
    ]
    warm = [
        _cli_op("warm_compare", ["compare", "--n", "2", "--alphas", "0.25",
                                 "--epsilon", "0.01", "--tmin", "1", "--tmax", "2",
                                 "--points", "2"], work / "warm1.csv", None),
        _cli_op("warm_min", ["min-pulses", "--scheme", "udd", "--alpha", "0.25",
                             "--epsilon", "0.01", "--t-target", "1"], work / "warm2.csv", None),
    ]
    return Workload("paper_storage", ops, warm)


# --- deep_curve -----------------------------------------------------------------

def _signal_op(name, seq, bath, t, check) -> Op:
    def run(call):
        import ddlab

        p = call("decoherence.signal", ddlab.signal, seq, bath, t)
        return repr((p.t, p.phi, p.chi, p.signal, p.quad_error, p.saturated)).encode()
    return Op(name, "signal", run, check)


def deep_curve(seed: int, work: Path) -> Workload:
    import ddlab

    rng = np.random.default_rng(seed)
    n = 1000
    # a log grid from 1 to 3e3 t_C; every sequence's storage time lies inside
    grid = np.geomspace(1.0, 3000.0, 6) * 10 ** rng.uniform(-0.004, 0.004, 6)
    custom = jittered(udd_instants(n), rng, 0.2)
    seqs = [("udd", ddlab.udd(n), udd_instants(n)),
            ("equidistant", ddlab.equidistant(n), equidistant_instants(n)),
            ("custom", ddlab.custom(custom), custom)]
    bath = ddlab.OhmicBath(alpha=ALPHA)
    mp_point = int(rng.integers(len(grid)))
    forms: dict = {}

    def checker(label, instants, t, mp):
        def check(data):
            if label not in forms:
                forms[label] = oracles.ClosedForm(instants, ALPHA)
            tt, phi, chi, s, _, saturated = ast.literal_eval(data.decode())
            if tt != t:
                return f"t = {tt!r}, asked for {t!r}"
            msg = forms[label].check_signal(t, phi=phi, chi=chi, s=s, saturated=saturated)
            if msg is None and mp:
                chi_mp, phi_mp = oracles.closed_form_mp(range(1, n + 1), n + 1, ALPHA, t)
                if abs(chi - chi_mp) > oracles.REL_TOL * abs(chi_mp):
                    msg = f"t={t!r}: chi={chi!r}, mpmath closed form {chi_mp!r}"
                elif abs(phi - phi_mp) > oracles.REL_TOL * abs(phi_mp):
                    msg = f"t={t!r}: phi={phi!r}, mpmath closed form {phi_mp!r}"
            return msg and f"{label}: {msg}"
        return check

    ops = [_signal_op(f"{label}_{i}", seq, bath, float(t),
                      checker(label, inst, float(t), label == "equidistant" and i == mp_point))
           for label, seq, inst in seqs for i, t in enumerate(grid)]
    warm = [_signal_op(f"warm_{label}", s, bath, 1.0, None)
            for label, s in (("udd", ddlab.udd(8)), ("equidistant", ddlab.equidistant(8)),
                             ("custom", ddlab.custom(jittered(udd_instants(8), rng, 0.2))))]
    return Workload("deep_curve", ops, warm)


# --- tabulated_storage --------------------------------------------------------------

def tabulated_storage(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n, knots = 30, 200
    deltas = jittered(equidistant_instants(n), rng, 0.01)
    # a smooth ohmic shape with a seeded roll-off, sampled at equally spaced
    # knots: the slope changes at every knot, which is what makes the
    # quadrature bisect.  Jittered knots or noisy values would make the
    # bisection work, and so the run time, vary from seed to seed.
    omegas = np.linspace(0.0, 1.0, knots)
    roll_off = 10 ** rng.uniform(-0.02, 0.02)
    values = 2.0 * ALPHA * omegas * np.exp(-(omegas / roll_off) ** 2)
    seq_csv, bath_csv = work / "deltas.csv", work / "bath.csv"
    _write_csv(seq_csv, "delta", [deltas])
    _write_csv(bath_csv, "omega,J", [omegas, values])
    # the oracle reads the inputs back, so it sees exactly what ddlab sees
    deltas = np.loadtxt(seq_csv, delimiter=",", skiprows=1, ndmin=1)
    table = np.loadtxt(bath_csv, delimiter=",", skiprows=1)

    def weight(w):
        return float(np.interp(w, table[:, 0], table[:, 1], right=0.0))

    def check(data):
        (row,) = csv_rows(data)
        error_at = oracles.quad_error_at(deltas, weight, float(table[-1, 0]), table[:, 0])
        return _storage_straddle(row, error_at)

    argv = ["storage", "--scheme", "custom", "--deltas-file", str(seq_csv),
            "--bath-csv", str(bath_csv), "--epsilon", repr(EPSILON)]
    warm_seq, warm_bath = work / "warm_deltas.csv", work / "warm_bath.csv"
    _write_csv(warm_seq, "delta", [jittered(equidistant_instants(4), rng, 0.01)])
    _write_csv(warm_bath, "omega,J", [np.linspace(0, 1, 5), 2 * ALPHA * np.linspace(0, 1, 5)])
    warm = [_cli_op("warm_storage", ["storage", "--scheme", "custom", "--deltas-file",
                                     str(warm_seq), "--bath-csv", str(warm_bath),
                                     "--epsilon", "0.01"], work / "warm.csv", None)]
    return Workload("tabulated_storage",
                    [_cli_op("storage_tabulated", argv, work / "storage.csv", check)], warm)


# --- mc_crosscheck -------------------------------------------------------------------

MC_SAMPLES, MC_DT, MC_MODES = 10_000, 0.01, 512


def classical_twin(alpha: float, temperature: float):
    """Classical bath with p = pi J coth(w/2T), the twin of the ohmic bath."""
    import ddlab

    def p(w):
        w = np.asarray(w, dtype=float)
        j = 2.0 * alpha * w * (w <= 1.0)
        return math.pi * j * ddlab.thermal_weight(temperature, w)

    return ddlab.ClassicalBath(power_spectrum=p, omega_max=1.0)


def _mc_op(name, bath, seq, t, samples, seed, modes, check) -> Op:
    def run(call):
        import ddlab

        est = call("montecarlo.mc_signal", ddlab.mc_signal, bath, seq, t, samples, seed,
                   MC_DT, modes)
        chi = call("decoherence.chi", ddlab.chi, seq, bath, t)
        return repr((est.mean, est.stderr, est.samples, chi)).encode()
    return Op(name, "mc", run, check)


def mc_crosscheck(seed: int, work: Path) -> Workload:
    import ddlab

    rng = np.random.default_rng(seed)
    bath = classical_twin(0.1, 0.25)

    def check(data):
        mean, stderr, samples, chi = ast.literal_eval(data.decode())
        if samples != MC_SAMPLES:
            return f"{samples} samples, asked for {MC_SAMPLES}"
        z = oracles.mc_z(mean, stderr, chi)
        # |z| <= 4 lets a fresh seed fail by chance about once in 16000 cells
        return None if z <= 4.0 else f"|z| = {z:.2f} > 4"

    ops = [_mc_op(f"udd{n}_t{t:g}", bath, ddlab.udd(n), t, MC_SAMPLES,
                  int(rng.integers(2 ** 63)), MC_MODES, check)
           for n in (0, 1, 3) for t in (0.5, 2.0, 5.0)]
    warm = [_mc_op("warm_mc", bath, ddlab.udd(1), 0.5, 100, 1, 16, None)]
    return Workload("mc_crosscheck", ops, warm)


BUILDERS = {
    "paper_storage": paper_storage,
    "deep_curve": deep_curve,
    "tabulated_storage": tabulated_storage,
    "mc_crosscheck": mc_crosscheck,
}
