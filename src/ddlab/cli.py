"""Batch command-line front end.

Subcommands: signal, storage, min-pulses, compare, mc.  Flags mirror a
JSON config file (--config); explicit flags override file values.  Output
is CSV (with the resolved config embedded in a # comment header) or a
single JSON object with config, rows and version.

Exit codes: 0 success, 2 invalid configuration, 3 quadrature failure,
4 solver range exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .analysis import (
    RangeExhaustedError,
    SearchExhaustedError,
    compare_schemes,
    min_pulses,
    storage_time,
)
from .bath import (
    ClassicalBath,
    OhmicBath,
    TabulatedSpectralDensity,
    spectral_density,
    thermal_weight,
)
from .decoherence import QuadratureError, QuadratureSpec, chi, coherence_curve
from .montecarlo import _MAX_STEPS, mc_signal
from .sequences import _GENERATORS, SCHEMES, custom, deltas_from_csv

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_RANGE = 4

# ceilings on mc's work, checked before any draw.  Memory is about 16 B per
# trajectory (the phases, whose cosines are taken in place, and np.std's
# temporary) plus one block of 64 x 2 mode_count doubles per drawing thread,
# and time is about 14.3 us per trajectory per core at 512 modes, rising in
# step with the mode count.  10^7 samples then hold about 160 MB and take
# about 145 s per core at 512 modes; 2^14 modes take 16.8 MB of block per
# thread (134 MB at the 8-thread ceiling) and about 0.5 ms per trajectory per
# core.  The step count t / dt is bounded by montecarlo._MAX_STEPS = 2^20,
# where the mode responses peak at about 50 MB and take about 10 ns per mode
# and step: 5 s at the default 256 modes, 11 s at 512 and about 6 min at 2^14.
_MAX_SAMPLES = 10**7
_MAX_MODE_COUNT = 1 << 14


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI run (flags and config file merged)."""

    scheme: str = "udd"
    n: int = 0
    alpha: float = 0.1
    omega_d: float = 1.0
    temperature: float = 0.0
    epsilon: float | None = None
    t_target: float = 1.0
    tmin: float = 0.01
    tmax: float = 10.0
    points: int = 200
    spacing: str = "log"
    t: float = 1.0
    rel_tol: float = 1e-10
    max_panels: int = 2**20
    format: str = "csv"
    seed: int = 12345
    samples: int = 1000
    dt: float = 0.05
    mode_count: int = 256
    include_phase: bool = False
    deltas: tuple[float, ...] | None = None
    deltas_file: str | None = None
    bath_csv: str | None = None
    alphas: tuple[float, ...] = (0.25, 0.1, 0.01, 0.001)
    temperatures: tuple[float, ...] = (0.0,)
    out: str = "-"
    quiet: bool = False

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, hints[f.name]):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValueError(f"{f.name} must be finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("deltas", "deltas_file"):
            if getattr(self, name) is not None and self.scheme != "custom":
                raise ValueError(f"{name} needs scheme custom, got {self.scheme!r}")
        if self.deltas is not None and self.deltas_file is not None:
            raise ValueError("deltas and deltas_file exclude each other; give one")
        for name in ("alphas", "temperatures"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be log or linear, got {self.spacing!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.spacing == "log" and self.tmin <= 0:
            raise ValueError("log spacing needs tmin > 0")
        if self.tmax < self.tmin:
            raise ValueError(f"tmax {self.tmax} below tmin {self.tmin}")
        if self.samples > _MAX_SAMPLES:
            raise ValueError(f"samples must be <= {_MAX_SAMPLES}, got {self.samples}")
        if self.mode_count > _MAX_MODE_COUNT:
            raise ValueError(f"mode_count must be <= {_MAX_MODE_COUNT}, got {self.mode_count}")
        if self.dt > 0 and self.t / self.dt > _MAX_STEPS:
            raise ValueError(f"t / dt must be finite and <= {_MAX_STEPS}, "
                             f"got t = {self.t:g}, dt = {self.dt:g}")


def _conforms(value, hint) -> bool:
    """Whether value fits the type hint: bool is no number, an int fits float
    (and stays an int, so reruns from the embedded config keep their bytes)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_conforms(x, args[0]) for x in value)
    if args:  # a union such as float | None
        return any(_conforms(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _quad(cfg: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=cfg.rel_tol, max_panels=cfg.max_panels)


def _sequence(cfg: RunConfig):
    if cfg.scheme in _GENERATORS:
        return _GENERATORS[cfg.scheme](cfg.n)
    if cfg.deltas_file:
        return deltas_from_csv(cfg.deltas_file)
    if cfg.deltas is not None:
        return custom(cfg.deltas)
    raise ValueError("scheme=custom needs --deltas or --deltas-file")


def _bath(cfg: RunConfig):
    if cfg.bath_csv:
        return TabulatedSpectralDensity.from_csv(cfg.bath_csv, temperature=cfg.temperature)
    return OhmicBath(alpha=cfg.alpha, omega_d=cfg.omega_d, temperature=cfg.temperature)


def _alpha(cfg: RunConfig) -> float | None:
    """The coupling of the data row: none (an empty cell, JSON null) where a
    table sets the bath and alpha plays no part."""
    return None if cfg.bath_csv else cfg.alpha


def _classical_bath(cfg: RunConfig) -> ClassicalBath:
    """Ohmic-derived classical spectrum p = pi * J * coth(w/2T)."""
    bath = OhmicBath(alpha=cfg.alpha, omega_d=cfg.omega_d, temperature=cfg.temperature)

    def p(w):
        return math.pi * spectral_density(bath, w) * thermal_weight(bath.temperature, w)

    return ClassicalBath(power_spectrum=p, omega_max=bath.omega_d)


def _epsilon(cfg: RunConfig) -> float:
    """The storage-error threshold: the paper's 1e-4 where none was given."""
    return 1e-4 if cfg.epsilon is None else cfg.epsilon


def _time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.tmin, cfg.tmax, cfg.points)
    return np.linspace(cfg.tmin, cfg.tmax, cfg.points)


def _progress(cfg: RunConfig, message: str):
    if not cfg.quiet:
        print(message, file=sys.stderr)


def _write_output(cfg: RunConfig, command: str, columns, rows) -> None:
    """Emit rows as CSV (config in a # header) or a single JSON object."""
    if cfg.format == "json":
        payload = {
            "version": __version__,
            "command": command,
            "config": asdict(cfg),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# ddlab {__version__} {command}\n")
        buf.write(f"# config: {json.dumps(asdict(cfg))}\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(rows)  # floats by repr, so they re-parse exactly
        text = buf.getvalue()
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


def cmd_signal(cfg: RunConfig) -> int:
    seq = _sequence(cfg)
    bath = _bath(cfg)
    grid = _time_grid(cfg)
    _progress(cfg, f"signal: {len(grid)} points, scheme={cfg.scheme}, n={seq.n}")
    curve = coherence_curve(seq, bath, grid, _quad(cfg))
    cols = ["t", "phi", "chi", "s", "one_minus_s", "envelope_error", "saturated"]
    rows = [
        (p.t, p.phi, p.chi, p.signal, 1.0 - p.signal,
         -math.expm1(-2.0 * p.chi), int(p.saturated))
        for p in curve
    ]
    _write_output(cfg, "signal", cols, rows)
    return EXIT_OK


def cmd_storage(cfg: RunConfig) -> int:
    seq = _sequence(cfg)
    bath = _bath(cfg)
    epsilon = _epsilon(cfg)
    _progress(cfg, f"storage: scheme={cfg.scheme}, n={seq.n}, epsilon={epsilon}")
    res = storage_time(seq, bath, epsilon, _quad(cfg), include_phase=cfg.include_phase)
    cols = ["scheme", "n", "alpha", "temperature", "epsilon", "t_store",
            "bracket_lo", "bracket_hi", "evaluations", "floored"]
    rows = [(cfg.scheme, seq.n, _alpha(cfg), cfg.temperature, epsilon,
             res.t_store, res.bracket[0], res.bracket[1],
             res.evaluations, int(res.floored))]
    _write_output(cfg, "storage", cols, rows)
    return EXIT_OK


def cmd_min_pulses(cfg: RunConfig) -> int:
    if cfg.scheme not in _GENERATORS:
        raise ValueError("min-pulses needs scheme udd or equidistant")
    bath = _bath(cfg)
    _progress(cfg, f"min-pulses: scheme={cfg.scheme}, target {cfg.t_target} t_C")
    epsilon = _epsilon(cfg)
    n = min_pulses(cfg.scheme, bath, epsilon, cfg.t_target, _quad(cfg),
                   include_phase=cfg.include_phase)
    cols = ["scheme", "alpha", "temperature", "epsilon", "t_target", "n_min"]
    rows = [(cfg.scheme, _alpha(cfg), cfg.temperature, epsilon, cfg.t_target, n)]
    _write_output(cfg, "min-pulses", cols, rows)
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    for name in ("bath_csv", "deltas", "deltas_file"):
        if getattr(cfg, name) is not None:
            raise ValueError(f"compare sweeps udd and equidistant over ohmic baths; "
                             f"{name} is not supported")
    for name, sweep in (("alpha", "alphas"), ("temperature", "temperatures")):
        # a single-bath value would be recorded in the embedded config and
        # then ignored by the sweep
        if getattr(cfg, name) != getattr(RunConfig, name):
            raise ValueError(f"compare sweeps {sweep}; set {sweep} instead of {name}")
    grid = _time_grid(cfg)
    _progress(cfg, f"compare: n={cfg.n}, {len(cfg.alphas)} alphas, "
                   f"{len(cfg.temperatures)} temperatures, {len(grid)} times")
    table = compare_schemes(cfg.n, cfg.alphas, cfg.temperatures, grid,
                            _quad(cfg), omega_d=cfg.omega_d)
    cols = ["kind", "scheme", "n", "alpha", "temperature", "t", "s", "one_minus_s",
            "ratio", "error"]
    rows = [("signal", r.scheme, r.n, r.alpha, r.temperature, r.t,
             r.s, r.one_minus_s, "", r.error) for r in table]
    any_ok = any(not r.error for r in table)
    if cfg.epsilon is not None:
        quad = _quad(cfg)
        for alpha in cfg.alphas:
            for temp in cfg.temperatures:
                bath = OhmicBath(alpha=alpha, omega_d=cfg.omega_d, temperature=temp)
                stores = {}
                for scheme, build in _GENERATORS.items():
                    try:
                        res = storage_time(build(cfg.n), bath, cfg.epsilon, quad,
                                           include_phase=cfg.include_phase)
                        stores[scheme] = res.t_store
                        rows.append(("storage", scheme, cfg.n, alpha, temp,
                                     res.t_store, "", "", "", ""))
                    except (RangeExhaustedError, QuadratureError) as exc:
                        rows.append(("storage", scheme, cfg.n, alpha, temp,
                                     "", "", "", "", f"{type(exc).__name__}: {exc}"))
                if "udd" in stores and "equidistant" in stores:
                    ratio = stores["udd"] / stores["equidistant"]
                    rows.append(("ratio", "udd/equidistant", cfg.n, alpha,
                                 temp, "", "", "", ratio, ""))
                    any_ok = True
    if not any_ok:
        raise QuadratureError("every sweep cell failed", estimate=math.nan,
                              error_bound=math.nan)
    _write_output(cfg, "compare", cols, rows)
    return EXIT_OK


def cmd_mc(cfg: RunConfig) -> int:
    if cfg.bath_csv:
        raise ValueError("mc builds its classical bath from alpha, omega_d and "
                         "temperature; bath_csv is not supported")
    seq = _sequence(cfg)
    cbath = _classical_bath(cfg)
    _progress(cfg, f"mc: {cfg.samples} trajectories at t={cfg.t}")
    est = mc_signal(cbath, seq, cfg.t, cfg.samples, cfg.seed, cfg.dt, cfg.mode_count)
    analytic = math.exp(-2.0 * chi(seq, cbath, cfg.t, _quad(cfg)))
    z = (est.mean - analytic) / est.stderr if est.stderr > 0 else 0.0
    cols = ["t", "mean", "stderr", "samples", "seed", "analytic", "z_score"]
    rows = [(cfg.t, est.mean, est.stderr, est.samples, est.seed,
             analytic, z)]
    _write_output(cfg, "mc", cols, rows)
    return EXIT_OK


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="Coherence of a dephasing qubit under pi-pulse sequences.",
    )
    parser.add_argument("--version", action="version", version=f"ddlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, one_bath=True):
        # compare sweeps its own alphas and temperatures, so it takes no
        # single --alpha or --temperature
        p.add_argument("--config", help="JSON file mirroring the flags; flags override")
        p.add_argument("--scheme", choices=["udd", "equidistant", "custom"])
        p.add_argument("--n", type=int)
        if one_bath:
            p.add_argument("--alpha", type=float)
            p.add_argument("--temperature", type=float)
        p.add_argument("--omega-d", dest="omega_d", type=float)
        p.add_argument("--deltas", type=_parse_floats,
                       help="comma-separated custom pulse instants in (0,1)")
        p.add_argument("--deltas-file", dest="deltas_file",
                       help="one-column CSV with header 'delta'")
        p.add_argument("--bath-csv", dest="bath_csv",
                       help="two-column CSV 'omega,J' for a tabulated spectral density")
        p.add_argument("--rel-tol", dest="rel_tol", type=float)
        p.add_argument("--max-panels", dest="max_panels", type=int)
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--out", help="output path, '-' for stdout")
        p.add_argument("--quiet", action="store_const", const=True,
                       help="suppress progress output on stderr")

    def add_grid(p):
        p.add_argument("--tmin", type=float)
        p.add_argument("--tmax", type=float)
        p.add_argument("--points", type=int)
        p.add_argument("--spacing", choices=["log", "linear"])

    def add_storage(p):
        p.add_argument("--epsilon", type=float,
                       help="storage-error threshold (storage and min-pulses use 1e-4 "
                            "without it); makes compare also emit storage rows and "
                            "the udd/equidistant ratio column")
        p.add_argument("--include-phase", dest="include_phase",
                       action="store_const", const=True,
                       help="use 1 - s(t) with the cos(2 phi) factor instead of "
                            "the decay envelope")

    p_signal = sub.add_parser("signal", help="signal curve over a time grid")
    add_common(p_signal)
    add_grid(p_signal)

    p_storage = sub.add_parser("storage", help="first time the storage error hits epsilon")
    add_common(p_storage)
    add_storage(p_storage)

    p_min = sub.add_parser("min-pulses", help="smallest pulse count reaching a storage time")
    add_common(p_min)
    add_storage(p_min)
    p_min.add_argument("--t-target", dest="t_target", type=float)

    # without abbreviations, since --alpha and --temperature would
    # otherwise pass as --alphas and --temperatures
    p_cmp = sub.add_parser("compare", help="equidistant vs optimized sweep table",
                           allow_abbrev=False)
    add_common(p_cmp, one_bath=False)
    add_grid(p_cmp)
    add_storage(p_cmp)
    p_cmp.add_argument("--alphas", type=_parse_floats)
    p_cmp.add_argument("--temperatures", type=_parse_floats)

    p_mc = sub.add_parser("mc", help="Monte Carlo cross-check of the classical signal")
    add_common(p_mc)
    p_mc.add_argument("--t", type=float)
    p_mc.add_argument("--samples", type=int)
    p_mc.add_argument("--dt", type=float)
    p_mc.add_argument("--mode-count", dest="mode_count", type=int)
    p_mc.add_argument("--seed", type=int)

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags into a RunConfig."""
    merged: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_cfg) - known
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        merged.update({key: tuple(value) if isinstance(value, list) else value
                       for key, value in file_cfg.items()})
    merged.update((key, value) for key, value in vars(args).items()
                  if value is not None and key not in ("command", "config"))
    return RunConfig(**merged)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"ddlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    commands = {"signal": cmd_signal, "storage": cmd_storage, "min-pulses": cmd_min_pulses,
                "compare": cmd_compare, "mc": cmd_mc}
    try:
        return commands[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"ddlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"ddlab: quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (RangeExhaustedError, SearchExhaustedError) as exc:
        print(f"ddlab: solver range exhausted: {exc}", file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
