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
import functools
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
from .montecarlo import check_mc_settings, mc_signal
from .sequences import _GENERATORS, custom, deltas_from_csv

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_RANGE = 4

# the values a setting may take, checked by RunConfig and offered by --help;
# a (command, setting) key narrows what that command offers: min-pulses
# searches over the generated schemes only
_CHOICES = {"scheme": ("udd", "equidistant", "custom"), "spacing": ("log", "linear"),
            "format": ("csv", "json"), ("min-pulses", "scheme"): ("udd", "equidistant")}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI run (flags and config file merged).

    Each setting is the flag --kebab-name of the subcommands that _COMMANDS
    gives it to, converted by its type hint (_flag_kwargs).
    """

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, _HINTS[f.name]):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValueError(f"{f.name} must be finite, got {value}")
        if self.scheme not in _CHOICES["scheme"]:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        for name in ("spacing", "format"):
            value = getattr(self, name)
            if value not in _CHOICES[name]:
                raise ValueError(f"{name} must be {' or '.join(_CHOICES[name])}, got {value!r}")
        if self.spacing == "log" and self.tmin <= 0:
            raise ValueError("log spacing needs tmin > 0")
        if self.tmax < self.tmin:
            raise ValueError(f"tmax {self.tmax} below tmin {self.tmin}")


# the settings' type hints, read once per process
_HINTS = typing.get_type_hints(RunConfig)


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
    if (cfg.deltas is None) == (cfg.deltas_file is None):
        raise ValueError("scheme custom needs exactly one of deltas and deltas_file")
    return custom(cfg.deltas) if cfg.deltas_file is None else deltas_from_csv(cfg.deltas_file)


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
    bath = _bath(cfg)
    _progress(cfg, f"min-pulses: scheme={cfg.scheme}, target {cfg.t_target} t_C")
    epsilon = _epsilon(cfg)
    n = min_pulses(cfg.scheme, bath, epsilon, cfg.t_target, _quad(cfg),
                   include_phase=cfg.include_phase)
    cols = ["scheme", "alpha", "temperature", "epsilon", "t_target", "n_min"]
    rows = [(cfg.scheme, _alpha(cfg), cfg.temperature, epsilon, cfg.t_target, n)]
    _write_output(cfg, "min-pulses", cols, rows)
    return EXIT_OK


def _blank(value: float):
    return "" if math.isnan(value) else value


def cmd_compare(cfg: RunConfig) -> int:
    grid = _time_grid(cfg)
    _progress(cfg, f"compare: n={cfg.n}, {len(cfg.alphas)} alphas, "
                   f"{len(cfg.temperatures)} temperatures, {len(grid)} times")
    table = compare_schemes(cfg.n, cfg.alphas, cfg.temperatures, grid, _quad(cfg),
                            omega_d=cfg.omega_d, epsilon=cfg.epsilon,
                            include_phase=cfg.include_phase)
    # a storage row counts only through its bath's ratio row
    if all(r.error or r.kind == "storage" for r in table):
        raise QuadratureError("every sweep cell failed", estimate=math.nan,
                              error_bound=math.nan)
    cols = ["kind", "scheme", "n", "alpha", "temperature", "t", "s", "one_minus_s",
            "ratio", "error"]
    # a signal row shows its NaN s; other kinds leave the cells they do not fill empty
    rows = [(r.kind, r.scheme, r.n, r.alpha, r.temperature, _blank(r.t),
             *((r.s, r.one_minus_s) if r.kind == "signal" else ("", "")),
             _blank(r.ratio), r.error) for r in table]
    _write_output(cfg, "compare", cols, rows)
    return EXIT_OK


def cmd_mc(cfg: RunConfig) -> int:
    seq = _sequence(cfg)
    cbath = _classical_bath(cfg)
    # the settings, then the analytic reference, before any trajectory is drawn
    check_mc_settings(cbath, cfg.t, cfg.samples, cfg.seed, cfg.dt, cfg.mode_count)
    analytic = math.exp(-2.0 * chi(seq, cbath, cfg.t, _quad(cfg)))
    _progress(cfg, f"mc: {cfg.samples} trajectories at t={cfg.t}")
    est = mc_signal(cbath, seq, cfg.t, cfg.samples, cfg.seed, cfg.dt, cfg.mode_count)
    z = (est.mean - analytic) / est.stderr if est.stderr > 0 else 0.0
    cols = ["t", "mean", "stderr", "samples", "seed", "analytic", "z_score"]
    rows = [(cfg.t, est.mean, est.stderr, est.samples, est.seed,
             analytic, z)]
    _write_output(cfg, "mc", cols, rows)
    return EXIT_OK


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


# the settings that pick the sequence and the bath, in --help order; a
# command takes those it does not read only at their defaults (_resolve_config)
_SOURCES = ("scheme", "n", "alpha", "temperature", "omega_d", "deltas", "deltas_file",
            "bath_csv")
_INPUTS = (*_SOURCES, "alphas", "temperatures")
_RUN = ("rel_tol", "max_panels", "format", "out", "quiet")
_GRID = ("tmin", "tmax", "points", "spacing")
_STORAGE = ("epsilon", "include_phase")
# per subcommand: its handler, its --help line and the settings it takes,
# in --help order; min-pulses generates its own sequences, compare sweeps
# both generated schemes over the ohmic baths of alphas and temperatures,
# and mc has only the ohmic classical bath
_COMMANDS = {
    "signal": (cmd_signal, "signal curve over a time grid", (*_SOURCES, *_RUN, *_GRID)),
    "storage": (cmd_storage, "first time the storage error hits epsilon",
                (*_SOURCES, *_RUN, *_STORAGE)),
    "min-pulses": (cmd_min_pulses, "smallest pulse count reaching a storage time",
                   ("scheme", "alpha", "temperature", "omega_d", "bath_csv", *_RUN, *_STORAGE,
                    "t_target")),
    "compare": (cmd_compare, "equidistant vs optimized sweep table",
                ("n", "omega_d", *_RUN, *_GRID, *_STORAGE, "alphas", "temperatures")),
    "mc": (cmd_mc, "Monte Carlo cross-check of the classical signal",
           ("scheme", "n", "alpha", "temperature", "omega_d", "deltas", "deltas_file", *_RUN,
            "t", "samples", "dt", "mode_count", "seed")),
}
_HELP = {
    "deltas": "comma-separated custom pulse instants in (0,1)",
    "deltas_file": "one-column CSV with header 'delta'",
    "bath_csv": "two-column CSV 'omega,J' for a tabulated spectral density",
    "out": "output path, '-' for stdout",
    "quiet": "suppress progress output on stderr",
    "epsilon": "storage-error threshold (storage and min-pulses use 1e-4 without it); "
               "makes compare also emit storage rows and the udd/equidistant ratio column",
    "include_phase": "use 1 - s(t) with the cos(2 phi) factor instead of the decay envelope",
}


def _flag_kwargs(command: str, name: str) -> dict:
    """add_argument's keywords for a setting of a command: its help, and the
    conversion its type hint asks for (X | None as X, a bool a bare flag, a
    tuple comma-separated floats) with the choices the command offers."""
    hint = _HINTS[name]
    if typing.get_origin(hint) is not tuple and typing.get_args(hint):
        hint = typing.get_args(hint)[0]  # X | None
    if hint is bool:
        return {"help": _HELP.get(name), "action": "store_const", "const": True}
    return {"help": _HELP.get(name), "choices": _CHOICES.get((command, name), _CHOICES.get(name)),
            "type": _parse_floats if typing.get_origin(hint) is tuple else hint}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="ddlab", description="Coherence of a dephasing qubit under pi-pulse sequences.")
    parser.add_argument("--version", action="version", version=f"ddlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, settings) in _COMMANDS.items():
        # compare takes no abbreviations, since --alpha and --temperature
        # would otherwise pass as --alphas and --temperatures
        p = sub.add_parser(command, help=help_line, allow_abbrev=command != "compare")
        p.add_argument("--config", help="JSON file mirroring the flags; flags override")
        for name in settings:
            p.add_argument("--" + name.replace("_", "-"), **_flag_kwargs(command, name))
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags into a RunConfig.

    A sequence or bath input that the run does not read must keep its
    default, so that no run records an input it did not use.  The run reads
    the inputs its command offers, less n under scheme custom (the instants
    fix the pulse count), less deltas and deltas_file under a generated
    scheme, and less alpha and omega_d where a --bath-csv table sets the bath.
    """
    merged: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = set(file_cfg) - set(_HINTS)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        merged.update({key: tuple(value) if isinstance(value, list) else value
                       for key, value in file_cfg.items()})
    merged.update((key, value) for key, value in vars(args).items()
                  if value is not None and key not in ("command", "config"))
    offered = _COMMANDS[args.command][2]
    custom_scheme = "scheme" in offered and merged.get("scheme") == "custom"
    unread = {"n"} if custom_scheme else {"deltas", "deltas_file"}
    if "bath_csv" in offered and merged.get("bath_csv"):
        unread |= {"alpha", "omega_d"}
    read = [s for s in _INPUTS if s in offered and s not in unread]
    for name in (s for s in _INPUTS if s in merged and s not in read):
        if merged[name] != getattr(RunConfig, name):
            raise ValueError(f"{args.command} does not read {name}; its sequence and bath "
                             f"inputs are {', '.join(read)}")
    return RunConfig(**merged)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"ddlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command][0](cfg)
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
