"""Storage-time solving, minimum-pulse-count search, and scheme sweeps.

The storage time is the first time at which the storage error reaches a
threshold epsilon.  By default the error is the decay envelope
1 - exp(-2 chi_n(t)): the deterministic phase phi_n is a known, correctable
rotation (roughly half the free-evolution phase for every pulse sequence),
and including it caps every storage time near sqrt(eps)/alpha regardless
of the sequence, wiping out the pulse-count scaling this module exists to
measure.  Pass include_phase=True to use the raw 1 - s_n(t) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import Bath, OhmicBath
from .decoherence import CHI_MAX, QuadratureError, QuadratureSpec, _chi_raw, signal
from .sequences import _GENERATORS, PulseSequence

__all__ = [
    "StorageResult",
    "SweepRow",
    "SweepTable",
    "RangeExhaustedError",
    "SearchExhaustedError",
    "storage_time",
    "min_pulses",
    "compare_schemes",
]

SCAN_POINTS = 60
SCAN_RANGE = (1e-3, 1e4)  # in units of t_C = 1/cutoff
BRACKET_RTOL = 1e-6
N_SEARCH_CAP = 10**5


class RangeExhaustedError(RuntimeError):
    """The error never crossed epsilon inside the scan range."""


class SearchExhaustedError(RuntimeError):
    """No pulse count up to the cap reaches the requested storage time."""


@dataclass(frozen=True)
class StorageResult:
    """First crossing of the storage-error threshold."""

    t_store: float
    epsilon: float
    bracket: tuple
    evaluations: int
    floored: bool = False


def _error_fn(seq: PulseSequence, bath: Bath, quad: QuadratureSpec, include_phase: bool):
    if include_phase:
        def err(t):
            return 1.0 - signal(seq, bath, t, quad).signal
    else:
        def err(t):
            chi_val, _ = _chi_raw(seq, bath, t, quad)
            return -math.expm1(-2.0 * min(chi_val, CHI_MAX))
    return err


def storage_time(seq: PulseSequence, bath: Bath, epsilon: float,
                 quad: QuadratureSpec = QuadratureSpec(),
                 include_phase: bool = False) -> StorageResult:
    """Locate the first time with storage error >= epsilon.

    Scans 60 log-spaced points over [1e-3, 1e4] * t_C for a sign change,
    then bisects geometrically to relative bracket width 1e-6.  If the
    error already exceeds epsilon at the scan floor, the floor is returned
    with floored=True.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    t_c = 1.0 / bath.cutoff
    ts = np.geomspace(SCAN_RANGE[0] * t_c, SCAN_RANGE[1] * t_c, SCAN_POINTS)
    err = _error_fn(seq, bath, quad, include_phase)
    lo = float(ts[0])
    e = err(ts[0])
    evals = 1
    if e >= epsilon:
        return StorageResult(t_store=lo, epsilon=epsilon, bracket=(lo, lo),
                             evaluations=evals, floored=True)
    for t in ts[1:]:
        e = err(t)
        evals += 1
        if e >= epsilon:
            hi = float(t)
            break
        lo = float(t)
    else:
        raise RangeExhaustedError(
            f"storage error stayed below epsilon={epsilon:g} up to "
            f"t = {ts[-1]:g} (high end of scan range); last error {e:.3e}")
    while hi / lo > 1.0 + BRACKET_RTOL:
        mid = math.sqrt(lo * hi)
        if err(mid) >= epsilon:
            hi = mid
        else:
            lo = mid
        evals += 1
    return StorageResult(t_store=math.sqrt(lo * hi), epsilon=epsilon,
                         bracket=(lo, hi), evaluations=evals)


def min_pulses(scheme: str, bath: Bath, epsilon: float, t_target: float,
               quad: QuadratureSpec = QuadratureSpec(),
               include_phase: bool = False) -> int:
    """Smallest pulse count whose storage time reaches t_target.

    Assumes that storage time does not decrease with n within each parity
    class; equidistant storage times zig-zag between even and odd n.
    Doubles n until the target is met, then bisects for n with store(n - 1)
    below it.  If store(n - 2) also reaches it, a step-2 bisection over
    n's parity class finds the smallest count.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if t_target <= 0:
        raise ValueError(f"t_target must be > 0, got {t_target}")
    t_c = 1.0 / bath.cutoff
    if t_target > SCAN_RANGE[1] * t_c:
        raise ValueError(f"t_target {t_target:g} beyond the scan range "
                         f"({SCAN_RANGE[1] * t_c:g})")
    try:
        build = _GENERATORS[scheme]
    except KeyError:
        raise ValueError(f"scheme must be one of {list(_GENERATORS)}, got {scheme!r}")

    cache: dict[int, float] = {}

    def store(n: int) -> float:
        if n not in cache:
            try:
                cache[n] = storage_time(build(n), bath, epsilon, quad, include_phase).t_store
            except RangeExhaustedError:
                # error never reached epsilon inside the scan range, and the
                # target is inside that range, so the target is met
                cache[n] = math.inf
        return cache[n]

    if store(0) >= t_target:
        return 0
    n_hi = 1
    while store(n_hi) < t_target:
        n_hi *= 2
        if n_hi > N_SEARCH_CAP:
            raise SearchExhaustedError(
                f"no pulse count up to {N_SEARCH_CAP} reaches storage {t_target:g}")

    def first_reaching(lo: int, hi: int, step: int) -> int:
        # store(lo) < t_target <= store(hi), hi - lo a multiple of step
        while hi - lo > step:
            mid = lo + (hi - lo) // (2 * step) * step
            if store(mid) >= t_target:
                hi = mid
            else:
                lo = mid
        return hi

    n = first_reaching(n_hi // 2, n_hi, 1)
    # store(0) and store(1) are below the target here, so n % 2 is a valid
    # lower end; the other parity class stays below it up to n - 1
    if n >= 2 and store(n - 2) >= t_target:
        n = first_reaching(n % 2, n - 2, 2)
    return n


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    n: int
    alpha: float
    temperature: float
    t: float
    s: float
    one_minus_s: float
    error: str = ""


@dataclass(frozen=True)
class SweepTable:
    """Signal sweep over schemes x alphas x temperatures x times."""

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def compare_schemes(n: int, alphas, temperatures, t_grid,
                    quad: QuadratureSpec = QuadratureSpec(),
                    omega_d: float = 1.0) -> SweepTable:
    """Tabulate s_n(t) for both schemes over the Cartesian parameter grid.

    Row order is deterministic: scheme (equidistant, udd), then alpha and
    temperature in the order given, then t ascending.  A cell whose
    signal raises QuadratureError or ValueError records the error in the
    row's error field rather than aborting the sweep; other exceptions
    propagate.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be nonempty, nonnegative, strictly ascending")
    rows = []
    for scheme, build in _GENERATORS.items():
        seq = build(n)
        for alpha in alphas:
            for temp in temperatures:
                bath = OhmicBath(alpha=alpha, omega_d=omega_d, temperature=temp)
                for t in ts:
                    try:
                        pt = signal(seq, bath, float(t), quad)
                        rows.append(SweepRow(scheme, n, float(alpha), float(temp),
                                             float(t), pt.signal, 1.0 - pt.signal))
                    except (QuadratureError, ValueError) as exc:
                        rows.append(SweepRow(scheme, n, float(alpha), float(temp),
                                             float(t), math.nan, math.nan,
                                             error=f"{type(exc).__name__}: {exc}"))
    meta = {"quad": {"rel_tol": quad.rel_tol, "max_panels": quad.max_panels},
            "omega_d": omega_d, "n": n,
            "alphas": [float(a) for a in alphas],
            "temperatures": [float(T) for T in temperatures],
            "t_grid": [float(t) for t in ts]}
    return SweepTable(rows=tuple(rows), metadata=meta)
