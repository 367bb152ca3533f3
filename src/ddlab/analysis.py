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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import Bath, OhmicBath
from .decoherence import (QuadratureError, QuadratureSpec, _checked_grid, _chi_diverges, _chi_raw,
                          signal)
from .sequences import _GENERATORS, PulseSequence

__all__ = [
    "StorageResult",
    "SweepRow",
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
# ITP truncation constant, per unit of ln t: a step moves (0.2 * width^2)
# from the regula falsi root toward the bracket's midpoint
_TRUNCATION = 0.2


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
            return -math.expm1(-2.0 * chi_val)
    return err


def _log_excess(e: float, epsilon: float) -> float:
    # ln(e / epsilon), -inf where the error has rounded to zero or below
    return math.log(e / epsilon) if e > 0.0 else -math.inf


def storage_time(seq: PulseSequence, bath: Bath, epsilon: float,
                 quad: QuadratureSpec = QuadratureSpec(),
                 include_phase: bool = False) -> StorageResult:
    """Locate the first time with storage error >= epsilon.

    A binary search over 60 log-spaced points on [1e-3, 1e4] * t_C finds
    the first grid cell whose upper end reaches epsilon, in 5 or 6 error
    evaluations.  Inside that cell the ITP method (Oliveira & Takahashi,
    ACM TOMS 2020) in (ln t, ln error) narrows the bracket to relative
    width 1e-6: a regula falsi step, aimed slightly past its root so that
    both ends close, and held close enough to the midpoint that it never
    needs more than 20 steps, one more than bisection.  So a solve takes at
    most 6 + 20 evaluations; most take 10-15, and udd(300) at alpha = 0.25,
    epsilon = 1e-4 takes all 26.  If the first grid point already reaches
    epsilon, it is returned with floored=True.

    The grid search assumes a single crossing: once the error reaches
    epsilon it does not fall back below it.  For the decay envelope this
    holds whenever W(w)/w does not increase with w (the ohmic bath at any
    temperature), since chi_n(t) = int_0^{wc t} (W/w)(z/t) |y_n(z)|^2/(4z)
    dz then cannot decrease with t.  With include_phase it is assumed.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    t_c = 1.0 / bath.cutoff
    ts = np.geomspace(SCAN_RANGE[0] * t_c, SCAN_RANGE[1] * t_c, SCAN_POINTS)
    err = _error_fn(seq, bath, quad, include_phase)
    # first grid index with error >= epsilon; the ends -1 and SCAN_POINTS
    # stand for "below" and "above" and are never evaluated
    i_lo, i_hi = -1, SCAN_POINTS
    evals = 0
    while i_hi - i_lo > 1:
        i = (i_lo + i_hi) // 2
        e = err(float(ts[i]))
        evals += 1
        if e >= epsilon:
            i_hi, e_hi = i, e
        else:
            i_lo, e_lo = i, e
    if i_hi == SCAN_POINTS:
        raise RangeExhaustedError(
            f"storage error stayed below epsilon={epsilon:g} up to "
            f"t = {ts[-1]:g} (high end of scan range); last error {e_lo:.3e}")
    if i_lo < 0:
        t0 = float(ts[0])
        return StorageResult(t_store=t0, epsilon=epsilon, bracket=(t0, t0),
                             evaluations=evals, floored=True)
    lo, hi = float(ts[i_lo]), float(ts[i_hi])
    g_lo, g_hi = _log_excess(e_lo, epsilon), _log_excess(e_hi, epsilon)
    # ITP in x = ln t: x_f is the regula falsi root of ln(err/epsilon); it
    # is moved toward the midpoint by _TRUNCATION * width^2, so the far end
    # also closes, then kept within a radius of the midpoint that shrinks
    # so that the bracket is done at most one step after bisection would be;
    # the target half-width sits 2 % inside the tolerance, so rounding in
    # exp and log cannot cost a step beyond that
    half_tol = 0.49 * math.log1p(BRACKET_RTOL)
    steps_left = math.ceil(math.log2(math.log(hi / lo) / (2.0 * half_tol))) + 1
    while hi / lo > 1.0 + BRACKET_RTOL:
        a, b = math.log(lo), math.log(hi)
        mid = 0.5 * (a + b)
        x = a + (b - a) * g_lo / (g_lo - g_hi) if g_lo > -math.inf else mid
        toward = 1.0 if mid >= x else -1.0
        x += toward * min(_TRUNCATION * (b - a) ** 2, abs(mid - x))
        radius = max(half_tol * 2.0 ** steps_left - 0.5 * (b - a), 0.0)
        x = mid - toward * min(abs(mid - x), radius)
        steps_left -= 1
        t = math.exp(x)
        e = err(t)
        evals += 1
        if e >= epsilon:
            hi, g_hi = t, _log_excess(e, epsilon)
        else:
            lo, g_lo = t, _log_excess(e, epsilon)
    return StorageResult(t_store=math.sqrt(lo * hi), epsilon=epsilon,
                         bracket=(lo, hi), evaluations=evals)


def min_pulses(scheme: str, bath: Bath, epsilon: float, t_target: float,
               quad: QuadratureSpec = QuadratureSpec(),
               include_phase: bool = False) -> int:
    """Smallest pulse count whose storage time reaches t_target.

    Assumes that storage time does not decrease with n within each parity
    class; equidistant storage times zig-zag between even and odd n.  Each
    storage_time solve also assumes a single crossing in t (see there).
    Doubles n until the target is met, then bisects for n with store(n - 1)
    below it.  If store(n - 2) also reaches it, a step-2 bisection over
    n's parity class finds the smallest count.  The doubling gives up with
    SearchExhaustedError at N_SEARCH_CAP, or as soon as two doublings in a
    row leave the storage time within BRACKET_RTOL: the include_phase
    storage time plateaus that way, which no pulse count lifts.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not t_target > 0:
        raise ValueError(f"t_target must be > 0, got {t_target}")
    t_c = 1.0 / bath.cutoff
    if t_target > SCAN_RANGE[1] * t_c:
        raise ValueError(f"t_target {t_target:g} beyond the scan range "
                         f"({SCAN_RANGE[1] * t_c:g})")
    try:
        build = _GENERATORS[scheme]
    except KeyError:
        raise ValueError(f"scheme must be one of {list(_GENERATORS)}, got {scheme!r}")

    @functools.cache
    def store(n: int) -> float:
        seq = build(n)
        if n == 0 and _chi_diverges(seq, bath):
            # free evolution decays at once where its chi is infinite (a
            # table with J(0) > 0 at T > 0), which udd(n >= 1) may not
            return 0.0
        try:
            return storage_time(seq, bath, epsilon, quad, include_phase).t_store
        except RangeExhaustedError:
            # error never reached epsilon inside the scan range, and the
            # target is inside that range, so the target is met
            return math.inf

    if store(0) >= t_target:
        return 0
    n_hi, flat = 1, 0
    while store(n_hi) < t_target:
        # two doublings in a row within the solves' own resolution: the
        # storage time has stalled (with include_phase it plateaus near
        # sqrt(2 epsilon)/alpha), so more pulses would not reach the target
        prev = store(n_hi // 2)
        flat = flat + 1 if abs(store(n_hi) - prev) <= BRACKET_RTOL * prev else 0
        if flat == 2:
            raise SearchExhaustedError(
                f"storage time stalls at {store(n_hi):.10g} from n = {n_hi // 4} to {n_hi}; "
                f"no more pulses are tried for storage {t_target:g}")
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
    """One row of compare_schemes.  kind "signal" gives s_n(t) at t, kind
    "storage" the scheme's storage time as t, and kind "ratio" the
    udd/equidistant storage-time ratio; a cell that the kind does not fill
    is NaN."""

    scheme: str
    n: int
    alpha: float
    temperature: float
    t: float
    s: float
    one_minus_s: float
    error: str = ""
    kind: str = "signal"
    ratio: float = math.nan


def compare_schemes(n: int, alphas, temperatures, t_grid,
                    quad: QuadratureSpec = QuadratureSpec(),
                    omega_d: float = 1.0, epsilon: float | None = None,
                    include_phase: bool = False) -> tuple[SweepRow, ...]:
    """Rows of s_n(t) for both schemes over the Cartesian parameter grid,
    then, with epsilon, their storage times and the udd/equidistant ratio.

    Row order is deterministic: scheme (equidistant, udd), then alpha and
    temperature in the order given, then t ascending.  With epsilon the
    storage rows follow, per bath (alpha, then temperature): one row per
    scheme with storage_time's t_store as t, then the ratio row where both
    schemes solved.  include_phase selects the storage error as in
    storage_time, so it needs epsilon.  A signal cell that raises
    QuadratureError, or a solve that raises it or RangeExhaustedError,
    records it in the row's error field rather than aborting the sweep.
    Settings (an empty alphas or temperatures among them), baths and grid
    are checked before the cells, so any other exception, ValueError too,
    is a fault and propagates.
    """
    if include_phase and epsilon is None:
        raise ValueError("include_phase needs epsilon, since only the storage rows read it")
    if epsilon is not None and not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    for name, axis in (("alphas", alphas), ("temperatures", temperatures)):
        if not len(axis):
            raise ValueError(f"{name} must not be empty")
    ts = _checked_grid(t_grid)
    baths = [OhmicBath(alpha=alpha, omega_d=omega_d, temperature=temp)
             for alpha in alphas for temp in temperatures]
    seqs = {scheme: build(n) for scheme, build in _GENERATORS.items()}

    def row(scheme, bath, t=math.nan, s=math.nan, **cells):
        return SweepRow(scheme, n, float(bath.alpha), float(bath.temperature), t, s, 1.0 - s,
                        **cells)

    rows = []
    for scheme, seq in seqs.items():
        for bath in baths:
            for t in ts.tolist():
                try:
                    rows.append(row(scheme, bath, t, signal(seq, bath, t, quad).signal))
                except QuadratureError as exc:
                    rows.append(row(scheme, bath, t, error=f"{type(exc).__name__}: {exc}"))
    for bath in baths if epsilon is not None else ():
        stores = {}
        for scheme, seq in seqs.items():
            try:
                stores[scheme] = storage_time(seq, bath, epsilon, quad, include_phase).t_store
                rows.append(row(scheme, bath, stores[scheme], kind="storage"))
            except (RangeExhaustedError, QuadratureError) as exc:
                rows.append(row(scheme, bath, error=f"{type(exc).__name__}: {exc}",
                                kind="storage"))
        if stores.keys() == seqs.keys():
            rows.append(row("udd/equidistant", bath, kind="ratio",
                            ratio=stores["udd"] / stores["equidistant"]))
    return tuple(rows)
