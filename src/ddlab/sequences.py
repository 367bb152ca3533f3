"""Pulse-instant sequences: equidistant, optimized (UDD), and user-supplied.

A sequence is the sorted list of normalized instants delta_j in (0, 1) at
which pi-pulses act during the interval [0, t].  n = 0 is free evolution.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PulseSequence", "equidistant", "udd", "custom", "deltas_from_csv"]


@dataclass(frozen=True)
class PulseSequence:
    """Immutable, validated pulse sequence.

    deltas are strictly increasing instants in the open interval (0, 1),
    and they are all a sequence is: custom(udd(n).deltas) == udd(n).  The
    hash is the instants' hash, taken once: the filters' term-table cache
    hashes a sequence per integral.
    """

    deltas: tuple

    def __post_init__(self):
        ds = tuple(float(d) for d in self.deltas)
        for i, d in enumerate(ds):
            if not (0.0 < d < 1.0):
                raise ValueError(f"delta[{i}] = {d} outside the open interval (0, 1)")
            if i > 0 and d <= ds[i - 1]:
                raise ValueError(
                    f"delta[{i}] = {d} not strictly greater than delta[{i-1}] = {ds[i-1]}"
                )
        object.__setattr__(self, "deltas", ds)
        object.__setattr__(self, "_hash", hash(ds))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.deltas)

    def as_array(self) -> np.ndarray:
        return np.array(self.deltas, dtype=float)


def _mirrored(first_half, n: int) -> tuple:
    """Assemble a symmetric sequence so d_j + d_{n+1-j} = 1 holds exactly."""
    out = list(first_half)
    if n % 2 == 1:
        out.append(0.5)
    out.extend(1.0 - d for d in reversed(first_half))
    return tuple(out)


def _equidistant_instants(n: int) -> tuple:
    return _mirrored([m / (n + 1) for m in range(1, n // 2 + 1)], n)


def _udd_instants(n: int) -> tuple:
    half = []
    for j in range(1, n // 2 + 1):
        if 3 * j == n + 1:  # sin(pi/6) = 1/2 exactly
            half.append(0.25)
        else:
            s = math.sin(math.pi * j / (2 * n + 2))
            half.append(s * s)
    return _mirrored(half, n)


def equidistant(n: int) -> PulseSequence:
    """n equally spaced pulses, delta_m = m/(n+1)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return PulseSequence(_equidistant_instants(n))


def udd(n: int) -> PulseSequence:
    """Optimized timing delta_j = sin^2(pi j / (2n+2)).

    For n = 2 this is the CPMG cycle [1/4, 3/4]; values that are exact at
    special angles (1/4, 1/2) are pinned so those identities hold exactly.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return PulseSequence(_udd_instants(n))


# generators by scheme name, in row order; SCHEMES adds the user-supplied one
_GENERATORS = {"equidistant": equidistant, "udd": udd}
SCHEMES = (*_GENERATORS, "custom")


def custom(deltas) -> PulseSequence:
    """Validated user-supplied sequence.  Malformed input is rejected, not repaired."""
    return PulseSequence(tuple(deltas))


def deltas_from_csv(path) -> PulseSequence:
    """Load a custom sequence from a one-column CSV with header ``delta``."""
    return custom(d for (d,) in _read_rows(path, ("delta",)))


def _read_rows(path, header: tuple) -> list:
    """The rows of the CSV at path, each a tuple of floats.

    The first line must name the header's cells in order, whitespace around
    a cell aside, and every later non-blank line must hold one number per
    header cell.  Errors name the path and, past the header, the line.
    """
    names = ",".join(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != list(header):
            raise ValueError(f"{path}: expected header {names!r}, got {first}")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {names!r}, got {row}")
            try:
                rows.append(tuple(float(x) for x in row))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows
