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

    deltas are strictly increasing instants in the open interval (0, 1);
    scheme records how the sequence was generated.  A generated label
    (equidistant, udd) must match that generator's instants.  The filters
    read the label only for udd, whose Bessel form it picks; the
    equidistant closed form goes by the instants.  The hash is the instants'
    hash, taken once: the filters' term-table cache hashes a sequence per
    integral.
    """

    deltas: tuple
    scheme: str = "custom"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        ds = tuple(float(d) for d in self.deltas)
        for i, d in enumerate(ds):
            if not (0.0 < d < 1.0):
                raise ValueError(f"delta[{i}] = {d} outside the open interval (0, 1)")
            if i > 0 and d <= ds[i - 1]:
                raise ValueError(
                    f"delta[{i}] = {d} not strictly greater than delta[{i-1}] = {ds[i-1]}"
                )
        if self.scheme in _INSTANTS and ds != _INSTANTS[self.scheme](len(ds)):
            raise ValueError(f"deltas are not the {self.scheme}({len(ds)}) instants; "
                             f"use scheme 'custom'")
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
    return PulseSequence(_equidistant_instants(n), scheme="equidistant")


def udd(n: int) -> PulseSequence:
    """Optimized timing delta_j = sin^2(pi j / (2n+2)).

    For n = 2 this is the CPMG cycle [1/4, 3/4]; values that are exact at
    special angles (1/4, 1/2) are pinned so those identities hold exactly.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return PulseSequence(_udd_instants(n), scheme="udd")


# name -> instants and name -> generator of the generated schemes, in row
# order; SCHEMES adds the user-supplied one
_INSTANTS = {"equidistant": _equidistant_instants, "udd": _udd_instants}
_GENERATORS = {"equidistant": equidistant, "udd": udd}
SCHEMES = (*_GENERATORS, "custom")


def custom(deltas) -> PulseSequence:
    """Validated user-supplied sequence.  Malformed input is rejected, not repaired."""
    return PulseSequence(tuple(deltas), scheme="custom")


def deltas_from_csv(path) -> PulseSequence:
    """Load a custom sequence from a one-column CSV with header ``delta``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "delta":
            raise ValueError(f"{path}: expected header 'delta', got {header}")
        values = [float(row[0]) for row in reader if row]
    return custom(values)
