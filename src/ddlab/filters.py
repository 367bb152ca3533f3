"""Sequence filter factors entering the dephasing integrals.

For a sequence with instants d_1..d_n the phase filter is

    x_n(z) = (-1)^n sin z + sum_m (-1)^(m+1) sin(z d_m)

and the coherence filter is

    y_n(z) = 1 + (-1)^(n+1) e^(iz) + 2 sum_m (-1)^m e^(iz d_m),

with y_n(0) = 0 always.  |y_n|^2 multiplies the bath weight inside the
decay exponent; x_n enters only the deterministic phase.  Term by term,

    x_n(z) = ((-1)^n sin z - Im y_n(z)) / 2,

so both filters read one term table: y = sum_j c_j e^(iz d_j) over the
instants (0, d_1..d_n, 1).  y_abs_sq_and_x_array gives both from one
evaluation of that table, for integrals that need chi and phi together.

When the instants are mirror symmetric, d_j + d_(n+1-j) = 1 (every
generated sequence, and any custom one that is), the terms pair up about
the midpoint.  With u_j = d_j - 1/2, y becomes a real half-sum S over the
first half of the terms:

    n even:  y = i e^(iz/2) S,  S = sum_j 2 c_j sin(z u_j),
    n odd:   y = e^(iz/2) S,    S = c_mid + sum_j 2 c_j cos(z u_j),

so Im y = cos(z/2) S for n even and sin(z/2) S for n odd.  That needs
about a quarter of the transcendental evaluations of the complex sum, and
x reuses the same S.  Other sequences sum the full term set, x its sine
row alone.  The term table (phases, weights, mirror check, and whether the
instants are equidistant) is built once per sequence and cached.

Equidistant instants, d_m = m/(n+1), make y a geometric sum, so S has the
exact closed form of _equidistant_half_sum at every node, poles removed;
those sequences (equidistant(n), and custom or udd ones with the same
instants: udd(0) and udd(1)) never sum the term table.  The instants
decide, not the label.

One kernel, _split_sums, evaluates every row sum on an outer-sum grid of
centres c and offsets o: the sums at c + o.  Quadrature nodes are panel
centres plus offsets that all panels of one width share (the quadrature
hands each round's panels to a PanelGrid), so by angle addition,

    sin((c + o) u) = sin(cu) cos(ou) + cos(cu) sin(ou),
    cos((c + o) u) = cos(cu) cos(ou) - sin(cu) sin(ou),

sin/cos are needed once per panel and term and once per width and term,
not once per node and term.  Arbitrary z, and rounds too small for the
factoring to pay, are the zero-offset case: the centres are the nodes and
sin/cos are taken at them directly.  The factored sums are taken at
c + o, the node before it was rounded, so they can differ from sums at
the rounded node by about that rounding times |dy/dz|; both stay inside
the noise model of _delegation_threshold against 40-digit mpmath at their
own points (tests/test_filters.py).  Either way the centres are taken in
blocks, and each row sum of bounded terms with small power-of-two weights
is split error-free (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31
(2008)): the high parts sum exactly in any order, so only the tiny low
parts round, and no sum depends on the blocking.

The n+2 unit-magnitude terms of y_n cancel to O(z^(n+1)) at small z, so
the direct sum cannot resolve |y|^2 where the sequence suppresses it
deeply.  y_abs_sq_array is the one place that picks the source of |y|^2
at each node, from four:

  closed     |y|^2 from the closed-form y, for equidistant instants at
             every node: the ideal sequence's values, to a few ulps
             relative down to the smallest z;
  direct     the error-free sum above, wherever it resolves the value;
  Bessel     16 (n+1)^2 J_{n+1}(z/2)^2 for optimized (udd) sequences with
             n >= 2, exact up to exponentially small corrections for
             z/(2n+2) < 1, below the direct sum's noise floor down to the
             smallest z, so it gives the ideal sequence's values;
  Taylor     z^2 (S1^2 + z^2 (S2^2/4 - S1 S3/3)) from the moments
             S_k = sum_j c_j d_j^k, at |z| < 1e-5 for custom sequences
             with other instants.

The udd label picks the Bessel form, and PulseSequence rejects a generated
label whose instants are not that generator's.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .quadrature import NODES
from .sequences import PulseSequence, _equidistant_instants
from .special import bessel_j

__all__ = [
    "x_factor",
    "y_factor",
    "y_abs_sq",
    "x_factor_array",
    "y_factor_array",
    "y_abs_sq_array",
    "y_abs_sq_and_x_array",
    "PanelGrid",
    "y_taylor_moments",
    "equidistant_closed_form",
    "bessel_approx",
]

# Direct summation leaves absolute noise ~ 4 eps (1+z) sqrt(n+2) in y (the
# z factor from rounding of the phase products; TestNoiseBound in
# tests/test_filters.py checks the bound against mpmath), so |y|^2 below the
# threshold where that noise exceeds 1e-11 relative is taken from the
# Bessel approximation for udd instead.  Thresholding on the noise-free
# analytic value keeps the switchover deterministic.  The window stops
# short of z = 2n+2 where the J_{3(n+1)} corrections wake up.
_BESSEL_WINDOW = 0.95  # in units of z/(2n+2)
# equidistant_closed_form refuses z this close to a pole of its tangent form
_POLE_TOL = 1e-12
# pi = _PI_HI + _PI_LO to about 1e-23, _PI_HI of 26 bits, so M * _PI_HI is
# exact for integers |M| < 2^27
_PI_HI = 3.1415926218032837
_PI_LO = 3.178650954705639e-08
# custom sequences take |y|^2 from its moment expansion below this |z|,
# where the omitted O(z^6) terms are negligible
_SMALL_Z = 1e-5


def _delegation_threshold(n: int, z: np.ndarray) -> np.ndarray:
    # (2 * 4 eps (1+z) sqrt(n+2) / 1e-11)^2, floored at 1e-8
    return np.maximum(1e-8, 3.2e-8 * (1.0 + np.abs(z)) ** 2 * (n + 2))


# a block of the phase matrix holds at most this many elements, so memory
# stays flat however many nodes one quadrature round brings
_BLOCK_ELEMENTS = 2**15
# below this many panel-terms (panels times terms) a round takes the
# zero-offset kernel: the transcendentals that factoring saves cost less
# than its fixed cost per round
_FACTOR_MIN = 2**10


# term tables of the last _PLAN_SIZE sequences, by id: id -> (seq, table)
_PLAN_SIZE = 64
_PLANS: dict = {}
_PLANS_LOCK = threading.Lock()


def _y_coefficients(seq: PulseSequence):
    """Term weights c_j and instants d_j with y(z) = sum_j c_j e^(iz d_j)."""
    n = seq.n
    d = np.concatenate(([0.0], seq.as_array(), [1.0]))
    c = np.where(np.arange(n + 2) % 2 == 0, 2.0, -2.0)
    c[0] = 1.0
    c[n + 1] = (-1.0) ** (n + 1)
    return c, d


class _Terms(NamedTuple):
    """The sums y is read from: rows sum_j w_j f(z u_j), one per f in funcs.

    Mirror-symmetric instants give the real half-sum S (funcs is (sin,) for
    an even number of terms, (cos,) for an odd one), other sequences the
    full term set with funcs (cos, sin), the real and imaginary parts of y.
    Equidistant instants are mirror-symmetric, and their S has a closed
    form, so the table's rows are never summed for them.
    """

    u: np.ndarray
    w: np.ndarray
    sigma: float
    funcs: tuple
    # the instants are equidistant: S comes from _equidistant_half_sum
    closed: bool

    @property
    def mirror(self) -> bool:
        return len(self.funcs) == 1


def _term_table(seq: PulseSequence) -> _Terms:
    """The term table of seq, built once per sequence object.

    The cache holds the last _PLAN_SIZE sequences by identity, so a hit
    costs no hash of the instants.  It keeps each sequence it holds alive,
    so no other object can take that sequence's id meanwhile.
    """
    with _PLANS_LOCK:
        hit = _PLANS.get(id(seq))
        if hit is not None:
            return hit[1]
        terms = _build_term_table(seq)
        if len(_PLANS) >= _PLAN_SIZE:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[id(seq)] = (seq, terms)
        return terms


def _build_term_table(seq: PulseSequence) -> _Terms:
    c, d = _y_coefficients(seq)
    if not bool(np.all(d + d[::-1] == 1.0)):
        u, w, funcs = d, c, (np.cos, np.sin)
    else:
        # S with sum_j c_j e^(iz d_j) = e^(iz/2) S for an odd number K of
        # terms and i e^(iz/2) S for an even one, from the mirror pairs of
        # phases u_j = 1/2 - d_(K-1-j); these are exact, since
        # d_(K-1-j) >= 1/2, and the weights obey c_(K-1-j) = (-1)^(K+1) c_j
        half = len(d) // 2
        u, w = 0.5 - d[::-1][:half], 2.0 * c[:half]
        if len(d) % 2 == 0:
            funcs = (np.sin,)
        else:
            u, w, funcs = np.append(u, 0.0), np.append(w, c[half]), (np.cos,)
    sigma = 2.0 ** (math.ceil(math.log2(max(np.sum(np.abs(w)), 1.0))) + 1)
    u.flags.writeable = w.flags.writeable = False
    return _Terms(u, w, sigma, funcs, seq.deltas == _equidistant_instants(seq.n))


def _split_sums(centres: np.ndarray, terms: _Terms, funcs, offsets=None) -> np.ndarray:
    """sum_j w_j f((c + o) u_j) over the term table on the outer-sum grid of
    centres c and offsets o, one row per f in funcs (np.sin or np.cos), in
    the shape (len(funcs), centres, offsets).

    offsets=None is the zero-offset case: the grid is the centres
    themselves and f is taken at c u_j directly.  Otherwise offsets holds
    cos(o_k u_j) and sin(o_k u_j) as two (offsets, len(u)) tables, and the
    terms come from sin(c u_j) and cos(c u_j) by angle addition, so the
    transcendentals are taken once per centre and term, not once per node
    and term.

    Every term lies in [-1, 1], up to a few rounding errors for the angle
    addition, and every weight is a small power of two.  Adding and
    removing sigma >= 2 sum|w| rounds each term to a grid on which the
    weighted sums of these high parts are exact in any order, so BLAS may
    sum them.  The exact remainders are summed in numpy's fixed order per
    node and round only at their own tiny scale, so no node's sums depend
    on how the centres are blocked.
    """
    u, w, sigma = terms.u, terms.w, terms.sigma
    flat = centres.reshape(-1)
    width = 1 if offsets is None else offsets[0].shape[0]
    rows = min(max(1, _BLOCK_ELEMENTS // max(width * len(u), 1)), max(flat.size, 1))
    out = np.empty((len(funcs), flat.size, width))
    # one set of block buffers serves every block: fresh block-sized arrays
    # would cost a page fault per page on each block
    phase = np.empty((rows, len(u)))
    values, high = np.empty((2, rows, width, len(u)))
    if offsets is not None:
        cos_o, sin_o = offsets
        sin_c, cos_c = np.empty((2, rows, 1, len(u)))
        spare = np.empty_like(values)
    for start in range(0, flat.size, rows):
        r = min(rows, flat.size - start)
        ph, t, h = phase[:r], values[:r], high[:r]
        np.multiply.outer(flat[start:start + r], u, out=ph)
        if offsets is not None:
            np.sin(ph, out=sin_c[:r, 0])
            np.cos(ph, out=cos_c[:r, 0])
        for f, sums in zip(funcs, out):
            if offsets is None:
                f(ph, out=t[:, 0])
            elif f is np.sin:
                np.multiply(sin_c[:r], cos_o, out=t)
                t += np.multiply(cos_c[:r], sin_o, out=spare[:r])
            else:
                np.multiply(cos_c[:r], cos_o, out=t)
                t -= np.multiply(sin_c[:r], sin_o, out=spare[:r])
            np.add(t, sigma, out=h)
            h -= sigma
            t -= h
            t *= w
            sums[start:start + r] = h @ w + t.sum(axis=-1)
    return out


class PanelGrid:
    """The quadrature's panels in z, for the panel kernel.

    One grid serves every round of one integral over one sequence, in
    z = w t.  set_round, integrate_adaptive's panels hook, takes each
    round's centres and nominal half-widths in w.  The filter sums of that
    round's nodes then run at c + o_k, with c the panel's centre and
    o_k = h x_k for h its half-width and x_k quadrature.NODES: sin/cos(c u_j)
    once per panel and term, and sin/cos(o_k u_j) once per half-width and
    term for the grid's lifetime.  c + o_k is the node before it was
    rounded, up to the rounding of the panel edges.
    """

    def __init__(self, seq: PulseSequence, t: float):
        self.seq = seq
        self.terms = _term_table(seq)
        self.t = float(t)
        self._round = None
        self._tables = {}

    def set_round(self, centres: np.ndarray, half_widths: np.ndarray) -> None:
        """Announce the next round's panels, centres and half-widths in w."""
        self._round = (centres * self.t, half_widths * self.t)

    def _offset_rows(self, half_width: float):
        rows = self._tables.get(half_width)
        if rows is None:
            phase = np.multiply.outer(half_width * NODES, self.terms.u)
            rows = self._tables[half_width] = (np.cos(phase), np.sin(phase))
        return rows

    def sums(self, z: np.ndarray, funcs) -> np.ndarray:
        """The term sums of funcs at the nodes z, one row per f in z's shape.

        Only the announced round's nodes take the panel kernel: 15 nodes
        per panel with the middle ones exactly at the centres.  Other z,
        and rounds with fewer than _FACTOR_MIN panel-terms, where factoring
        saves less than its fixed cost, take the zero-offset case.
        """
        m = NODES.size
        if (self._round is None or z.shape != (m * self._round[0].size,)
                or z.size * len(self.terms.u) < _FACTOR_MIN * m
                or not np.array_equal(z[m // 2::m], self._round[0])):
            return _split_sums(z, self.terms, funcs).reshape((len(funcs),) + z.shape)
        centres, halfs = self._round
        out = np.empty((len(funcs), centres.size, m))
        for h in np.unique(halfs).tolist():
            at = halfs == h
            out[:, at] = _split_sums(centres[at], self.terms, funcs, self._offset_rows(h))
        return out.reshape(len(funcs), z.size)


def _table_of(seq: PulseSequence, grid) -> _Terms:
    if grid is None:
        return _term_table(seq)
    if grid.seq is not seq and grid.seq != seq:
        raise ValueError("the panel grid was built for another sequence")
    return grid.terms


def _term_sums(n: int, terms: _Terms, z: np.ndarray, grid, funcs) -> np.ndarray:
    # the sums of funcs at the nodes z, one row per f, each in z's shape
    if terms.closed:
        return _equidistant_half_sum(n, z)[None]
    if grid is not None:
        return grid.sums(z, funcs)
    return _split_sums(z, terms, funcs).reshape((len(funcs),) + z.shape)


def x_factor_array(seq: PulseSequence, z: np.ndarray, grid=None) -> np.ndarray:
    """x_n(z) = ((-1)^n sin z - Im y_n(z)) / 2 over an array of arguments.

    Im y comes from the half-sum S for mirror-symmetric sequences (the
    closed form for equidistant instants), the sine row of the full term
    set for others.  grid, a PanelGrid built for seq, lets quadrature nodes
    take the panel kernel.
    """
    z = np.asarray(z, dtype=float)
    terms = _table_of(seq, grid)
    if not terms.mirror:
        im = _term_sums(seq.n, terms, z, grid, (np.sin,))[0]
    else:
        half_sum = _term_sums(seq.n, terms, z, grid, terms.funcs)[0]
        im = (np.sin(z / 2) if seq.n % 2 else np.cos(z / 2)) * half_sum
    return 0.5 * ((-1) ** seq.n * np.sin(z) - im)


def y_factor_array(seq: PulseSequence, z: np.ndarray, grid=None) -> np.ndarray:
    """y_n(z) over an array of arguments.

    Equidistant instants take the real half-sum's closed form, other
    mirror-symmetric sequences the half-sum itself, others the full term
    set; both sums are taken with the error-free split.  grid, a PanelGrid
    built for seq, lets quadrature nodes take the panel kernel.
    """
    z = np.asarray(z, dtype=float)
    terms = _table_of(seq, grid)
    rows = _term_sums(seq.n, terms, z, grid, terms.funcs)
    if not terms.mirror:
        return rows[0] + 1j * rows[1]
    rot = np.exp(0.5j * z) if seq.n % 2 else 1j * np.exp(0.5j * z)
    return rot * rows[0]


def y_abs_sq_array(seq: PulseSequence, z: np.ndarray, grid=None) -> np.ndarray:
    """|y_n(z)|^2 over an array of arguments.

    np.abs(y_factor_array(seq, z)) ** 2, which is exact at every node for
    equidistant instants; for other sequences the direct sum, except where
    the value sits below the double-precision cancellation floor: there the
    Bessel form (udd, n >= 2) takes over down to the smallest z, giving the
    ideal sequence's values, and custom sequences take the moment expansion
    at |z| < _SMALL_Z.  grid is passed on to y_factor_array.
    """
    z = np.asarray(z, dtype=float)
    terms = _table_of(seq, grid)
    return _select_source(seq, terms, z, np.abs(y_factor_array(seq, z, grid)) ** 2)


def y_abs_sq_and_x_array(seq: PulseSequence, z: np.ndarray, grid=None):
    """(|y_n(z)|^2, x_n(z)) from one evaluation of y's term table.

    |y|^2 takes its source as y_abs_sq_array does, and x is
    ((-1)^n sin z - Im y) / 2; both equal the single-filter functions'
    values with the same grid bit for bit.
    """
    z = np.asarray(z, dtype=float)
    terms = _table_of(seq, grid)
    y = y_factor_array(seq, z, grid)
    x = 0.5 * ((-1) ** seq.n * np.sin(z) - y.imag)
    return _select_source(seq, terms, z, np.abs(y) ** 2), x


def _select_source(seq: PulseSequence, terms: _Terms, z: np.ndarray,
                   direct: np.ndarray) -> np.ndarray:
    # |y|^2 from y_factor_array, with the Bessel or Taylor form swapped in
    # where y_abs_sq_array describes; the closed form needs neither
    if terms.closed:
        return direct
    n = seq.n
    if seq.scheme == "udd":
        # n >= 2 here: udd(0) and udd(1) have equidistant instants
        threshold = _delegation_threshold(n, z)
        window = np.abs(z) < _BESSEL_WINDOW * (2 * n + 2)
        return _delegate(direct, window & (direct < 2.0 * threshold), threshold,
                         lambda c: bessel_approx(n, np.abs(z[c])))
    small = np.abs(z) < _SMALL_Z
    if np.any(small):
        s1, s2, s3 = y_taylor_moments(seq)
        z2 = z[small] ** 2
        direct[small] = z2 * (s1 * s1 + z2 * (s2 * s2 / 4.0 - s1 * s3 / 3.0))
    return direct


def _delegate(direct, candidates, threshold, analytic_at):
    # swap the analytic values at the candidate nodes into the freshly
    # computed direct sums wherever they fall below the threshold
    if np.any(candidates):
        analytic = analytic_at(candidates)
        use = analytic < threshold[candidates]
        direct.flat[np.flatnonzero(candidates)[use]] = analytic[use]
    return direct


def y_taylor_moments(seq: PulseSequence):
    """Moments S_k = sum_j c_j d_j^k of the y-filter terms, k = 1, 2, 3.

    Small-z expansion: |y(z)|^2 = S1^2 z^2 + (S2^2/4 - S1 S3/3) z^4 + O(z^6).
    S1 = 0 whenever the sequence cancels the filter's first derivative
    (udd of any order, the lone mid-point echo).
    """
    c, d = _y_coefficients(seq)
    s1 = float(np.dot(c, d))
    s2 = float(np.dot(c, d * d))
    s3 = float(np.dot(c, d * d * d))
    return s1, s2, s3


def x_factor(seq: PulseSequence, z: float) -> float:
    """Phase filter x_n(z); n = 0 gives sin(z)."""
    return float(x_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_factor(seq: PulseSequence, z: float) -> complex:
    """Coherence filter y_n(z), as y_factor_array gives it."""
    return complex(y_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_abs_sq(seq: PulseSequence, z: float) -> float:
    """|y_n(z)|^2; see y_abs_sq_array for the source selection."""
    return float(y_abs_sq_array(seq, np.atleast_1d(float(z)))[0])


def equidistant_closed_form(n: int, z):
    """|y_n(z)|^2 for n equidistant pulses, by the parity closed form.

    4 tan^2(z/(2n+2)) cos^2(z/2) for n even, 4 tan^2(z/(2n+2)) sin^2(z/2)
    for n odd, evaluated as the square of _equidistant_half_sum, which is
    finite everywhere.  Keeps the contract of the tangent form: n >= 1, and
    z within 1e-12 of a tangent pole (|cos(z/(2n+2))| < 1e-12) raises.
    """
    if n < 1:
        raise ValueError(f"closed form needs n >= 1, got {n}")
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(np.abs(np.cos(zs / (2 * n + 2))) < _POLE_TOL):
        raise ValueError(f"z within {_POLE_TOL} of a tangent pole of the n={n} closed form")
    out = _equidistant_half_sum(n, zs) ** 2
    return out if np.ndim(z) else float(out[0])


def _equidistant_half_sum(n: int, z: np.ndarray) -> np.ndarray:
    """The half-sum S of n equidistant pulses, from the geometric sum.

    With N = n + 1 and theta = z/(2N),

        S = -2 sin(theta) R,  R = cos(N theta) / cos(theta)  (n even),
                              R = sin(N theta) / cos(theta)  (n odd),

    so y = -2i e^(iz/2) sin(theta) R or -2 e^(iz/2) sin(theta) R, and n = 0
    gives y = 1 - e^(iz).  R is a trigonometric polynomial: its poles at
    theta = (k + 1/2) pi are removable.  Where |cos theta| > 1/2 it is
    taken as written, with N theta = z/2 exact.  Nearer a pole, z' = z - M pi
    with M = (2k+1) N is reduced with a two-part pi, phi = z'/(2N), and

        S = 2 (-1)^(n+1) s cos(phi) sin(z'/2) / sin(phi),

    s = 1 for M = 0, 1 (mod 4) and -1 otherwise; the ratio is N at z' = 0.
    The reduction is exact for |M| < 2^27, |z| below about 4e8.
    """
    big_n = n + 1
    theta = z / (2 * big_n)
    cos_t = np.cos(theta)
    top = np.cos(0.5 * z) if n % 2 == 0 else np.sin(0.5 * z)
    s = -2.0 * np.sin(theta) * (top / cos_t)
    near = np.abs(cos_t) <= 0.5
    if np.any(near):
        m = (2.0 * np.rint(theta[near] / math.pi - 0.5) + 1.0) * big_n
        reduced = (z[near] - m * _PI_HI) - m * _PI_LO
        phi = reduced / (2 * big_n)
        ratio = np.divide(np.sin(0.5 * reduced), np.sin(phi),
                          out=np.full_like(phi, float(big_n)), where=reduced != 0.0)
        sign = np.where(np.mod(m, 4.0) < 2.0, 2.0, -2.0) * (-1) ** (n + 1)
        s[near] = sign * np.cos(phi) * ratio
    return s


def bessel_approx(n: int, z):
    """Small-z form 16 (n+1)^2 J_{n+1}(z/2)^2 for the optimized sequence.

    Intended for z/(2n+2) < 1; outside that window the caller owns the
    approximation error.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    j = bessel_j(n + 1, np.abs(z) / 2.0)
    return 16.0 * (n + 1) ** 2 * j * j
