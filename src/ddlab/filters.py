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
about a quarter of the transcendental evaluations of the complex sum.
Other sequences sum the full term set.  x is always read from y's sums,
so both filters take the same kernel on the same nodes.  The term table
(phases, weights, mirror check, and whether the instants are equidistant
or optimized) is built per distinct sequence and cached, the last 64 kept.

Equidistant instants, d_m = m/(n+1), make y a geometric sum, so S has the
exact closed form of _equidistant_half_sum at every node, poles removed;
those sequences (equidistant(n), and udd(0) and udd(1), whose instants
are the same) never sum the term table.

Two kernels take the row sums, both split error-free, so that no sum
depends on how the nodes are blocked or on BLAS's thread count.
Quadrature nodes are panel centres plus offsets that all panels of one
width share (the quadrature hands each round's panels to a PanelGrid), so
by angle addition,

    sin((c + o) u) = sin(cu) cos(ou) + cos(cu) sin(ou),
    cos((c + o) u) = cos(cu) cos(ou) - sin(cu) sin(ou),

and since the offsets come in pairs +-o, the sums at the 15 nodes of a
panel are matrix products of the rows w sin(cu), w cos(cu) with a table of
cos(ou), sin(ou) per width: sin/cos are needed once per panel and term and
once per width and term, not once per node and term.  The quadrature
bisects equal panels of [0, w_c], so a panel of half-width h is centred at
(2k+1) h up to the rounding of its edges, and every first round is a
lattice run: its centres are the consecutive lattice points k = k0, k0+1,
... of one half-width.  For tables of at least _LATTICE_TERMS terms the
centre rows of a lattice run come from those points by angle addition once
more: with k = 8q + r, e^((2k+1)hu i) is a row of a step table of the
first 8 lattice points times e^(16qhu i), so sin/cos are taken once per 8
consecutive panels and term instead.  A PanelGrid builds that round's step
table where sharing base rows saves _LATTICE_SAVED rows of sin/cos; every
other round, and smaller tables, keep sin/cos.  _panel_sums takes
these products error-free after Ozaki, Ogita, Oishi & Rump (Numer.
Algorithms 59 (2012)): both factors are cut into slices short enough that
every slice product is exact in any summation order, so BLAS's GEMM sums
them and no panel sum depends on the order of the terms either; the few
slice products left out stay below 1 % of the noise floor.  The panel
sums are taken at c + o, the node before it was rounded, with c the
lattice point in a lattice run (within 4 eps c of the centre), so they
can differ from sums at the rounded node by about that distance times
|dy/dz|; both stay inside the noise model of _delegation_threshold against
40-digit mpmath at the centre plus offset (tests/test_filters.py).
Arbitrary z, and rounds too small for the panel kernel to pay, take
_split_sums at the nodes themselves: each term is split error-free (Rump,
Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008)), the high parts sum exactly
in any order, and only the tiny low parts round.  Both kernels split with
_split.

The n+2 unit-magnitude terms of y_n cancel to O(z^(n+1)) at small z, so
the direct sum cannot resolve |y|^2 where the sequence suppresses it
deeply.  y_abs_sq_array is the one place that picks the source of |y|^2
at each node, from four:

  closed     |y|^2 from the closed-form y, for equidistant instants at
             every node: the ideal sequence's values, to a few ulps
             relative down to the smallest z;
  direct     the error-free sums above, wherever they resolve the value;
  Bessel     16 (n+1)^2 J_{n+1}(z/2)^2 for the udd(n) instants, n >= 2,
             exact up to exponentially small corrections for z/(2n+2) < 1,
             below the direct sum's noise floor down to the smallest z, so
             it gives the ideal sequence's values;
  Taylor     z^2 (S1^2 + z^2 (S2^2/4 - S1 S3/3)) from the moments
             S_k = sum_j c_j d_j^k, at |z| < 1e-5 for all other instants.

The term table picks among them by the instants alone: udd(n) and a
custom sequence with its instants are one sequence.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .quadrature import NODES
from .sequences import PulseSequence, _equidistant_instants, _udd_instants
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
    "bessel_approx",
]

# Direct summation leaves absolute noise ~ 4 eps (1+z) sqrt(n+2) in y (the
# z factor from rounding of the phase products; TestNoiseBound in
# tests/test_filters.py checks the bound against mpmath), so |y|^2 below the
# threshold where that noise exceeds 1e-11 relative is taken from the
# Bessel approximation for the udd(n) instants instead.  Thresholding on
# the noise-free analytic value keeps the switchover deterministic.  The
# window stops short of z = 2n+2 where the J_{3(n+1)} corrections wake up.
_BESSEL_WINDOW = 0.95  # in units of z/(2n+2)
# pi = _PI_HI + _PI_LO to about 1e-23, _PI_HI of 26 bits, so M * _PI_HI is
# exact for integers |M| < 2^27
_PI_HI = 3.1415926218032837
_PI_LO = 3.178650954705639e-08
_EPS = float(np.finfo(float).eps)
# custom sequences take |y|^2 from its moment expansion below this |z|,
# where the omitted O(z^6) terms are negligible
_SMALL_Z = 1e-5


def _delegation_threshold(n: int, z: np.ndarray) -> np.ndarray:
    # (2 * 4 eps (1+z) sqrt(n+2) / 1e-11)^2, floored at 1e-8
    return np.maximum(1e-8, 3.2e-8 * (1.0 + np.abs(z)) ** 2 * (n + 2))


# a block of the zero-offset kernel's phase matrix holds at most this many
# elements, and one of the panel kernel's four times as many, so memory
# stays flat however many nodes one quadrature round brings
_BLOCK_ELEMENTS = 2**15
# below this many panel-term-rows (panels times terms times rows summed) a
# round takes the zero-offset kernel: the transcendentals that the panel
# kernel saves cost less than its fixed cost of about 0.1 ms per round.
# Measured break-even (Python 3.11, numpy 2.4, OpenBLAS on one thread of a
# 2-core Xeon, offset table cached): 360 to 500 for tables of 3 to 51
# terms, under one panel for 501 and 1002 terms
_FACTOR_MIN = 2**9
# tables of at least this many terms take the centre rows of panels on
# their width's lattice by angle addition (_centre_rows); below it the
# sin/cos saved cost less than the step table and the per-group calls.
# Measured on signals at t = 123 and 600 (40- and 192-panel first rounds,
# same machine as _FACTOR_MIN): tables of 64 to 128 terms lost up to 23 %
# on the 40-panel round, tables of 192 and 256 terms lost on neither
_LATTICE_TERMS = 192
# a step table holds the rows of the first 8 lattice centres of its
# half-width, and 8 consecutive centres share one base row
_LATTICE_STEPS = 8
# a PanelGrid builds a lattice run's step table where its centres, by
# sharing base rows, save at least this many rows of sin/cos: three tables'
# worth, where first rounds of 26 panels and more gained (measured as
# _LATTICE_TERMS, t = 60 to 600)
_LATTICE_SAVED = 3 * _LATTICE_STEPS
# a centre c is on the lattice of half-width h where |c - (2k+1) h| is at
# most this times c; the quadrature's centres were measured within 2 eps c
_LATTICE_TOL = 4 * _EPS


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
    # the zero-offset kernel's splitting constant, >= 2 sum|w|
    sigma: float
    funcs: tuple
    # the instants are equidistant: S comes from _equidistant_half_sum
    closed: bool
    # the instants are udd(n)'s for n >= 2: small |y|^2 from bessel_approx
    bessel: bool
    # the panel kernel's slicing: max|w| rounded up to a power of two, and
    # the count and width of the slices (_slicing)
    scale: float
    slices: int
    beta: int

    @property
    def mirror(self) -> bool:
        return len(self.funcs) == 1


@functools.lru_cache(maxsize=64)
def _term_table(seq: PulseSequence) -> _Terms:
    """The term table of seq, one per distinct sequence, the last 64 kept."""
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
    scale = 2.0 ** math.ceil(math.log2(np.max(np.abs(w))))
    u.flags.writeable = w.flags.writeable = False
    return _Terms(u, w, sigma, funcs, seq.deltas == _equidistant_instants(seq.n),
                  seq.n >= 2 and seq.deltas == _udd_instants(seq.n),
                  scale, *_slicing(len(u), scale, seq.n))


def _slicing(k: int, scale: float, n: int) -> tuple:
    """(slices, beta) for the panel kernel on a table of k terms with
    weights up to scale, for a sequence of n pulses.

    The fewest slices s whose dropped products, at most
    2 k scale 2^(-s beta) (s + 3)/4 (1 + 2^(1-beta)) per sum, stay below
    1 % of the noise floor 4 eps sqrt(n+2) at z = 0, each slice as wide as
    the exactness condition s k (2^beta + 1)^2 < 2^53 allows (_panel_sums).
    """
    floor = 0.01 * 4.0 * _EPS * math.sqrt(n + 2)
    for s in itertools.count(1):
        beta = (53 - (s * k).bit_length()) // 2 + 1
        while beta > 0 and s * k * (2**beta + 1) ** 2 >= 2**53:
            beta -= 1
        if beta < 2:
            raise ValueError(f"no exact slicing for a table of {k} terms")
        if 2 * k * scale * 2.0 ** (-s * beta) * (s + 3) / 4 * (1 + 2.0 ** (1 - beta)) < floor:
            return s, beta


def _split(x: np.ndarray, sigma: float, high: np.ndarray) -> None:
    """high = x rounded to a multiple of ulp(sigma), and x -= high.

    fl(fl(x + sigma) - sigma) rounds x to that grid whenever |x| <= sigma/2,
    and the remainder x - high is exact (Rump, Ogita & Oishi 2008).  With
    high x itself, x is rounded in place and no remainder is kept.
    """
    np.add(x, sigma, out=high)
    high -= sigma
    if high is not x:
        x -= high


def _slices(x: np.ndarray, spare: np.ndarray, scale: float, beta: int, count: int):
    """Cut x into count slices, yielded in turn: the first count-1 in spare,
    each overwritten by the next, and the last in x.

    For values of magnitude <= scale (a power of two), slice i is a multiple
    of scale 2^(-i beta), at most scale for i = 1 and at most half the unit
    of slice i-1 after, so at most 2^beta units.  What the last slice
    leaves, <= scale 2^(-count beta) / 2, is dropped.
    """
    for i in range(1, count):
        _split(x, 0.75 * scale * 2.0 ** (53 - i * beta), spare)
        yield spare
    _split(x, 0.75 * scale * 2.0 ** (53 - count * beta), x)
    yield x


def _split_sums(z: np.ndarray, terms: _Terms) -> np.ndarray:
    """sum_j w_j f(z u_j) over the term table at arbitrary nodes z, one row
    per f in terms.funcs, each in z's shape.

    Every term lies in [-1, 1] and every weight is a small power of two.
    _split with sigma >= 2 sum|w| rounds each term to a grid on which the
    weighted sums of these high parts are exact in any order, so BLAS may
    sum them.  The exact remainders are summed in numpy's fixed order per
    node and round only at their own tiny scale, so no node's sums depend
    on how the nodes are blocked.
    """
    u, w, sigma, funcs = terms.u, terms.w, terms.sigma, terms.funcs
    flat = z.reshape(-1)
    rows = min(max(1, _BLOCK_ELEMENTS // max(len(u), 1)), max(flat.size, 1))
    out = np.empty((len(funcs), flat.size))
    # one set of block buffers serves every block: fresh block-sized arrays
    # would cost a page fault per page on each block
    phase, values, high = np.empty((3, rows, len(u)))
    for start in range(0, flat.size, rows):
        r = min(rows, flat.size - start)
        ph, t, h = phase[:r], values[:r], high[:r]
        np.multiply.outer(flat[start:start + r], u, out=ph)
        for f, sums in zip(funcs, out):
            f(ph, out=t)
            _split(t, sigma, h)
            t *= w
            sums[start:start + r] = h @ w + t.sum(axis=-1)
    return out.reshape((len(funcs),) + z.shape)


def _offset_table(terms: _Terms, half_width: float) -> np.ndarray:
    """The panel kernel's table B for the panels of one half-width h.

    With o_k = h x_k for the nodes x_k in quadrature.NODES from the middle
    one up, B holds C = cos(o_k u_j) for those 8 offsets and S = sin(o_k u_j)
    for the 7 nonzero ones, cut into terms.slices slices (_slices, scale 1):
    the slices of C side by side, then those of S, one row per term.
    """
    s, k, mid = terms.slices, terms.u.size, NODES.size // 2
    values, spare = np.empty((2, k, NODES.size))
    phase = np.multiply.outer(terms.u, half_width * NODES[mid:])
    np.cos(phase, out=values[:, :mid + 1])
    np.sin(phase[:, 1:], out=values[:, mid + 1:])
    table = np.empty((k, s * NODES.size))
    cos_part = table[:, :s * (mid + 1)].reshape(k, s, mid + 1)
    sin_part = table[:, s * (mid + 1):].reshape(k, s, mid)
    for j, piece in enumerate(_slices(values, spare, 1.0, terms.beta, s)):
        cos_part[:, j], sin_part[:, j] = piece[:, :mid + 1], piece[:, mid + 1:]
    return table


def _sin_cos(phase: np.ndarray, sin_out: np.ndarray, cos_out: np.ndarray) -> None:
    """sin(phase) into sin_out, then cos(phase) into cos_out, which may be
    phase itself: the one source of the panel kernel's centre rows."""
    np.sin(phase, out=sin_out)
    np.cos(phase, out=cos_out)


def _step_table(terms: _Terms, half_width: float) -> np.ndarray:
    """The lattice steps of one half-width h: w e^((2r+1) h u i) for
    r = 0.._LATTICE_STEPS-1, the rows of the lattice's first
    _LATTICE_STEPS centres, as complex rows w cos + i w sin."""
    table = np.empty((_LATTICE_STEPS, terms.u.size), dtype=complex)
    phase = np.multiply.outer(half_width * np.arange(1, 2 * _LATTICE_STEPS, 2), terms.u)
    _sin_cos(phase, table.imag, table.real)
    table.real *= terms.w
    table.imag *= terms.w
    return table


def _lattice_start(centres: np.ndarray, half_widths: np.ndarray):
    """k0 if the centres c are the lattice points (2k+1) h of one half-width
    h for k = k0, k0+1, ... in turn, each with |c - (2k+1) h| <=
    _LATTICE_TOL c; None otherwise.

    Panels of [0, w_c] bisected from np.linspace edges are centred at
    (2k+1) h up to the rounding of their edges, and the first round's
    panels are consecutive; hand-made panels are not on the lattice.
    """
    h = half_widths[0]
    k0 = int(np.rint(0.5 * (centres[0] / h - 1.0)))
    points = (2.0 * np.arange(k0, k0 + centres.size) + 1.0) * h
    run = np.all(half_widths == h) and np.all(np.abs(centres - points) <= _LATTICE_TOL * centres)
    return k0 if k0 >= 0 and run else None


def _direct_rows(centres, terms: _Terms, rows, spare) -> None:
    # _centre_rows from sin/cos of c u itself
    phase = spare[:, 0]
    np.multiply.outer(centres, terms.u, out=phase)
    _sin_cos(phase, rows[:, 0], rows[:, 1])
    rows *= terms.w


def _centre_rows(centres, half_width: float, lattice, terms: _Terms, rows, spare) -> None:
    """rows[:, 0] = w sin(cu) and rows[:, 1] = w cos(cu) for each centre c.

    With lattice = (k0, steps), the centres are a lattice run
    (_lattice_start) of half-width h = half_width, and c is taken as
    (2k+1) h for k = k0, k0+1, ...: with k = q B + r for B = _LATTICE_STEPS,
    e^((2k+1) h u i) = e^(2qB h u i) e^((2r+1) h u i), from the step table
    steps (_step_table) and, for q > 0, sin/cos of one row per q, by angle
    addition as numpy's complex product, term by term.  Each row is then
    within a few ulps of w sin/cos((2k+1) h u), plus the eps |(2k+1) h u|
    of its rounded phases.  With lattice None, the rows take sin/cos of
    c u itself.  spare, of rows' shape, is overwritten.
    """
    if lattice is None:
        _direct_rows(centres, terms, rows, spare)
        return
    (k0, steps), u, m = lattice, terms.u, _LATTICE_STEPS
    base = np.empty(u.size, dtype=complex)
    lo = 0
    # one group per q, of consecutive steps
    while lo < centres.size:
        k = k0 + lo
        first = k % m
        hi = min(centres.size, lo + m - first)
        step = steps[first:first + hi - lo]
        if k >= m:
            # e^(2qB h u i) times the steps
            np.multiply(2 * (k - first) * half_width, u, out=base.real)
            _sin_cos(base.real, base.imag, base.real)
            step = np.multiply(step, base, out=spare[lo:hi].reshape(hi - lo, -1).view(complex))
        rows[lo:hi, 0] = step.imag
        rows[lo:hi, 1] = step.real
        lo = hi


def _level_sums(prods: np.ndarray, width: int, out: np.ndarray) -> None:
    """out = sum_l sum_(i+j=l+1) X_i B_j over the levels l = s..1, in that
    order, from prods[i-1] holding X_i B_1 .. X_i B_(s+1-i) side by side,
    width columns each.  The products of one level add exactly
    (_panel_sums), so each level is summed in place in its first block."""
    s = len(prods)
    for l in range(s, 0, -1):
        level = prods[0, :, width * (l - 1):width * l]
        for i in range(1, l):
            level += prods[i, :, width * (l - 1 - i):width * (l - i)]
        if l == s:
            out[...] = level
        else:
            out += level


def _panel_sums(centres: np.ndarray, half_widths: np.ndarray, terms: _Terms, table,
                lattice=None) -> np.ndarray:
    """sum_j w_j f((c + h x_k) u_j) over the term table for panels of
    centres c and half-widths h at the quadrature nodes x_k, one row per f
    in terms.funcs, in the shape (len(terms.funcs), centres, 15).
    table(h) gives _offset_table(terms, h).  lattice = (k0, steps) says
    that the centres are a lattice run from k0 (_lattice_start) and gives
    its _step_table: for tables of at least _LATTICE_TERMS terms the
    centre rows then take the lattice path of _centre_rows, otherwise
    sin/cos.

    Since NODES is symmetric about its middle node, angle addition makes
    the sums at c + o and c - o two matrix products away:

        sum_j w_j sin((c +- o) u_j) = X_s C +- X_c S,
        sum_j w_j cos((c +- o) u_j) = X_c C -+ X_s S,

    with the rows X_s = w sin(cu), X_c = w cos(cu) over the terms and B's
    columns C = cos(ou), S = sin(ou).  The centres are taken in blocks,
    sorted by half-width; each block's X is formed (_centre_rows) and
    sliced once, and only the products run per half-width, on that width's
    rows.  The centres of a lattice run are summed at their lattice
    points, within _LATTICE_TOL c of c.

    The products are error-free after Ozaki, Ogita, Oishi & Rump (Numer.
    Algorithms 59 (2012)).  X (|X| <= terms.scale) and B (|B| <= 1) are cut
    into s = terms.slices slices of beta = terms.beta bits (_slices), and
    each product is taken as the levels l = 1..s,

        X B ~ sum_l sum_(i+j=l+1) X_i B_j.

    Every term of a level is an integer of at most (2^beta + 1)^2 units of
    that level, and a level has at most s len(u) terms, so with

        s len(u) (2^beta + 1)^2 < 2^53

    every partial sum of a level is exact, in any order, blocking or BLAS
    thread count.  The levels are then added in a fixed order, the smallest
    first, and X_s C, X_c S combined as above: no node's value depends on
    the batching of centres or the order of the terms.  Per term, the
    products left out and the remainders of the last slices change each of
    X_s C, X_c S by at most scale 2^(-s beta) (s + 3)/4 (1 + 2^(1-beta)),
    so a sum by at most

        2 len(u) scale 2^(-s beta) (s + 3)/4 (1 + 2^(1-beta)),

    which _slicing keeps below 1 % of the noise floor 4 eps sqrt(n+2) at
    z = 0.
    """
    s, k, mid, funcs = terms.slices, terms.u.size, NODES.size // 2, terms.funcs
    if k < _LATTICE_TERMS:
        # smaller tables decline the lattice: numpy's complex product of
        # several rows against one base row rounds rows of few terms
        # differently from the product of one row, so theirs would depend
        # on how the centres are blocked
        lattice = None
    # a lattice run has one width, so its centres keep their order
    order = np.argsort(half_widths, kind="stable")
    rows = min(max(1, _BLOCK_ELEMENTS // k), max(centres.size, 1))
    # a block's X_s and X_c rows, interleaved: what is left to cut, and the
    # slice cut off last
    rest, piece = np.empty((2, rows, 2, k))
    # which of X_s (0) and X_c (1) meets C, per f; S meets the other
    c_part = [0 if f is np.sin else 1 for f in funcs]
    both = len(set(c_part)) == 2
    # the products of every slice with the C and then the S slices of B,
    # laid out as in B, and their sums, for the rows of X_s and X_c that
    # need them
    height, split = (2 * rows if both else rows), s * (mid + 1)
    prods = np.empty((s, height, s * NODES.size))
    acc = np.empty((height, NODES.size))
    sums = np.empty((rows, NODES.size))
    out = np.empty((len(funcs), centres.size, NODES.size))
    for start in range(0, centres.size, rows):
        at = order[start:start + rows]
        r = at.size
        widths = half_widths[at]
        _centre_rows(centres[at], float(widths[0]),
                     None if lattice is None else (lattice[0] + start, lattice[1]),
                     terms, rest[:r], piece[:r])
        edges = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), r]
        for i, x in enumerate(_slices(rest[:r], piece[:r], terms.scale, terms.beta, s)):
            cols = s - i
            for lo, hi in zip(edges[:-1], edges[1:]):
                b = table(float(widths[lo]))
                if both:
                    x_c = x_s = x[lo:hi].reshape(2 * (hi - lo), k)
                    lo, hi = 2 * lo, 2 * hi
                else:
                    x_c, x_s = x[lo:hi, c_part[0]], x[lo:hi, 1 - c_part[0]]
                c_cols = np.s_[:cols * (mid + 1)]
                s_cols = np.s_[split:split + cols * mid]
                np.matmul(x_c, b[:, c_cols], out=prods[i, lo:hi, c_cols])
                np.matmul(x_s, b[:, s_cols], out=prods[i, lo:hi, s_cols])
        used = 2 * r if both else r
        _level_sums(prods[:, :used, :split], mid + 1, acc[:used, :mid + 1])
        _level_sums(prods[:, :used, split:], mid, acc[:used, mid + 1:])
        for row, p in zip(out, c_part):
            # C from one of X_s, X_c and S from the other; the cosine row
            # takes c - o where the sine row takes c + o
            cos_c = acc[p:used:2, :mid + 1] if both else acc[:r, :mid + 1]
            sin_s = acc[1 - p:used:2, mid + 1:] if both else acc[:r, mid + 1:]
            dst = sums[:r] if p == 0 else sums[:r, ::-1]
            dst[:, mid] = cos_c[:, 0]
            np.add(cos_c[:, 1:], sin_s, out=dst[:, mid + 1:])
            np.subtract(cos_c[:, 1:], sin_s, out=dst[:, mid - 1::-1])
            row[at] = sums[:r]
    return out


class PanelGrid:
    """The quadrature's panels in z, for the panel kernel.

    One grid serves every round of one integral over one sequence, in
    z = w t.  set_round, integrate_adaptive's panels hook, takes each
    round's centres and nominal half-widths in w.  The filter sums of that
    round's nodes then run at c + o_k, with c the panel's centre and
    o_k = h x_k for h its half-width and x_k quadrature.NODES, as the
    error-free sliced matrix products of _panel_sums.  sin/cos(o_k u_j) are
    taken once per half-width and term for the grid's lifetime, in that
    width's sliced offset table.  The rows at c come from sin/cos(c u_j)
    per panel and term, or, for tables of at least _LATTICE_TERMS terms
    and a round that is a lattice run (every first round), by angle
    addition: from the round's step table, the rows of the first
    _LATTICE_STEPS lattice centres of its half-width, and sin/cos of one
    row per _LATTICE_STEPS consecutive centres.  c + o_k is the node
    before it was rounded, up to the rounding of the panel edges, and
    (2k+1) h lies within _LATTICE_TOL c of c.
    """

    def __init__(self, seq: PulseSequence, t: float):
        self.seq = seq
        self.terms = _term_table(seq)
        self.t = float(t)
        self._round = None
        # (k0, step table) of the round, if it takes the lattice path
        self._lattice = None
        # the sliced offset table of each half-width, built once
        self._offset_table = functools.cache(functools.partial(_offset_table, self.terms))

    def set_round(self, centres: np.ndarray, half_widths: np.ndarray) -> None:
        """Announce the next round's panels, centres and half-widths in w.

        A lattice run gets a step table where its centres, by sharing base
        rows, save at least _LATTICE_SAVED rows of sin/cos.
        """
        self._round = centres, half_widths = centres * self.t, half_widths * self.t
        self._lattice = None
        terms, n, m = self.terms, centres.size, _LATTICE_STEPS
        if not terms.closed and terms.u.size >= _LATTICE_TERMS and n > _LATTICE_SAVED:
            k0 = _lattice_start(centres, half_widths)
            # the rows saved: centres less base rows, one per q = k // m
            if k0 is not None and n - ((k0 + n - 1) // m - k0 // m + 1) >= _LATTICE_SAVED:
                self._lattice = k0, _step_table(terms, float(half_widths[0]))

    def sums(self, z: np.ndarray) -> np.ndarray:
        """The term sums at the nodes z: one row per f in terms.funcs.

        Only the announced round's nodes take the panel kernel: 15 nodes
        per panel with the middle ones exactly at the centres.  Other z,
        and rounds with fewer than _FACTOR_MIN panel-term-rows, where the
        panel kernel saves less than its fixed cost, take the zero-offset
        kernel.
        """
        m, rows = NODES.size, len(self.terms.funcs)
        if (self._round is None or z.shape != (m * self._round[0].size,)
                or z.size * len(self.terms.u) * rows < _FACTOR_MIN * m
                or not np.array_equal(z[m // 2::m], self._round[0])):
            return _split_sums(z, self.terms)
        centres, halfs = self._round
        return _panel_sums(centres, halfs, self.terms, self._offset_table,
                           self._lattice).reshape(rows, z.size)


def _table_of(seq: PulseSequence, grid) -> _Terms:
    if grid is not None and grid.seq is not seq and grid.seq != seq:
        raise ValueError("the panel grid was built for another sequence")
    return _term_table(seq) if grid is None else grid.terms


def _x_from_y(n: int, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x_n = ((-1)^n sin z - Im y_n) / 2, term by term
    return 0.5 * ((-1) ** n * np.sin(z) - y.imag)


def x_factor_array(seq: PulseSequence, z: np.ndarray, grid=None) -> np.ndarray:
    """x_n(z) = ((-1)^n sin z - Im y_n(z)) / 2 over an array of arguments,
    read from y_factor_array(seq, z, grid): the same sums, the same kernel."""
    z = np.asarray(z, dtype=float)
    return _x_from_y(seq.n, z, y_factor_array(seq, z, grid))


def y_factor_array(seq: PulseSequence, z: np.ndarray, grid=None) -> np.ndarray:
    """y_n(z) over an array of arguments.

    Equidistant instants take the real half-sum's closed form, other
    mirror-symmetric sequences the half-sum itself, others the full term
    set; both sums are taken with the error-free split.  grid, a PanelGrid
    built for seq, lets quadrature nodes take the panel kernel.
    """
    z = np.asarray(z, dtype=float)
    terms = _table_of(seq, grid)
    if terms.closed:
        rows = _equidistant_half_sum(seq.n, z)[None]
    elif grid is not None:
        rows = grid.sums(z)
    else:
        rows = _split_sums(z, terms)
    if not terms.mirror:
        return rows[0] + 1j * rows[1]
    rot = np.exp(0.5j * z) if seq.n % 2 else 1j * np.exp(0.5j * z)
    return rot * rows[0]


def y_abs_sq_array(seq: PulseSequence, z: np.ndarray, grid=None) -> np.ndarray:
    """|y_n(z)|^2 over an array of arguments.

    np.abs(y_factor_array(seq, z)) ** 2, which is exact at every node for
    equidistant instants; for other sequences the direct sum, except where
    the value sits below the double-precision cancellation floor: there the
    Bessel form (the udd(n) instants, n >= 2) takes over down to the
    smallest z, giving the ideal sequence's values, and other instants take
    the moment expansion at |z| < _SMALL_Z.  grid is passed on to
    y_factor_array.
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
    return _select_source(seq, terms, z, np.abs(y) ** 2), _x_from_y(seq.n, z, y)


def _select_source(seq: PulseSequence, terms: _Terms, z: np.ndarray,
                   direct: np.ndarray) -> np.ndarray:
    # |y|^2 from y_factor_array, with the Bessel or Taylor form swapped in
    # where y_abs_sq_array describes; the closed form needs neither
    if terms.closed:
        return direct
    n = seq.n
    if terms.bessel:
        # the Bessel values replace the direct sums where they fall below
        # the threshold
        threshold = _delegation_threshold(n, z)
        window = np.abs(z) < _BESSEL_WINDOW * (2 * n + 2)
        candidates = window & (direct < 2.0 * threshold)
        if np.any(candidates):
            analytic = bessel_approx(n, np.abs(z[candidates]))
            use = analytic < threshold[candidates]
            direct.flat[np.flatnonzero(candidates)[use]] = analytic[use]
        return direct
    small = np.abs(z) < _SMALL_Z
    if np.any(small):
        # |y|^2 = S1^2 z^2 + (S2^2/4 - S1 S3/3) z^4 + O(z^6) from the
        # moments S_k = sum_j c_j d_j^k of the terms
        c, d = _y_coefficients(seq)
        s1, s2, s3 = np.dot(c, d), np.dot(c, d * d), np.dot(c, d * d * d)
        z2 = z[small] ** 2
        direct[small] = z2 * (s1 * s1 + z2 * (s2 * s2 / 4.0 - s1 * s3 / 3.0))
    return direct


def x_factor(seq: PulseSequence, z: float) -> float:
    """Phase filter x_n(z); n = 0 gives sin(z)."""
    return float(x_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_factor(seq: PulseSequence, z: float) -> complex:
    """Coherence filter y_n(z), as y_factor_array gives it."""
    return complex(y_factor_array(seq, np.atleast_1d(float(z)))[0])


def y_abs_sq(seq: PulseSequence, z: float) -> float:
    """|y_n(z)|^2; see y_abs_sq_array for the source selection."""
    return float(y_abs_sq_array(seq, np.atleast_1d(float(z)))[0])


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
    """Small-z form 16 (n+1)^2 J_{n+1}(z/2)^2 for the optimized instants.

    Intended for z/(2n+2) < 1; outside that window the caller owns the
    approximation error.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    j = bessel_j(n + 1, np.abs(z) / 2.0)
    return 16.0 * (n + 1) ** 2 * j * j
