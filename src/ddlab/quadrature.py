"""Adaptive panel integration with an embedded Gauss-Kronrod 7-15 rule.

The integrand is evaluated in vectorized batches over all panel nodes.  It
may return k rows on the shared nodes, so that several integrals over one
interval cost one integrand evaluation per node.  Each round bisects every
panel whose embedded error estimate is at least its fair share of a row's
target, at most _SPLIT_MAX panels per round, until each row's summed
estimate meets its relative target (or the machine-precision floor of the
rule, whichever is larger).  An optional panels hook is told each round's
panel centres and half-widths before the integrand sees that round's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureError", "integrate_adaptive", "NODES"]

# 15-point Kronrod nodes (positive half) with embedded 7-point Gauss rule
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full symmetric rule: nodes -x7..x7, 15 entries, 0 in the middle
NODES = np.concatenate([-_XGK[:7], _XGK[::-1][:8]])           # ascending
_W15 = np.concatenate([_WGK[:7], _WGK[::-1][:8]])
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_WG[:3], _WG[::-1][:4]])

_EPS = np.finfo(float).eps

# the most panels one round may split: a round hands f at most
# 2 * _SPLIT_MAX * 15 nodes, which bounds the memory of f's batch
_SPLIT_MAX = 4096


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted; carries the best estimate
    and its error bound, each in the integrand's row shape."""

    def __init__(self, message: str, estimate: float | np.ndarray,
                 error_bound: float | np.ndarray):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and panel budget for the frequency integrals."""

    rel_tol: float = 1e-10
    max_panels: int = 2**20

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-2):
            raise ValueError(f"rel_tol must be in (0, 1e-2), got {self.rel_tol}")
        if self.max_panels < 16:
            raise ValueError(f"max_panels must be >= 16, got {self.max_panels}")


def _eval_panels(f, lefts: np.ndarray, rights: np.ndarray, widths: np.ndarray, panels):
    """Kronrod value, error estimate and |f| integral of every row of f on
    every panel, stacked in that order as one (3, k, panels) array, and f's
    row shape: () for a 1-d f (k = 1), (k,) for one that returns (k, nodes).
    panels, if given, is called with the centres and the nominal half-widths
    widths first."""
    centers = 0.5 * (lefts + rights)
    halfs = 0.5 * (rights - lefts)
    if panels is not None:
        panels(centers, widths)
    pts = centers[:, None] + halfs[:, None] * NODES[None, :]
    fx = np.asarray(f(pts.ravel()), dtype=float)
    if fx.ndim not in (1, 2) or fx.shape[-1] != pts.size:
        raise ValueError(f"f must return shape (nodes,) or (k, nodes) for "
                         f"{pts.size} nodes, got {fx.shape}")
    rows = fx.shape[:-1]
    # a (panels, 15) matrix per row: BLAS sums each line of one matrix in an
    # order that may depend on the matrix's height, so a row's sums match a
    # one-row call on the same panels bit for bit only with a matrix of its own
    fx = fx.reshape(rows + (len(lefts), NODES.size))
    resk = (fx @ _W15) * halfs
    resg = (fx @ _W7) * halfs
    resabs = (np.abs(fx) @ _W15) * halfs
    # QUADPACK-style scaled error estimate
    mean = resk / (rights - lefts)
    resasc = (np.abs(fx - mean[..., None]) @ _W15) * halfs
    raw = np.abs(resk - resg)
    err = np.where(
        resasc > 0.0,
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
        raw,
    )
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return np.concatenate((resk, err, resabs)).reshape(3, -1, len(lefts)), rows


def _shown(values: list, fmt: str) -> str:
    text = ", ".join(format(v, fmt) for v in values)
    return text if len(values) == 1 else f"[{text}]"


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec,
                       initial_panels: int = 16, panels=None):
    """Integrate f over [a, b].

    f maps a 1-d array of nodes to an array of shape (nodes,), or to k rows
    of shape (k, nodes) that share the nodes.  The nodes come panel by
    panel, 15 consecutive entries each: panel p with centre c_p and
    half-width h_p contributes c_p + h_p * NODES, so entry 7 is c_p
    itself.  Every panel is one of the n0 = min(initial_panels, max_panels)
    equal panels of [a, b] (edges from np.linspace) bisected L >= 0 times.
    If panels is given, each round calls panels(centres, half_widths)
    once, before f sees that round's nodes: centres are the round's c_p,
    and half_widths the nominal (b - a) / (2 n0) * 2^-L, which h_p matches
    up to the rounding of the edges.  Each row must meet its own target
    max(rel_tol * |value|, 50 eps * integral of |row|), the second
    term being the rule's machine floor.  A row that has not yet met its
    target asks to split every panel whose error estimate is at least
    target / (2 N) over the N panels; a panel is split when any row asks
    for it, so a converged row drives no splits, but its value is summed
    over the final panels.  A round splits at most _SPLIT_MAX panels, and
    none past max_panels: where more ask, those with the largest error
    against their row's target go first.

    Returns (value, error_bound, evaluations): value and error_bound have
    f's row shape (floats for a 1-d f, arrays of k for k rows), and
    evaluations counts each node once.  An empty interval returns
    (0.0, 0.0, 0) without calling f.  Raises QuadratureError, carrying the
    estimates and bounds of every row, if max_panels is reached first, or
    at once where a NaN or infinite value of f leaves a NaN error estimate.
    """
    if b <= a:
        if b == a:
            return 0.0, 0.0, 0
        raise ValueError(f"bad interval [{a}, {b}]")
    n0 = int(min(max(initial_panels, 1), spec.max_panels))
    edges = np.linspace(a, b, n0 + 1)
    lefts, rights = edges[:-1], edges[1:]
    widths = np.full(n0, (b - a) / (2 * n0))
    est, rows = _eval_panels(f, lefts, rights, widths, panels)
    nevals = 15 * n0

    while True:
        # the per-row bookkeeping runs on Python floats: k is small, and a
        # numpy call on a k-element array costs more than the arithmetic
        total, total_err, absint = est.sum(axis=2).tolist()
        targets = [max(spec.rel_tol * abs(v), 50.0 * _EPS * s) for v, s in zip(total, absint)]
        open_rows = [r for r, (e, g) in enumerate(zip(total_err, targets)) if not e <= g]
        if not open_rows:
            if rows:
                return np.array(total), np.array(total_err), nevals
            return total[0], total_err[0], nevals
        npanels = est.shape[2]
        # each open row asks to split every panel whose error is at least
        # its fair share target / (2 N) of that row's target; the row's
        # worst panel always does, since its error is at least the mean
        # total_err / N > target / N
        errs = est[1]
        split = None
        for r in open_rows:
            asks = errs[r] >= targets[r] / (2.0 * npanels)
            split = asks if split is None else split | asks
        nsplit = np.count_nonzero(split)
        # a row with a NaN error estimate (from a NaN or infinite value of
        # f) asks for no split, and no split could mend it
        if npanels >= spec.max_panels or nsplit == 0:
            estimate, bound = ((np.array(total), np.array(total_err)) if rows
                               else (total[0], total_err[0]))
            reason = (f"no convergence within {spec.max_panels} panels" if nsplit
                      else "integrand not finite")
            raise QuadratureError(
                f"{reason} (estimate {_shown(total, '.6e')}, "
                f"error bound {_shown(total_err, '.3e')})",
                estimate=estimate, error_bound=bound,
            )
        allowed = min(spec.max_panels - npanels, _SPLIT_MAX)
        if nsplit > allowed:
            # keep the panels whose error is largest against its open row's target
            scores = np.max([errs[r] / targets[r] for r in open_rows], axis=0)
            order = np.argsort(scores)[::-1]
            split = np.zeros(npanels, dtype=bool)
            split[order[:allowed]] = True
        mids = 0.5 * (lefts[split] + rights[split])
        new_l = np.concatenate([lefts[split], mids])
        new_r = np.concatenate([mids, rights[split]])
        half = 0.5 * widths[split]
        new_w = np.concatenate([half, half])
        new_est, _ = _eval_panels(f, new_l, new_r, new_w, panels)
        nevals += 15 * len(new_l)
        keep = ~split
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        widths = np.concatenate([widths[keep], new_w])
        est = np.concatenate([est.compress(keep, axis=2), new_est], axis=2)
