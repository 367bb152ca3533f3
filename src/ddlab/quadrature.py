"""Adaptive panel integration with an embedded Gauss-Kronrod 7-15 rule.

The integrand is evaluated in vectorized batches over all panel nodes.
Panels are bisected where the embedded error estimate is largest until the
summed estimate meets the relative target (or the machine-precision floor
of the rule, whichever is larger).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureError", "integrate_adaptive"]

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

# full symmetric rule: nodes -x7..x7, 15 entries
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1][:8]])           # ascending
_W15 = np.concatenate([_WGK[:7], _WGK[::-1][:8]])
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_WG[:3], _WG[::-1][:4]])

_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted; carries the best estimate."""

    def __init__(self, message: str, estimate: float, error_bound: float):
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


def _eval_panels(f, lefts: np.ndarray, rights: np.ndarray):
    """Kronrod value, error estimate and |f| integral for a batch of panels."""
    centers = 0.5 * (lefts + rights)
    halfs = 0.5 * (rights - lefts)
    pts = centers[:, None] + halfs[:, None] * _NODES[None, :]
    fx = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    resk = (fx @ _W15) * halfs
    resg = (fx @ _W7) * halfs
    resabs = (np.abs(fx) @ _W15) * halfs
    # QUADPACK-style scaled error estimate
    mean = resk / (rights - lefts)
    resasc = (np.abs(fx - mean[:, None]) @ _W15) * halfs
    raw = np.abs(resk - resg)
    err = np.where(
        resasc > 0.0,
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
        raw,
    )
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err, resabs


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec,
                       initial_panels: int = 16):
    """Integrate f over [a, b].

    Returns (value, error_bound, evaluations).  Raises QuadratureError if
    max_panels is reached before the summed error estimate drops below
    rel_tol * |value| (or below the rule's machine floor).
    """
    if b <= a:
        if b == a:
            return 0.0, 0.0, 0
        raise ValueError(f"bad interval [{a}, {b}]")
    n0 = int(min(max(initial_panels, 1), spec.max_panels))
    edges = np.linspace(a, b, n0 + 1)
    lefts, rights = edges[:-1], edges[1:]
    vals, errs, absints = _eval_panels(f, lefts, rights)
    nevals = 15 * n0

    while True:
        total = float(np.sum(vals))
        total_err = float(np.sum(errs))
        floor = 50.0 * _EPS * float(np.sum(absints))
        target = max(spec.rel_tol * abs(total), floor)
        if total_err <= target:
            return total, total_err, nevals
        npanels = len(vals)
        if npanels >= spec.max_panels:
            raise QuadratureError(
                f"no convergence within {spec.max_panels} panels "
                f"(estimate {total:.6e}, error bound {total_err:.3e})",
                estimate=total, error_bound=total_err,
            )
        # split every panel holding more than its share of the excess,
        # always at least the single worst one
        cut = max(target / (2.0 * npanels), float(np.max(errs)) * 0.5)
        split = errs >= cut
        if np.count_nonzero(split) + npanels > spec.max_panels:
            order = np.argsort(errs)[::-1]
            allowed = spec.max_panels - npanels
            split = np.zeros(npanels, dtype=bool)
            split[order[:allowed]] = True
        mids = 0.5 * (lefts[split] + rights[split])
        new_l = np.concatenate([lefts[split], mids])
        new_r = np.concatenate([mids, rights[split]])
        nv, ne, na = _eval_panels(f, new_l, new_r)
        nevals += 15 * len(new_l)
        lefts = np.concatenate([lefts[~split], new_l])
        rights = np.concatenate([rights[~split], new_r])
        vals = np.concatenate([vals[~split], nv])
        errs = np.concatenate([errs[~split], ne])
        absints = np.concatenate([absints[~split], na])
