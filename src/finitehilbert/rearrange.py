"""Decreasing rearrangement and rearrangement-invariant norm functionals.

The rearrangement places |values| in non-increasing order on (0,2), each value
occupying its original cell measure.  The Lorentz and Zygmund functionals are
then cell-wise integrals against the rearranged step function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid
from .functions import SampledFunction


def decreasing_rearrangement(f):
    """Rearrangement of |f| as a step function on (0,2), sampled at cell centers.

    Returns a SampledFunction whose points are the cell-center positions in
    (0,2) and whose values are |f| sorted in non-increasing order.
    """
    t0, t1, vals = _rearranged_cells(f)
    centers = 0.5 * (t0 + t1)
    measure = f.domain[1] - f.domain[0]
    return SampledFunction(centers, vals, eps_edge=0.0, domain=(0.0, measure))


def _rearranged_cells(f):
    """(cell left edges, cell right edges, rearranged values) on (0,2)."""
    widths = f.cell_widths()
    order = np.argsort(-np.abs(f.values), kind="stable")
    vals = np.abs(f.values)[order]
    w = widths[order]
    edges = np.concatenate(([0.0], np.cumsum(w)))
    return edges[:-1], edges[1:], vals


def lorentz_norm(p, q, f):
    """Discrete L^{p,q} functional of f via its rearrangement.

    (int (t^{1/p} f*(t))^q dt/t)^{1/q}, or sup t^{1/p} f*(t) for q = inf.
    The t-integral is done exactly on each cell of the step function f*.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if q != math.inf and q < 1.0:
        raise ValueError("q must be >= 1 (or inf)")
    if len(f) < 2:
        raise DegenerateGrid("need at least 2 samples")
    t0, t1, vals = _rearranged_cells(f)
    if q == math.inf:
        return float(np.max(vals * t1 ** (1.0 / p)))
    # int_c (t^{q/p - 1}) dt = (p/q) (t1^{q/p} - t0^{q/p}), exact per cell
    e = q / p
    cell = (t1**e - t0**e) / e
    return float(np.sum(vals**q * cell) ** (1.0 / q))


def lp_norm(p, f):
    """Plain grid L^p norm (cell-measure quadrature of |f|^p)."""
    widths = f.cell_widths()
    return float(np.sum(np.abs(f.values) ** p * widths) ** (1.0 / p))


def l1_norm(f):
    return lp_norm(1.0, f)


def zygmund_norm(alpha, f):
    """Discrete Zygmund functional int_0^2 f*(t) log^alpha(2e/t) dt, alpha >= 1.

    Substituting u = log(2e/t) turns each cell integral into an incomplete
    gamma difference, so the per-cell weights are exact for every alpha.  Near
    t = 0, u is large and the lower regularized gamma is close to 1, so the
    weights difference the upper one, which keeps the digits of small cells.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    if len(f) < 2:
        raise DegenerateGrid("need at least 2 samples")
    from scipy.special import gammaincc
    from scipy.special import gamma as gamma_fn

    t0, t1, vals = _rearranged_cells(f)
    scale = 2.0 * math.e
    with np.errstate(divide="ignore"):
        u_hi = np.where(t0 > 0.0, np.log(scale / np.maximum(t0, 1e-300)), np.inf)
    u_lo = np.log(scale / t1)
    a = alpha + 1.0
    cell = scale * gamma_fn(a) * (gammaincc(a, u_lo) - gammaincc(a, u_hi))
    return float(np.sum(vals * cell))


@dataclass(frozen=True)
class NormEstimate:
    value: float
    refined_value: float
    unbounded: bool


def _edge_log_sample(func, n, eps_edge):
    """Sample on a grid whose endpoint cells shrink geometrically.

    Log spacing in 1 -|x| keeps each endpoint cell's measure proportional to
    its distance from +-1, which is what makes the discrete weak-Lorentz
    functional of an endpoint blow-up stable under cutoff refinement.
    """
    m = max(n // 3, 8)
    right = 1.0 - np.logspace(math.log10(eps_edge), math.log10(0.5), m)
    mid = np.linspace(-0.5, 0.5, max(n - 2 * m, 2) + 2)[1:-1]
    pts = np.unique(np.concatenate([-right[::-1], mid, right]))
    vals = np.asarray([func(x) for x in pts])
    return SampledFunction(pts, vals, eps_edge=eps_edge)


def lorentz_norm_with_divergence_check(func, p, q):
    """Evaluate the Lorentz functional of a callable and flag divergence.

    The value comes from 4000 nodes with the endpoint cutoff at 1e-6.  The
    refinement doubles the node count and squares the cutoff; a relative
    change above 25% flags the value as unbounded.  Endpoint divergences
    (e.g. 1/w in L^2) only surface when the cutoff is pushed inward, which is
    why the cutoff is squared.
    """
    coarse = _edge_log_sample(func, 4000, 1e-6)
    fine = _edge_log_sample(func, 8000, 1e-6**2)
    v0 = lorentz_norm(p, q, coarse)
    v1 = lorentz_norm(p, q, fine)
    rel = abs(v1 - v0) / max(abs(v0), 1e-300)
    return NormEstimate(value=v0, refined_value=v1, unbounded=rel > 0.25)
