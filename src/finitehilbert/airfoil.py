"""Inversion of the airfoil equation g = T(f) in both regimes.

Low regime (kernel present): every solution is -(1/w) T(g w) + C/w with C
arbitrary.  High regime: a unique solution -w T(g/w) exists precisely when
int g/w vanishes.  Both particular solutions are the engine's one
pseudo-inverse rule, so both regimes take every series-backed g; any other
g raises UnsupportedExponents there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import fht_check, fht_hat, fht_pointwise, project_P, project_Q
from .errors import NotSolvable
from .functions import EndpointWeightedFunction
from .series import ChebyshevSeries

LOW = "low"
HIGH = "high"

SOLVABILITY_TOL = 1e-8


@dataclass(frozen=True)
class RoundTripReport:
    max_residual: float
    constant_recovered: complex | None
    max_rhs: float  # max |g| on the round-trip grid, the residual's scale


def solve_low(g, C=0.0):
    """The solution -(1/w)T(gw) + C/w of T(f) = g in the small-index regime."""
    particular = fht_hat(g)
    C = complex(C)
    if not C:
        return particular
    coeffs = particular.smooth.coeffs.copy()
    coeffs[0] += C
    return EndpointWeightedFunction(
        particular.a, particular.b,
        ChebyshevSeries(coeffs, particular.smooth.basis),
    )


def solvability_residual(g):
    """|Qg| = |(1/pi) int g/w|; zero iff g lies in the range of T in the high regime."""
    return abs(complex(project_Q(g).smooth.coeffs[0]))


def solve_high(g):
    """The unique solution f = -w T(g/w) for any series-backed g; requires int g/w = 0."""
    residual = solvability_residual(g)
    if residual > SOLVABILITY_TOL:
        raise NotSolvable(residual)
    return fht_check(g)


def verify_roundtrip(g, regime, C=0.0):
    """Apply T by quadrature to the computed solution and report the residual.

    The round trip deliberately uses the principal-value quadrature engine, not
    the spectral rules that produced the solution, so the two routes check each
    other.  In the low regime the recovered C is the coefficient of P f = C/w.
    """
    if regime == LOW:
        f = solve_low(g, C=C)
    elif regime == HIGH:
        f = solve_high(g)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    grid = np.linspace(-0.95, 0.95, 20)
    image, values = fht_pointwise(f, grid), g(grid)
    residual = np.max(np.abs(image - values))
    constant = None
    if regime == LOW:
        constant = complex(project_P(f).smooth.coeffs[0])
    return RoundTripReport(max_residual=float(residual), constant_recovered=constant,
                           max_rhs=float(np.max(np.abs(values))))
