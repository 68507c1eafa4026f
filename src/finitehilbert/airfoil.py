"""Inversion of the airfoil equation g = T(f) in both regimes.

Low regime (kernel present): every solution is -(1/w) T(g w) + C/w with C
arbitrary.  High regime: a unique solution -w T(g/w) exists precisely when
int g/w vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    DEFAULT_CONFIG,
    fht_check,
    fht_hat,
    fht_pointwise,
    integrate_unit,
    _as_callable,
)
from .errors import NotSolvable, UnsupportedExponents
from .functions import EndpointWeightedFunction
from .series import ChebyshevSeries

LOW = "low"
HIGH = "high"

SOLVABILITY_TOL = 1e-8
DEFAULT_RHS_DEGREE = 64


@dataclass(frozen=True)
class AirfoilSolution:
    """particular + C/w (low regime) or the unique solution (high regime)."""

    particular: EndpointWeightedFunction
    homogeneous_coefficient: complex | None
    regime: str

    def solution(self):
        """The full solution with the homogeneous part folded in."""
        if self.regime == HIGH or not self.homogeneous_coefficient:
            return self.particular
        coeffs = self.particular.smooth.coeffs.copy()
        coeffs[0] += self.homogeneous_coefficient
        return EndpointWeightedFunction(
            self.particular.a, self.particular.b,
            ChebyshevSeries(coeffs, self.particular.smooth.basis),
        )


@dataclass(frozen=True)
class RoundTripReport:
    max_residual: float
    constant_recovered: complex | None


def _prepare_rhs(g, cfg, degree):
    g = _as_callable(g, degree=degree)
    if not isinstance(g, EndpointWeightedFunction):
        raise UnsupportedExponents("right-hand side must be series-backed or sampled")
    return g


def solve_low(g, C=0.0, cfg=DEFAULT_CONFIG, degree=DEFAULT_RHS_DEGREE):
    """All solutions of T(f) = g in the small-index regime: f = -(1/w)T(gw) + C/w."""
    g = _prepare_rhs(g, cfg, degree)
    particular = fht_hat(g, cfg=cfg, degree=degree)
    return AirfoilSolution(particular=particular,
                           homogeneous_coefficient=complex(C), regime=LOW)


def solvability_residual(g, cfg=DEFAULT_CONFIG, degree=DEFAULT_RHS_DEGREE):
    """|(1/pi) int g/w|; zero iff g lies in the range of T in the high regime."""
    g = _prepare_rhs(g, cfg, degree)
    over_w = g.shifted_exponents(-0.5, -0.5)
    return abs(complex(integrate_unit(over_w, cfg))) / math.pi


def solve_high(g, cfg=DEFAULT_CONFIG, degree=DEFAULT_RHS_DEGREE,
               solvability_tol=SOLVABILITY_TOL):
    """The unique solution f = -w T(g/w); requires int g/w = 0."""
    g = _prepare_rhs(g, cfg, degree)
    residual = solvability_residual(g, cfg, degree)
    if residual > solvability_tol:
        raise NotSolvable(residual)
    particular = fht_check(g, cfg=cfg, degree=degree)
    return AirfoilSolution(particular=particular, homogeneous_coefficient=None,
                           regime=HIGH)


def verify_roundtrip(g, regime, C=0.0, cfg=DEFAULT_CONFIG, n_points=20,
                     degree=DEFAULT_RHS_DEGREE):
    """Apply T by quadrature to the computed solution and report the residual.

    The round trip deliberately uses the principal-value quadrature engine, not
    the spectral rules that produced the solution, so the two routes check each
    other.
    """
    g = _prepare_rhs(g, cfg, degree)
    if regime == LOW:
        sol = solve_low(g, C=C, cfg=cfg, degree=degree)
    elif regime == HIGH:
        sol = solve_high(g, cfg=cfg, degree=degree)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    f = sol.solution()
    grid = np.linspace(-0.95, 0.95, n_points)
    residual = max(abs(fht_pointwise(f, t, cfg) - complex(g(t))) for t in grid)
    constant = None
    if regime == LOW:
        constant = complex(integrate_unit(f, cfg)) / math.pi
    return RoundTripReport(max_residual=float(residual), constant_recovered=constant)
