"""Spectral regions, the eigenfunction family, and fine-spectrum classification.

All spectral statements use the i-normalized transform T/i (the 'widom'
convention); the lens-shaped region for exponent p is

    {+-1} union { lambda : |arg((1+lambda)/(1-lambda))| / (2 pi) <= |1/2 - 1/p| },

bounded by two circular arcs through +-1 that pass through i cot(pi/p) and
i cot(pi/p').
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine import fht_pointwise
from .errors import (
    BranchViolation,
    ExponentOutOfRange,
    OutsideEigenvalueSet,
    UnsupportedDescriptor,
)
from .functions import EndpointWeightedFunction
from .series import FIRST_KIND, ChebyshevSeries

BOUNDARY_TOL = 1e-12
IMAG_TOL = 1e-14
# region_boundary_points: the endpoints +-1 and two inner points on each arc
MIN_BOUNDARY_POINTS = 8

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def _moebius(lam):
    lam = complex(lam)
    if lam == 1.0:
        raise BranchViolation("lambda = 1 maps to infinity")
    return (1.0 + lam) / (1.0 - lam)


def _on_cut(u):
    return abs(u.imag) <= IMAG_TOL and u.real <= 0.0


def z_of_lambda(lam):
    """z = log((1+lambda)/(1-lambda)) / (2 pi i), principal branch; Re z in (-1/2, 1/2)."""
    u = _moebius(lam)
    if _on_cut(u):
        raise BranchViolation(
            f"(1+lambda)/(1-lambda) = {u} lies on the branch cut (-inf, 0]"
        )
    return cmath.log(u) / (2.0j * math.pi)


def in_eigenvalue_set(lam):
    """True when lambda avoids the real rays (-inf,-1] and [1,inf)."""
    lam = complex(lam)
    if abs(lam.imag) <= IMAG_TOL and abs(lam.real) >= 1.0:
        return False
    return True


def gamma_of_lambda(lam):
    """Integrability threshold: 1/gamma = 1/2 + |Re z(lambda)|, so gamma in (1,2].

    xi_lambda belongs to L^p exactly for p < gamma (strictly), and gamma = 2
    precisely for real lambda in (-1,1).
    """
    if not in_eigenvalue_set(lam):
        raise OutsideEigenvalueSet(f"lambda = {lam} lies on the excluded real rays")
    z = z_of_lambda(lam)
    return 1.0 / (0.5 + abs(z.real))


def region_contains(p, lam):
    """Classify lambda against the region for exponent p: interior/boundary/outside."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    lam = complex(lam)
    if abs(lam - 1.0) <= BOUNDARY_TOL or abs(lam + 1.0) <= BOUNDARY_TOL:
        return BOUNDARY
    u = _moebius(lam)
    if _on_cut(u):
        return OUTSIDE
    d = abs(cmath.phase(u)) / (2.0 * math.pi)
    tau = abs(0.5 - 1.0 / p)
    if abs(d - tau) <= BOUNDARY_TOL:
        return BOUNDARY
    return INTERIOR if d < tau else OUTSIDE


def region_boundary_points(p, n=400):
    """Exactly n >= MIN_BOUNDARY_POINTS points on the two boundary arcs through
    +-1 and +-i cot(pi/p).

    Each arc is the preimage of a ray arg(u) = const under the Moebius map,
    parameterized by |u| on a log scale, and runs from -1 to 1.  The n - 4
    points between the endpoints are split evenly between the arcs; for odd
    n the first arc takes the extra one.  At p = 2 both arcs are the segment
    [-1, 1], drawn once with n - 2 points between its endpoints.
    """
    if n < MIN_BOUNDARY_POINTS:
        raise ValueError(f"n = {n} is below {MIN_BOUNDARY_POINTS}")
    pts = []
    tau = abs(0.5 - 1.0 / p)
    arcs = ((1.0, (n - 3) // 2), (-1.0, (n - 4) // 2)) if tau else ((1.0, n - 2),)
    # |s| <= 8 keeps the round-trip phase error below the boundary tolerance;
    # the endpoints +-1 (u -> 0, inf) are appended exactly.
    for sign, inner in arcs:
        s = np.linspace(-8.0, 8.0, inner)
        u = np.exp(s + 1j * sign * 2.0 * math.pi * tau)
        lam = (u - 1.0) / (u + 1.0)
        pts.append(np.concatenate(([-1.0 + 0.0j], lam, [1.0 + 0.0j])))
    return np.concatenate(pts)


def xi_function(lam):
    """The eigenfunction (1/w) ((1-x)/(1+x))^z as an endpoint-weighted function."""
    z = z_of_lambda(lam)
    return EndpointWeightedFunction(
        -0.5 + z, -0.5 - z, ChebyshevSeries(np.array([1.0 + 0.0j]), FIRST_KIND)
    )


def xi_eval(lam, x):
    return complex(xi_function(lam)(x))


def eigen_residual(lam, grid=None):
    """sup over the grid of |(T/i)(xi)(t) - lambda xi(t)| / (1 + |xi(t)|)."""
    gamma = gamma_of_lambda(lam)
    if gamma <= 1.05:
        raise ExponentOutOfRange(
            f"gamma = {gamma:.4f} too close to 1; xi is barely integrable"
        )
    if grid is None:
        grid = np.linspace(-0.9, 0.9, 20)
    xi = xi_function(lam)
    lhs = fht_pointwise(xi, grid) / 1j  # T/i, the convention of this module
    val = xi(grid)
    return float(np.max(np.abs(lhs - complex(lam) * val) / (1.0 + np.abs(val)),
                        initial=0.0))


# ---------------------------------------------------------------------------
# Symbolic fine-spectrum sets.

EMPTY = "empty"
INTERIOR_SET = "interior"
REGION_MINUS_ENDPOINTS = "region_minus_endpoints"
BOUNDARY_SET = "boundary"
ENDPOINTS_ONLY = "endpoints_only"
OPEN_UNIT_INTERVAL = "open_unit_interval"
CLOSED_UNIT_INTERVAL = "closed_unit_interval"
WHOLE_REGION = "whole_region"


@dataclass(frozen=True)
class SymbolicSet:
    """A named subset of the closed region for exponent p."""

    kind: str
    p: float | None = None

    def contains(self, lam):
        lam = complex(lam)
        if self.kind == EMPTY:
            return False
        if self.kind == OPEN_UNIT_INTERVAL:
            return abs(lam.imag) <= IMAG_TOL and abs(lam.real) < 1.0 - BOUNDARY_TOL
        if self.kind == CLOSED_UNIT_INTERVAL:
            return abs(lam.imag) <= IMAG_TOL and abs(lam.real) <= 1.0 + BOUNDARY_TOL
        if self.kind == ENDPOINTS_ONLY:
            return min(abs(lam - 1.0), abs(lam + 1.0)) <= BOUNDARY_TOL
        where = region_contains(self.p, lam)
        at_endpoint = min(abs(lam - 1.0), abs(lam + 1.0)) <= BOUNDARY_TOL
        if self.kind == INTERIOR_SET:
            return where == INTERIOR
        if self.kind == REGION_MINUS_ENDPOINTS:
            return where != OUTSIDE and not at_endpoint
        if self.kind == BOUNDARY_SET:
            return where == BOUNDARY
        if self.kind == WHOLE_REGION:
            return where != OUTSIDE
        raise ValueError(f"unknown symbolic set {self.kind!r}")

    def label(self):
        if self.p is None:
            return self.kind
        return f"{self.kind}({self.p:g})"


def empty():
    return SymbolicSet(EMPTY)


@dataclass(frozen=True)
class SpaceDescriptor:
    """A rearrangement-invariant space, by its Boyd indices (Boyd 1969).

    The fine-spectrum table reads only these: the p and q indices and whether
    each is attained.
    """

    p_index: float
    q_index: float
    p_attained: bool
    q_attained: bool

    @classmethod
    def lebesgue(cls, p):
        """L^p has indices (p, p), neither attained."""
        if not 1.0 < p < math.inf:
            raise UnsupportedDescriptor("lebesgue exponent must lie in (1, inf)")
        return cls(float(p), float(p), False, False)

    @classmethod
    def lorentz(cls, p, r):
        """L^{p,r} has the indices of L^p, the q index attained exactly when r = 1."""
        if not 1.0 < p < math.inf:
            raise UnsupportedDescriptor("lorentz p must lie in (1, inf)")
        if not r >= 1.0:
            raise UnsupportedDescriptor("lorentz r must be >= 1 or inf")
        if r == math.inf:
            raise UnsupportedDescriptor(
                "weak Lorentz spaces are non-separable; tables cover 1 <= r < inf"
            )
        return cls(float(p), float(p), False, float(r) == 1.0)

    @classmethod
    def indexed(cls, p_index, q_index, p_attained, q_attained):
        if not 1.0 < p_index < math.inf or not 1.0 < q_index < math.inf:
            raise UnsupportedDescriptor("indices must lie in (1, inf)")
        if q_index > p_index:
            raise UnsupportedDescriptor("q index cannot exceed p index")
        if q_index == p_index and p_attained and q_attained:
            raise UnsupportedDescriptor(
                "no space has equal indices with both attained"
            )
        return cls(float(p_index), float(q_index), bool(p_attained), bool(q_attained))

    @classmethod
    def catalog(cls, name):
        return resolve_catalog(name)


@dataclass(frozen=True)
class FineSpectrum:
    """Point / residual / continuous parts of the spectrum, the region for exponent p."""

    p: float
    point: SymbolicSet
    residual: SymbolicSet
    continuous: SymbolicSet

    def parts(self):
        return {"point": self.point, "residual": self.residual,
                "continuous": self.continuous}


def _indexed_spectrum(s_p, s_q, p_attained, q_attained):
    """The fine-spectrum table, keyed by the Boyd indices of the space."""
    if s_p == s_q:
        s = s_p
        if s < 2.0:
            if p_attained:
                return FineSpectrum(s, SymbolicSet(REGION_MINUS_ENDPOINTS, s),
                                    empty(), SymbolicSet(ENDPOINTS_ONLY))
            return FineSpectrum(s, SymbolicSet(INTERIOR_SET, s), empty(),
                                SymbolicSet(BOUNDARY_SET, s))
        if s > 2.0:
            if p_attained or q_attained:
                return FineSpectrum(s, empty(),
                                    SymbolicSet(REGION_MINUS_ENDPOINTS, s),
                                    SymbolicSet(ENDPOINTS_ONLY))
            return FineSpectrum(s, empty(), SymbolicSet(INTERIOR_SET, s),
                                SymbolicSet(BOUNDARY_SET, s))
        # s == 2: three sub-cases
        if p_attained:
            return FineSpectrum(s, SymbolicSet(OPEN_UNIT_INTERVAL), empty(),
                                SymbolicSet(ENDPOINTS_ONLY))
        if q_attained:
            return FineSpectrum(s, empty(), SymbolicSet(OPEN_UNIT_INTERVAL),
                                SymbolicSet(ENDPOINTS_ONLY))
        return FineSpectrum(s, empty(), empty(), SymbolicSet(CLOSED_UNIT_INTERVAL))
    # distinct indices
    if s_p <= 2.0 and p_attained:
        return FineSpectrum(s_p, SymbolicSet(REGION_MINUS_ENDPOINTS, s_p),
                            empty(), SymbolicSet(ENDPOINTS_ONLY))
    if s_q <= 2.0 <= s_p:
        attained_at_two = (s_p == 2.0 and p_attained) or (s_q == 2.0 and q_attained)
        if not attained_at_two:
            return FineSpectrum(s_p, empty(), empty(), SymbolicSet(WHOLE_REGION, s_p))
    raise UnsupportedDescriptor(
        f"no table covers indexed(p={s_p:g}, q={s_q:g}, "
        f"pa={p_attained}, qa={q_attained})"
    )


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def resolve_catalog(name):
    """Parse 'lebesgue:p', 'lorentz:p,r' (r may be inf or oo) or 'indexed:pX,qX,pa,qa'."""
    head, _, rest = name.partition(":")
    parts = [tok.strip() for tok in rest.split(",")] if rest else []
    try:
        if head == "lebesgue" and len(parts) == 1:
            return SpaceDescriptor.lebesgue(float(parts[0]))
        if head == "lorentz" and len(parts) == 2:
            r = math.inf if parts[1] in ("inf", "oo") else float(parts[1])
            return SpaceDescriptor.lorentz(float(parts[0]), r)
        if head == "indexed" and len(parts) == 4:
            flags = [_FLAGS[tok.lower()] for tok in parts[2:]]
            return SpaceDescriptor.indexed(float(parts[0]), float(parts[1]), *flags)
    except (KeyError, ValueError) as exc:
        raise UnsupportedDescriptor(f"bad descriptor {name!r}") from exc
    raise UnsupportedDescriptor(f"bad descriptor {name!r}")


def classify_space(desc):
    """Symbolic fine-spectrum decomposition for a supported descriptor."""
    return _indexed_spectrum(desc.p_index, desc.q_index, desc.p_attained,
                             desc.q_attained)


RESOLVENT = "resolvent"
POINT = "point"
RESIDUAL = "residual"
CONTINUOUS = "continuous"


def classify_point(desc, lam):
    """Locate lambda in the fine spectrum: resolvent/point/residual/continuous."""
    fs = classify_space(desc)
    label = RESOLVENT
    for name, part in fs.parts().items():
        if part.contains(lam):
            label = name
            break
    if label == POINT:
        gamma = gamma_of_lambda(lam)
        p_index = desc.p_index
        member = (p_index <= gamma) if desc.p_attained else (p_index < gamma)
        if not member:
            raise UnsupportedDescriptor(
                "table and eigenfunction membership disagree; descriptor invalid"
            )
    return label


def sample_region(p, n, rng):
    """n points of the closed region for exponent p (rejection sampling)."""
    tau = abs(0.5 - 1.0 / p)
    height = 1.0 / math.tan(math.pi / max(p, p / (p - 1.0))) if p != 2.0 else 0.0
    out = []
    while len(out) < n:
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-height - 0.1, height + 0.1))
        if p == 2.0:
            lam = complex(rng.uniform(-1.0, 1.0), 0.0)
        if region_contains(p, lam) != OUTSIDE:
            out.append(lam)
    return out


def partition_check(fs, n=200, seed=0):
    """Sampled disjointness/union check of the FineSpectrum fs's three parts against sigma."""
    rng = np.random.default_rng(seed)
    for lam in sample_region(fs.p, n, rng):
        hits = [name for name, part in fs.parts().items() if part.contains(lam)]
        in_sigma = region_contains(fs.p, lam) != OUTSIDE
        if len(hits) > 1:
            return False, f"parts overlap at {lam}: {hits}"
        if in_sigma and not hits:
            return False, f"sigma point {lam} uncovered"
        if hits and not in_sigma:
            return False, f"part point {lam} outside sigma"
    return True, "ok"
