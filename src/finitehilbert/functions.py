"""Function representations on (-1,1): endpoint-weighted series, samples, indicator unions."""

from __future__ import annotations

import cmath
import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGrid,
    ExponentOutOfRange,
    FunctionSpecError,
    NonFiniteSample,
)
from .series import FIRST_KIND, ChebyshevSeries

# The interior window: sampled and CSV grids, and the points t of
# engine.fht_pointwise (engine.EPS_EDGE), lie in [-1+eps, 1-eps].
DEFAULT_EPS_EDGE = 1e-6


def constant_series(c=1.0):
    return ChebyshevSeries(np.array([c], dtype=complex), FIRST_KIND)


@dataclass(frozen=True)
class EndpointWeightedFunction:
    """(1-x)^a (1+x)^b * smooth(x), with principal-branch powers.

    Both bases 1-x and 1+x are positive on (-1,1), so the complex powers are
    single-valued.  Integrability requires Re(a) > -1 and Re(b) > -1.
    """

    a: complex
    b: complex
    smooth: ChebyshevSeries

    def __post_init__(self):
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ExponentOutOfRange(f"exponents ({self.a}, {self.b}) must be finite")
        if self.a.real <= -1.0 or self.b.real <= -1.0:
            raise ExponentOutOfRange(
                f"exponents ({self.a}, {self.b}) are not integrable on (-1,1)"
            )

    @property
    def real_valued(self):
        return (
            self.a.imag == 0.0 and self.b.imag == 0.0 and self.smooth.real_valued
        )

    def weight(self, x):
        x = np.asarray(x, dtype=float)
        la = np.log1p(-x)  # log(1-x)
        lb = np.log1p(x)
        val = np.exp(complex(self.a) * la + complex(self.b) * lb)
        return val

    def __call__(self, x):
        if isinstance(x, float) and self.a == 0.0 and self.b == 0.0:
            # the weight is exactly 1 here; quad integrands call this per node
            return self.smooth(x)
        val = self.weight(x) * self.smooth(x)
        if self.real_valued:
            val = val.real
        return val

    def shifted_exponents(self, da, db):
        return EndpointWeightedFunction(self.a + da, self.b + db, self.smooth)


def one():
    """The constant function 1 on (-1,1)."""
    return EndpointWeightedFunction(0.0, 0.0, constant_series(1.0))


def sqrt_weight():
    """w(x) = sqrt(1-x^2)."""
    return EndpointWeightedFunction(0.5, 0.5, constant_series(1.0))


def inverse_sqrt_weight():
    """1/w(x) = (1-x^2)^(-1/2), the kernel generator."""
    return EndpointWeightedFunction(-0.5, -0.5, constant_series(1.0))


@dataclass(frozen=True)
class SampledFunction:
    """Values on a strictly increasing interior grid.

    The default domain is (-1,1); rearrangements live on (0,2).
    """

    points: np.ndarray
    values: np.ndarray
    eps_edge: float = DEFAULT_EPS_EDGE
    domain: tuple = (-1.0, 1.0)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        lo, hi = self.domain
        if pts.ndim != 1 or pts.shape != vals.shape:
            raise DegenerateGrid("points and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(pts)):
            raise DegenerateGrid("grid points must be finite")
        slack = 1e-12 * (hi - lo)
        if len(pts) and (pts[0] < lo + self.eps_edge - slack
                         or pts[-1] > hi - self.eps_edge + slack):
            raise DegenerateGrid("grid points must stay eps_edge away from the endpoints")
        if np.any(np.diff(pts) <= 0.0):
            raise DegenerateGrid("grid points must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSample("non-finite sample value")

    def __len__(self):
        return len(self.points)

    def cell_edges(self):
        """Cell boundaries: midpoints between nodes, closed off at the domain ends."""
        mids = 0.5 * (self.points[1:] + self.points[:-1])
        return np.concatenate(([self.domain[0]], mids, [self.domain[1]]))

    def cell_widths(self):
        return np.diff(self.cell_edges())


def sample(func, n):
    """Sample a callable at n points of [-1+eps, 1-eps], eps = DEFAULT_EPS_EDGE.

    The points are uniform in theta = arccos(x), so they cluster at the
    endpoints, where functions such as 1/w blow up.
    """
    if n < 2:
        raise DegenerateGrid("need at least 2 samples")
    eps = DEFAULT_EPS_EDGE
    theta_edge = np.arccos(1.0 - eps)
    theta = np.linspace(theta_edge, np.pi - theta_edge, n)
    pts = np.clip(np.cos(theta)[::-1], -1.0 + eps, 1.0 - eps)
    vals = np.asarray([func(x) for x in pts])
    return SampledFunction(pts, vals)


@dataclass(frozen=True)
class IndicatorUnion:
    """A finite union of disjoint open intervals of the real line."""

    intervals: tuple

    def __post_init__(self):
        ivs = sorted((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not b > a:
                raise ValueError(f"empty interval ({a}, {b})")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals overlap")
        # merge abutting intervals so the normalized form is canonical
        merged = []
        for a, b in ivs:
            if merged and a == merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))
        if self.measure() <= 0.0:
            raise ValueError("union has zero measure")

    def measure(self):
        return sum(b - a for a, b in self.intervals)


# ---------------------------------------------------------------------------
# CSV wire format: header x,re,im with '.' decimals and LF line endings.

def table_to_csv(xs, values):
    """CSV text of real abscissae xs and complex values, one x,re,im row each.

    No float repr needs quoting, so the rows are plain joins.
    """
    rows = [f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n" for x, v in zip(xs, values)]
    return "x,re,im\n" + "".join(rows)


def sampled_to_csv(f):
    return table_to_csv(f.points, f.values)


def sampled_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["x", "re", "im"]:
        raise FunctionSpecError("expected CSV header x,re,im")
    pts, vals = [], []
    for row in reader:
        if not row:
            continue
        try:
            pts.append(float(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
        except (ValueError, IndexError) as exc:
            raise FunctionSpecError(f"bad CSV row {row!r}: want three numbers") from exc
    return SampledFunction(np.array(pts), np.array(vals))
