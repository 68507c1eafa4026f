"""Quantitative checks of the transform's integral identities and norm bounds."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import fht_pointwise, integrate_unit, transform, weighted_transform
from .functions import EndpointWeightedFunction, IndicatorUnion, SampledFunction, sample
from .rearrange import l1_norm, zygmund_norm
from .series import FIRST_KIND, ChebyshevSeries

# Per-identity tolerances, in one place.
TOLERANCES = {
    "parseval": 1e-6,
    "poincare_bertrand": 1e-4,
    "laeng": 1e-3,
    "kernel": 1e-8,
    # the eigen-relation of fht eigencheck, at real and at complex lambda
    "eigen_real": 1e-8,
    "eigen_complex": 1e-5,
    # fht invert's round trip, relative to max(1, max |g|) on its grid
    "roundtrip": 1e-8,
    "norm_bound_slack": 1e-3,
    "stability": 0.10,
}


@dataclass(frozen=True)
class IdentityReport:
    name: str
    max_abs_residual: float
    max_rel_residual: float
    grid_size: int
    tolerance: float

    @property
    def passed(self):
        return self.max_abs_residual <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(name, residuals, scale, tolerance, grid_size):
    max_abs = float(np.max(residuals)) if len(residuals) else 0.0
    max_rel = max_abs / max(scale, 1e-300)
    return IdentityReport(name=name, max_abs_residual=max_abs,
                          max_rel_residual=max_rel, grid_size=grid_size,
                          tolerance=tolerance)


def _cross_products(f, g):
    """T(f), T(g) and the map x -> f(x) T(g)(x) + g(x) T(f)(x)."""
    Tf = transform(f)
    Tg = transform(g)

    def cross(x):
        return complex(f(x)) * Tg(x) + complex(g(x)) * Tf(x)

    return Tf, Tg, cross


def check_parseval(f, g):
    """Residual of int f T(g) + int g T(f) = 0 for an admissible pair.

    T(f) and T(g) come from transform; the integral over (-1,1) is
    integrate_unit's, at the engine's default settings.  Its integrand has at
    worst log singularities at the endpoints.  Both the real and the
    imaginary part of the integral must vanish.
    """
    _, _, integrand = _cross_products(f, g)
    val = integrate_unit(integrand)
    scale = max(abs(complex(f(0.0))), abs(complex(g(0.0))), 1.0)
    return _report("parseval", [abs(val)], scale, TOLERANCES["parseval"], 1)


def check_poincare_bertrand(f, g, grid=None):
    """Pointwise residual of T(g T(f) + f T(g)) = T(f) T(g) - f g on the grid.

    T(f) and T(g) come from transform; the outer transform is fht_pointwise's
    principal-value quadrature at the engine's default settings.  Its
    integrand is Hoelder at interior points and log-singular only at the
    endpoints.
    """
    grid = np.linspace(-0.8, 0.8, 10) if grid is None else np.asarray(grid, dtype=float)
    Tf, Tg, inner = _cross_products(f, g)
    lhs = fht_pointwise(inner, grid)
    rhs = Tf(grid) * Tg(grid) - f(grid) * g(grid)
    residuals = np.abs(lhs - rhs)
    scale = float(np.max(np.abs(rhs), initial=1.0))
    return _report("poincare_bertrand", residuals, scale,
                   TOLERANCES["poincare_bertrand"], len(grid))


def hilbert_of_indicator(A, x):
    """Closed-form line Hilbert transform of the indicator of a union of intervals.

    x is a scalar or an array.
    """
    total = 0.0
    for a, b in A.intervals:
        total += np.log(np.abs((x - b) / (x - a)))
    return total / math.pi


def _level_set_measures(A, lams):
    """m({x in A : |H(chi_A)(x)| > lam}) for each lam, by dense sampling plus bisection.

    Every interval is sampled once, at 4000 interior points, for all lam.  A
    crossing of |H| - lam lies at a sample where it is exactly 0, or between
    two consecutive samples where it changes sign; the sign changes of all
    intervals and all lam are refined by one 60-step bisection on arrays.
    """
    lams = np.array(lams, dtype=float)
    # xs[k]: the 4000 interior samples of interval k; vals[k, j]: |H| - lams[j] on them
    xs = np.array([np.linspace(a, b, 4002)[1:-1] for a, b in A.intervals])
    vals = np.abs(hilbert_of_indicator(A, xs))[:, None, :] - lams[:, None]
    zero = vals[:, :, :-1] == 0.0
    change = ~zero & (vals[:, :, :-1] * vals[:, :, 1:] < 0.0)
    # |H| - lam has the sign of vals[k, j, i] on the left part of [xs[k, i], xs[k, i+1]]
    k, j, i = np.nonzero(change)
    lo, hi, side, level = xs[k, i], xs[k, i + 1], vals[k, j, i], lams[j]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = (np.abs(hilbert_of_indicator(A, mid)) - level) * side > 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    crossings = np.where(zero, xs[:, None, :-1], 0.0)
    crossings[change] = 0.5 * (lo + hi)
    # walk the panels between crossings; |H| -> +inf at both interval endpoints
    panels = []  # (lam index, lo, hi), in the order each measure sums them
    for (a, b), hits, points in zip(A.intervals, zero | change, crossings):
        for j in range(len(lams)):
            edges = [a, *points[j, hits[j]].tolist(), b]
            panels += [(j, lo, hi) for lo, hi in zip(edges, edges[1:])]
    mids = np.array([0.5 * (lo + hi) for _, lo, hi in panels])
    levels = lams[[j for j, _, _ in panels]]
    above = (np.abs(hilbert_of_indicator(A, mids)) > levels).tolist()
    measures = [0.0] * len(lams)
    for (j, lo, hi), inside in zip(panels, above):
        if inside:
            measures[j] += hi - lo
    return measures


def check_laeng(A, lambdas=None):
    """Level-set law of the transformed indicator: measure = 2 m(A)/(e^(pi lam)+1)."""
    if not isinstance(A, IndicatorUnion):
        A = IndicatorUnion(tuple(A))
    if lambdas is None:
        lambdas = np.linspace(0.1, 2.0, 20)
    mA = A.measure()
    residuals = []
    for lam, approx in zip(lambdas, _level_set_measures(A, lambdas)):
        exact = 2.0 * mA / (math.exp(math.pi * lam) + 1.0)
        residuals.append(abs(approx - exact) / exact)
    return _report("laeng", residuals, 1.0, TOLERANCES["laeng"], len(lambdas))


def check_kernel(C=1.0):
    """sup |T(C/w)| over an interior grid; the kernel is exactly span{1/w}."""
    func = EndpointWeightedFunction(
        -0.5, -0.5, ChebyshevSeries(np.array([complex(C)]), FIRST_KIND)
    )
    grid = np.linspace(-0.95, 0.95, 20)
    residuals = np.abs(fht_pointwise(func, grid))
    return _report("kernel", residuals, max(abs(complex(C)), 1.0),
                   TOLERANCES["kernel"], len(grid))


@dataclass(frozen=True)
class ProbeReport:
    name: str
    sup_ratio: float
    analytic_bound: float | None
    stable: bool
    details: dict

    @property
    def passed(self):
        if self.analytic_bound is None:
            return math.isfinite(self.sup_ratio) and self.stable
        slack = 1.0 + TOLERANCES["norm_bound_slack"]
        return self.sup_ratio <= self.analytic_bound * slack

    def as_dict(self):
        return {
            "name": self.name,
            "sup_ratio": self.sup_ratio,
            "analytic_bound": self.analytic_bound,
            "stable": self.stable,
            "pass": self.passed,
            **self.details,
        }


@functools.cache
def _gauss_grid():
    """The 2000-node Gauss-Legendre grid in theta, as (x = cos theta, sin(theta) * weight).

    Built on first use, not at import: only the norm probes read it.
    """
    from scipy.special import roots_legendre

    theta, weights = roots_legendre(2000)
    theta = 0.5 * math.pi * (theta + 1.0)
    weights = 0.5 * math.pi * weights
    return np.cos(theta), np.sin(theta) * weights


def _grid_lp(vals, p):
    """L^p norm on (-1,1) on the Gauss grid in theta (endpoint-safe)."""
    _, sinw = _gauss_grid()
    return float(np.sum(np.abs(vals) ** p * sinw) ** (1.0 / p))


def random_cheb_family(rng, size, degree):
    """size T-series of the given degree, their coefficients standard normal draws of rng."""
    for _ in range(size):
        coeffs = rng.standard_normal(degree + 1)
        yield ChebyshevSeries(coeffs.astype(complex), FIRST_KIND)


def norm_probe(p, family_size=50, seed=0):
    """Empirical operator-norm ratio against the analytic value tan(pi/(2p)).

    transform takes the exact closed form for each random Chebyshev
    polynomial; the norms are Gauss-grid norms.  The analytic value bounds
    every finite family from above, so only the one-sided inequality is
    meaningful.  p may also be a sequence of exponents, for a list of one
    report each: every family member is then transformed once for all of
    them.
    """
    ps = [p] if np.ndim(p) == 0 else list(p)
    if not all(1.0 < q < 2.0 for q in ps):
        raise ValueError("the closed-form operator norm applies for p in (1,2)")
    rng = np.random.default_rng(seed)
    xgrid, _ = _gauss_grid()
    ratios = [[] for _ in ps]
    for series in random_cheb_family(rng, family_size, 10):
        fv = series(xgrid)
        tv = transform(EndpointWeightedFunction(0.0, 0.0, series))(xgrid)
        for q, column in zip(ps, ratios):
            column.append(_grid_lp(tv, q) / _grid_lp(fv, q))
    reports = []
    for q, column in zip(ps, ratios):
        bound = math.tan(math.pi / (2.0 * q))
        sup = float(np.max(column))
        reports.append(ProbeReport(name=f"norm_p{q:g}", sup_ratio=sup, analytic_bound=bound,
                                   stable=True,
                                   details={"p": q, "family_size": family_size, "seed": seed,
                                            "gap": bound - sup}))
    return reports if np.ndim(p) else reports[0]


def _smoothed_spike(x0, beta, amp):
    """amp (|x-x0|^2 + eps^2)^(-beta/2): an integrable spike, smooth and bounded.

    eps is 1e-3.  The spike is declared real, so fht_pointwise integrates it
    in one quad pass per half-interval, in floats.
    """
    eps_sq = 1e-3 * 1e-3

    def func(x):
        return amp * ((x - x0) ** 2 + eps_sq) ** (-0.5 * beta)

    func.real_valued = True
    return func


def loglog_probe(family_size=10, seed=7):
    """sup of ||T f||_1 / ||f||_(L log L) over a spiky family.

    There is no closed-form constant here; the probe asserts finiteness and
    stability of the sup under grid refinement of the Zygmund functional.
    """
    rng = np.random.default_rng(seed)
    n_grid = 800
    tgrid = np.linspace(-0.9, 0.9, 41)
    ratios, ratios_fine = [], []
    for _ in range(family_size):
        x0 = rng.uniform(-0.6, 0.6)
        beta = rng.uniform(0.2, 0.8)
        amp = rng.uniform(0.5, 2.0)
        f = _smoothed_spike(x0, beta, amp)
        tf = SampledFunction(tgrid, fht_pointwise(f, tgrid))
        num = l1_norm(tf)
        den = zygmund_norm(1.0, sample(f, n_grid))
        den_fine = zygmund_norm(1.0, sample(f, 2 * n_grid))
        ratios.append(num / den)
        ratios_fine.append(num / den_fine)
    sup = float(np.max(ratios))
    sup_fine = float(np.max(ratios_fine))
    stable = abs(sup_fine - sup) <= TOLERANCES["stability"] * max(sup, 1e-300)
    return ProbeReport(name="loglog", sup_ratio=sup, analytic_bound=None,
                       stable=stable,
                       details={"family_size": family_size, "seed": seed,
                                "refined_sup_ratio": sup_fine})


def khvedelidze_probe(gamma, delta, p, family_size=20, seed=0):
    """sup of ||rho T(f/rho)||_p / ||f||_p over random polynomials.

    The weighted transform is bounded for exponents inside the admissible
    window; the probe asserts finiteness of the empirical ratio.
    """
    rng = np.random.default_rng(seed)
    tgrid = np.linspace(-0.9, 0.9, 31)
    dt = tgrid[1] - tgrid[0]
    xgrid, _ = _gauss_grid()
    ratios = []
    for series in random_cheb_family(rng, family_size, 8):
        func = EndpointWeightedFunction(0.0, 0.0, series)
        tv = weighted_transform(gamma, delta, func, tgrid, p=p)
        f_norm = _grid_lp(series(xgrid), p)
        t_norm = float(np.sum(np.abs(tv) ** p * dt) ** (1.0 / p))
        ratios.append(t_norm / f_norm)
    sup = float(np.max(ratios))
    return ProbeReport(name=f"khvedelidze_g{gamma:g}_d{delta:g}_p{p:g}",
                       sup_ratio=sup, analytic_bound=None,
                       stable=math.isfinite(sup),
                       details={"gamma": gamma, "delta": delta, "p": p,
                                "family_size": family_size, "seed": seed})
