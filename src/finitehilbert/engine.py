"""The finite Hilbert transform: principal-value quadrature and spectral rules.

The principal-value integral is evaluated by singularity subtraction,

    T(f)(t) = (1/pi) [ int (f(x)-f(t))/(x-t) dx + f(t) log((1-t)/(1+t)) ],

which is a proper integral when f is Hoelder-continuous at t.  The integral is
computed after the substitution x = cos(theta), which removes square-root
endpoint singularities exactly and weakens general algebraic ones.

The spectral rules use the exact images of the two canonical weight classes:

    (1/w) T_n  ->  U_{n-1}        (n >= 1; the n = 0 term is annihilated)
    w U_n      ->  -T_{n+1}
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (
    DegenerateGrid,
    ExponentOutOfRange,
    NoConvergence,
    PointOutsideWindow,
    SingularEvaluation,
    UnsupportedExponents,
)
from .functions import EndpointWeightedFunction, SampledFunction
from .series import (
    FIRST_KIND,
    SECOND_KIND,
    ChebyshevSeries,
    interpolate_chebyshev,
)

TRICOMI = "tricomi"
WIDOM = "widom"


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_panels: int = 4096
    eps_edge: float = 1e-6

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):  # also rejects NaN
            raise ValueError("tolerances must be positive")
        if self.max_panels < 4:
            raise ValueError("max_panels must be >= 4")
        if not 0.0 < self.eps_edge < 1.0:
            raise ValueError("eps_edge must lie in (0, 1)")


DEFAULT_CONFIG = QuadratureConfig()

# Degree of every Chebyshev re-interpolation: of sampled input and of the
# quadrature route of fht_hat.
INTERP_DEGREE = 64


def _as_callable(f):
    """Normalize supported inputs to an evaluable function on (-1,1)."""
    if isinstance(f, SampledFunction):
        return sampled_to_weighted(f)
    return f


def sampled_to_weighted(f):
    """Interpolate a sampled function to a Chebyshev series (exponents (0,0))."""
    from scipy.interpolate import CubicSpline

    if len(f) < 2:
        raise DegenerateGrid("need at least 2 samples to interpolate")
    spline = CubicSpline(f.points, f.values, extrapolate=True)
    series = interpolate_chebyshev(spline, INTERP_DEGREE)
    return EndpointWeightedFunction(0.0, 0.0, series)


def _is_real(f):
    return bool(getattr(f, "real_valued", False))


def _quad(g, a, b, cfg):
    """Adaptive quadrature with the panel budget from cfg; returns (value, err).

    full_output makes quad return QUADPACK's message instead of warning.
    """
    out = integrate.quad(
        g, a, b,
        epsabs=0.25 * cfg.abs_tol,
        epsrel=0.25 * cfg.rel_tol,
        limit=cfg.max_panels,
        full_output=1,
    )
    val, err = out[0], out[1]
    if not math.isfinite(val):
        raise NoConvergence("quadrature returned a non-finite value")
    return val, err


# A finite node value above about 1e305 overflows QUADPACK's error estimates,
# and scipy's quad can then end the process with a bus error (for example on
# 1.7e308 / (1 + x) over (0, pi/2)).  So a node value beyond this bound stops
# the quadrature; inf and NaN pass, and _quad reports the non-finite result.
_MAX_NODE_VALUE = 1e300


def _beyond_bound(value):
    if math.isfinite(value):
        raise NoConvergence(f"integrand value {value!r} is too large for quadrature")
    return value


def _quad_complex(g, a, b, cfg, real_only=False):
    """Integrate the real part, then the imaginary part, in two quad passes.

    The passes stay separate, so each sees the node set and the values it
    would see on its own.  A complex g still runs once per distinct node:
    the real pass keeps g(s), and the imaginary pass reads .imag from it,
    calling g only at nodes the real pass did not visit.  Each pass checks
    its node values against _MAX_NODE_VALUE.
    """
    big = _MAX_NODE_VALUE
    if real_only:
        def real_of_real(s):
            value = g(s).real
            return value if -big < value < big else _beyond_bound(value)

        re, err_re = _quad(real_of_real, a, b, cfg)
        return complex(re), err_re
    seen = {}

    def real_part(s):
        value = seen[s] = g(s)
        value = value.real
        return value if -big < value < big else _beyond_bound(value)

    def imag_part(s):
        value = seen.get(s)
        if value is None:
            value = g(s)
        value = value.imag
        return value if -big < value < big else _beyond_bound(value)

    re, err_re = _quad(real_part, a, b, cfg)
    im, err_im = _quad(imag_part, a, b, cfg)
    return complex(re, im), err_re + err_im


def _numpy_exp(z):
    """np.exp(z) as a Python complex, without numpy's overflow warnings.

    cmath.exp returns the same bits as np.exp wherever Re z < 708 and Im z is
    finite, and costs less per call.  Elsewhere it rounds differently (its
    branch for Re z above log(DBL_MAX) - 1) or raises, so the theta-integrand
    takes np.exp there; a non-finite result then fails in _quad.
    """
    with np.errstate(all="ignore"):
        return complex(np.exp(z))


def _theta_integrand(f, t=None, ft=0j):
    """The integrand of integrate_unit (t None) or of the p.v. quadrature at t.

    After x = cos(theta) the first is f(x) sin(theta) and the second
    (f(x) - f(t)) sin(theta) / (x - t), which is f'(t) sin(theta) where
    |x - t| < 1e-13; only there is f'(t) estimated.  For endpoint-weighted f
    the weight times sin(theta) is rewritten as
    2^(a+b+1) sin(theta/2)^(2a+1) cos(theta/2)^(2b+1), which stays finite for
    all integrable exponents, and the weight, the Clenshaw sum of the series
    and the subtraction run in one flat closure: quad calls it at every node,
    so everything fixed by f and t is computed here.
    """
    pv = t is not None
    if not isinstance(f, EndpointWeightedFunction):
        def plain(theta):
            x = math.cos(theta)
            s = math.sin(theta)
            if not pv:
                return complex(f(x)) * s
            dx = x - t
            if -1e-13 < dx < 1e-13:
                return _derivative(f, t) * s
            return (complex(f(x)) * s - ft * s) / dx

        return plain

    a, b = complex(f.a), complex(f.b)
    log_two = (a + b + 1.0) * math.log(2.0)
    sin_power, cos_power = 2.0 * a + 1.0, 2.0 * b + 1.0
    coeffs = f.smooth._coeff_list
    c0, rest = coeffs[0], coeffs[:0:-1]
    second_kind = f.smooth.basis == SECOND_KIND
    # closure cells, read faster than module attributes at every node
    cos, sin, log, exp = math.cos, math.sin, math.log, cmath.exp

    def weighted(theta):
        x = cos(theta)
        if pv:
            dx = x - t
            if -1e-13 < dx < 1e-13:  # abs(dx) < 1e-13, without a call
                return _derivative(f, t) * sin(theta)
        h = 0.5 * theta
        sh = sin(h)
        if sh < 1e-300:  # the value of max(sh, 1e-300), without a call
            sh = 1e-300
        ch = cos(h)
        if ch < 1e-300:
            ch = 1e-300
        log_factor = log_two + sin_power * log(sh) + cos_power * log(ch)
        if log_factor.real < 708.0:  # where cmath.exp equals np.exp, see _numpy_exp
            try:
                weight = exp(log_factor)
            except ValueError:  # an infinite imaginary part
                weight = _numpy_exp(log_factor)
        else:
            weight = _numpy_exp(log_factor)
        # ChebyshevSeries.__call__, with 2.0 * x * b1 grouped as (2.0 * x) * b1 as there
        two_x = 2.0 * x
        b1 = b2 = 0.0
        for c in rest:
            b1, b2 = c + two_x * b1 - b2, b1
        value = weight * complex(c0 + (two_x if second_kind else x) * b1 - b2)
        if not pv:
            return value
        # numpy's complex division by a real dx multiplies by 1.0 / dx
        return (value - ft * sin(theta)) * (1.0 / dx)

    return weighted


def integrate_unit(f, cfg=DEFAULT_CONFIG):
    """int_{-1}^1 f(x) dx via the x = cos(theta) substitution."""
    f = _as_callable(f)
    real_only = _is_real(f)
    val, err = _quad_complex(_theta_integrand(f), 0.0, math.pi, cfg,
                             real_only=real_only)
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(val)) * 10.0:
        raise NoConvergence(f"integral error estimate {err:.2e} too large")
    if real_only:
        return val.real
    return val


def _derivative(f, t):
    """Central-difference f'(t), with a step that stays inside (-1, 1)."""
    h = min(1e-6, 0.25 * (1.0 - abs(t)))
    return (complex(f(t + h)) - complex(f(t - h))) / (2.0 * h)


def fht_pointwise(f, t, cfg=DEFAULT_CONFIG):
    """T(f)(t) = (1/pi) p.v. int f(x)/(x-t) dx by singularity subtraction.

    t is a scalar or an array; each point gets its own adaptive quadrature.
    A scalar t gives a complex scalar, an array t an array of its shape.
    """
    f = _as_callable(f)
    ts = np.asarray(t, dtype=float)
    if not np.all((-1.0 + cfg.eps_edge <= ts) & (ts <= 1.0 - cfg.eps_edge)):
        raise PointOutsideWindow(
            f"t must lie in [-1+eps_edge, 1-eps_edge] (eps_edge = {cfg.eps_edge})")
    real_only = _is_real(f)
    values = [_pv_at(f, s, cfg, real_only) for s in ts.ravel().tolist()]
    if ts.ndim == 0:
        return values[0]
    return np.array(values, dtype=complex).reshape(ts.shape)


def _pv_at(f, t, cfg, real_only):
    """The p.v. quadrature of fht_pointwise at one point t."""
    ft = complex(f(t))
    if not np.isfinite(ft):
        raise SingularEvaluation(f"f is not finite at t={t}")
    phi = math.acos(t)
    g = _theta_integrand(f, t, ft)
    v1, e1 = _quad_complex(g, 0.0, phi, cfg, real_only=real_only)
    v2, e2 = _quad_complex(g, phi, math.pi, cfg, real_only=real_only)
    log_term = ft * math.log((1.0 - t) / (1.0 + t))
    result = (v1 + v2 + log_term) / math.pi
    err = (e1 + e2) / math.pi
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(result)) * 100.0:
        raise NoConvergence(f"p.v. quadrature error estimate {err:.2e} too large")
    if real_only:
        return complex(result.real)
    return result


def _exponents_close(f, a, b, tol=1e-12):
    return abs(complex(f.a) - a) <= tol and abs(complex(f.b) - b) <= tol


def fht_spectral(f):
    """Exact transform of the two canonical weight classes.

    (1/w) sum a_n T_n  ->  sum_{n>=1} a_n U_{n-1}
    w sum b_n U_n      ->  -sum b_n T_{n+1}
    """
    if not isinstance(f, EndpointWeightedFunction):
        raise UnsupportedExponents("spectral rule needs an endpoint-weighted function")
    if _exponents_close(f, -0.5, -0.5):
        tc = f.smooth.to_basis(FIRST_KIND).coeffs
        out = np.zeros(max(len(tc) - 1, 1), dtype=complex)
        out[: len(tc) - 1] = tc[1:]
        return EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(out, SECOND_KIND))
    if _exponents_close(f, 0.5, 0.5):
        uc = f.smooth.to_basis(SECOND_KIND).coeffs
        out = np.zeros(len(uc) + 1, dtype=complex)
        out[1:] = -uc
        return EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(out, FIRST_KIND))
    raise UnsupportedExponents(
        f"no closed form for exponents ({f.a}, {f.b}); use fht_pointwise"
    )


def fht_hat(g, cfg=DEFAULT_CONFIG):
    """The pseudo-inverse -(1/w) T(g w).

    For a plain series input (exponents (0,0)) the spectral rule
    sum b_n U_n -> (1/w) sum b_n T_{n+1} is exact; other inputs go through
    quadrature and re-interpolation.
    """
    g = _as_callable(g)
    if not isinstance(g, EndpointWeightedFunction):
        raise UnsupportedExponents("fht_hat needs a series-backed function")
    if _exponents_close(g, 0.0, 0.0):
        # negated after the U conversion, so zero coefficients keep their sign
        uc = g.smooth.to_basis(SECOND_KIND).coeffs
        gw = EndpointWeightedFunction(0.5, 0.5, ChebyshevSeries(-uc, SECOND_KIND))
        return EndpointWeightedFunction(-0.5, -0.5, fht_spectral(gw).smooth)
    gw = g.shifted_exponents(0.5, 0.5)
    tgw = interpolate_chebyshev(lambda x: fht_pointwise(gw, x, cfg), INTERP_DEGREE)
    return EndpointWeightedFunction(-0.5, -0.5, tgw * (-1.0))


def fht_check(g):
    """The pseudo-inverse -w T(g/w); spectral rule sum a_n T_n -> -w sum_{n>=1} a_n U_{n-1}."""
    g = _as_callable(g)
    if not (isinstance(g, EndpointWeightedFunction) and _exponents_close(g, 0.0, 0.0)):
        raise UnsupportedExponents("fht_check needs a plain (0,0) series input")
    tc = g.smooth.to_basis(FIRST_KIND).coeffs
    g_over_w = EndpointWeightedFunction(-0.5, -0.5, ChebyshevSeries(-tc, FIRST_KIND))
    return EndpointWeightedFunction(0.5, 0.5, fht_spectral(g_over_w).smooth)


def project_P(f, cfg=DEFAULT_CONFIG):
    """P(f) = ((1/pi) int f) / w, the projection onto the kernel span{1/w}."""
    c = complex(integrate_unit(f, cfg)) / math.pi
    return EndpointWeightedFunction(
        -0.5, -0.5, ChebyshevSeries(np.array([c]), FIRST_KIND)
    )


def project_Q(f, cfg=DEFAULT_CONFIG):
    """Q(f) = ((1/pi) int f/w) * 1, the projection onto span{1}."""
    f = _as_callable(f)
    if isinstance(f, EndpointWeightedFunction):
        over_w = f.shifted_exponents(-0.5, -0.5)
    else:
        over_w = lambda x: f(x) / math.sqrt(1.0 - x * x)
    c = complex(integrate_unit(over_w, cfg)) / math.pi
    return EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(np.array([c]), FIRST_KIND))


def weighted_transform(gamma, delta, f, t, p=2.0):
    """rho(t) T(f/rho)(t) with rho = (1-x)^gamma (1+x)^delta; t scalar or array.

    Admissible window: gamma, delta in (-1/p, 1/p') for the declared p > 1.
    """
    if not p > 1.0:  # also rejects NaN
        raise ExponentOutOfRange(f"p = {p} must exceed 1")
    pprime = p / (p - 1.0)
    lo, hi = -1.0 / p, 1.0 / pprime
    if not (lo < gamma < hi and lo < delta < hi):
        raise ExponentOutOfRange(
            f"(gamma, delta)=({gamma}, {delta}) outside (-1/{p}, 1/{pprime:g})"
        )
    f = _as_callable(f)
    if isinstance(f, EndpointWeightedFunction):
        over_rho = f.shifted_exponents(-gamma, -delta)
    else:
        def over_rho(x):
            return f(x) * (1.0 - x) ** (-gamma) * (1.0 + x) ** (-delta)
    t = np.asarray(t, dtype=float)
    rho_t = (1.0 - t) ** gamma * (1.0 + t) ** delta
    return rho_t * fht_pointwise(over_rho, t)


# ---------------------------------------------------------------------------
# Exact transform of polynomials (used by the identity harness).

def fht_polynomial_parts(tc):
    """The transform of a T-basis polynomial split as R(t) + f(t) L(t)/pi.

    Here L(t) = log((1-t)/(1+t)) and R comes from exact integration of the
    difference quotient (a polynomial in x for fixed t).  Exposing the two
    parts lets callers evaluate the log factor in whatever stable form the
    context provides (e.g. 2 log tan(theta/2) near the endpoints).  Both parts
    take a scalar or an array.
    """
    mono = np.polynomial.chebyshev.cheb2poly(np.asarray(tc, dtype=complex))
    n = len(mono)
    # moments m_k = int_{-1}^1 x^k dx
    moments = np.array([0.0 if k % 2 else 2.0 / (k + 1) for k in range(n)])
    series = ChebyshevSeries(np.asarray(tc, dtype=complex), FIRST_KIND)
    # (f(x) - f(t))/(x - t) = sum_{j>k} mono_j x^k t^(j-1-k), so integrating
    # in x leaves R(t) = sum_i r_i t^i with r_i = sum_{j>i} mono_j m_(j-1-i)
    r = [complex(np.dot(mono[i + 1:], moments[: n - 1 - i])) / math.pi
         for i in range(n - 1)]
    horner = r[::-1]

    def rational(t):
        # plain Python arithmetic keeps the scalar calls from quad cheap
        acc = 0j
        for c in horner:
            acc = acc * t + c
        return acc

    return rational, series


def fht_polynomial(tc):
    """Closed-form transform of a T-basis polynomial; takes a scalar or an array."""
    rational, series = fht_polynomial_parts(tc)

    def value(t):
        if isinstance(t, np.ndarray):
            log = np.log((1.0 - t) / (1.0 + t))
        else:
            log = math.log((1.0 - t) / (1.0 + t))
        return rational(t) + series(t) * log / math.pi

    return value


def fht_of_one(t):
    """Closed form T(1)(t) = (1/pi) log((1-t)/(1+t))."""
    return math.log((1.0 - t) / (1.0 + t)) / math.pi


def transform(f, convention=TRICOMI, cfg=DEFAULT_CONFIG):
    """T(f) by the fastest exact route, with p.v. quadrature as the fallback.

    This is the one place that picks a route and the one place that applies
    the convention: exponents (0,0) use the closed form for polynomials, the
    weights w and 1/w (exponents +-1/2) the spectral rules, and everything else
    fht_pointwise, one quadrature per point.  Sampled input is interpolated
    first.  The evaluator takes a scalar or an array; for 'widom' it returns
    the plain image divided by i.
    """
    if convention not in (TRICOMI, WIDOM):
        raise ValueError(f"unknown convention {convention!r}")
    f = _as_callable(f)
    image = lambda t: fht_pointwise(f, t, cfg)
    if isinstance(f, EndpointWeightedFunction):
        if f.a == 0.0 and f.b == 0.0:
            image = fht_polynomial(f.smooth.to_basis(FIRST_KIND).coeffs)
        else:
            try:
                image = fht_spectral(f)
            except UnsupportedExponents:
                pass
    if convention == WIDOM:
        return lambda t: image(t) / 1j
    return image
