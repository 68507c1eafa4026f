"""The finite Hilbert transform: closed forms, spectral rules and p.v. quadrature.

The spectral rules use the exact images of the two canonical weight classes:

    (1/w) T_n  ->  U_{n-1}        (n >= 1; the n = 0 term is annihilated)
    w U_n      ->  -T_{n+1}

Every other Jacobi weight w = (1-x)^a (1+x)^b, with real or complex exponents
off the integers, times a Chebyshev series s has the closed form

    T(w s)(t) = s(t) T(w)(t) + (1/pi) sum_k r_k T_k(t),

where T(w) is the Erdogan-Gupta-Cook hypergeometric formula and the r_k come
from the moments int w U_m (fht_jacobi).  The same recurrence's moments
int w T_k give the integral of every such w s (integrate_unit).

The principal-value integral is evaluated by singularity subtraction,

    T(f)(t) = (1/pi) [ int (f(x)-f(t))/(x-t) dx + f(t) log((1-t)/(1+t)) ],

which is a proper integral when f is Hoelder-continuous at t.  The integral is
computed after the substitution x = cos(theta), which removes square-root
endpoint singularities exactly and weakens general algebraic ones.  It is the
fallback for inputs no closed form covers and the independent route that the
identity checks, the eigen-relation and the airfoil round trip use.

Every route takes an EndpointWeightedFunction or, for quadrature, a plain
callable.  Sampled data becomes a series once, where it enters: the CLI's
csv: spec calls sampled_to_weighted.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    DegenerateGrid,
    ExponentOutOfRange,
    NoConvergence,
    NonFiniteSample,
    PointOutsideWindow,
    SingularEvaluation,
    UnsupportedExponents,
)
from .functions import DEFAULT_EPS_EDGE as EPS_EDGE
from .functions import EndpointWeightedFunction
from .series import (
    FIRST_KIND,
    SECOND_KIND,
    ChebyshevSeries,
    interpolate_chebyshev,
)

TRICOMI = "tricomi"
WIDOM = "widom"


# The adaptive quadrature's tolerance and panel budget.  quad is asked for
# QUAD_TOL/4, absolute and relative, with at most QUAD_PANELS subintervals.  A
# value v is accepted when quad's error estimate is at most
# 10 QUAD_TOL max(1, |v|) for the integral of a plain callable (integrate_unit) and
# 100 QUAD_TOL max(1, |v|) for a principal value (fht_pointwise);
# NoConvergence is raised otherwise.
QUAD_TOL = 1e-10
QUAD_PANELS = 4096

# The degree cap of sampled input, which is interpolated at this degree and
# then chopped at its rounding plateau, and the degree of the pseudo-inverses'
# re-interpolation on their weighted route.
INTERP_DEGREE = 64


def sampled_to_weighted(f):
    """A sampled function as a Chebyshev series (exponents (0,0)).

    The samples' cubic spline is interpolated at degree INTERP_DEGREE, and the
    series is chopped where its coefficients reach rounding level
    (ChebyshevSeries.chopped); a spline that does not get there by the cap
    keeps all INTERP_DEGREE + 1 coefficients.
    """
    from scipy.interpolate import CubicSpline

    if len(f) < 2:
        raise DegenerateGrid("need at least 2 samples to interpolate")
    # Samples near the float limit can overflow the spline's knot slopes, its
    # coefficients or its values: each is reported as NonFiniteSample, without
    # numpy's warnings.
    with np.errstate(all="ignore"):
        try:
            spline = CubicSpline(f.points, f.values, extrapolate=True)
        except ValueError as exc:
            # SampledFunction holds two or more finite samples on a finite,
            # strictly increasing grid, so the one input CubicSpline can still
            # reject is the knot slopes it computed, once they overflow.
            raise NonFiniteSample("the spline's slopes overflow") from exc
        series = interpolate_chebyshev(spline, INTERP_DEGREE).chopped()
    return EndpointWeightedFunction(0.0, 0.0, series)


def _runs_real(f):
    """Whether quadrature may run f in floats; UnsupportedExponents if f is not callable."""
    if not callable(f):
        raise UnsupportedExponents(f"quadrature needs a callable, not {type(f).__name__}")
    return bool(getattr(f, "real_valued", False))


def _quad(g, a, b):
    """Adaptive quadrature at QUAD_TOL with QUAD_PANELS panels; returns (value, err).

    full_output makes quad return QUADPACK's message instead of warning.
    scipy.integrate loads on the first call, not at import, and quad is
    looked up on every call, so a wrapper patched onto the module is seen.
    """
    from scipy.integrate import quad

    out = quad(
        g, a, b,
        epsabs=0.25 * QUAD_TOL,
        epsrel=0.25 * QUAD_TOL,
        limit=QUAD_PANELS,
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


def _quad_complex(g, a, b, real_only=False):
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

        re, err_re = _quad(real_of_real, a, b)
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

    re, err_re = _quad(real_part, a, b)
    im, err_im = _quad(imag_part, a, b)
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
    """The integrand of the p.v. quadrature at t, or (plain f, t None) of integrate_unit.

    After x = cos(theta) the first is (f(x) - f(t)) sin(theta) / (x - t), which
    is f'(t) sin(theta) where |x - t| < 1e-13 (only there is f'(t) estimated),
    and the second f(x) sin(theta).  For endpoint-weighted f
    the weight times sin(theta) is rewritten as
    2^(a+b+1) sin(theta/2)^(2a+1) cos(theta/2)^(2b+1), which stays finite for
    all integrable exponents, and the weight, the Clenshaw sum of the series
    and the subtraction run in one flat closure: quad calls it at every node,
    so everything fixed by f and t is computed here.
    """
    if not isinstance(f, EndpointWeightedFunction):
        # a real f runs in floats, which equals the real part of the complex
        # evaluation
        real = _runs_real(f)
        if real:
            ft = ft.real

        def plain(theta):
            x = math.cos(theta)
            s = math.sin(theta)
            if t is None:
                return (f(x) if real else complex(f(x))) * s
            dx = x - t
            if -1e-13 < dx < 1e-13:
                return _derivative(f, t) * s
            return ((f(x) if real else complex(f(x))) * s - ft * s) / dx

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
        # numpy's complex division by a real dx multiplies by 1.0 / dx
        return (value - ft * sin(theta)) * (1.0 / dx)

    return weighted


def integrate_unit(f):
    """int_{-1}^1 f(x) dx.

    For endpoint-weighted f this is sum_k a_k M_k, from the T coefficients a_k
    of its series and the moments M_k of its weight (_moments), for every
    Re a, Re b > -1; a sum that overflows raises NoConvergence.  A plain
    callable takes adaptive quadrature after x = cos(theta).
    """
    if isinstance(f, EndpointWeightedFunction):
        from scipy import special

        tc = f.smooth.to_basis(FIRST_KIND).coeffs
        a, b = np.array([_plain(f.a), _plain(f.b)])  # numpy scalars overflow to inf
        with np.errstate(all="ignore"):
            val = complex(np.dot(tc, _moments(a, b, len(tc), special)[0]))
        if not cmath.isfinite(val):
            raise NoConvergence("the moment sum of the integral is not finite")
        return val.real if f.real_valued else val
    real_only = _runs_real(f)
    val, err = _quad_complex(_theta_integrand(f), 0.0, math.pi, real_only=real_only)
    if err > QUAD_TOL * max(1.0, abs(val)) * 10.0:
        raise NoConvergence(f"integral error estimate {err:.2e} too large")
    return val.real if real_only else val


def _derivative(f, t):
    """Central-difference f'(t), with a step that stays inside (-1, 1)."""
    h = min(1e-6, 0.25 * (1.0 - abs(t)))
    return (complex(f(t + h)) - complex(f(t - h))) / (2.0 * h)


def fht_pointwise(f, t):
    """T(f)(t) = (1/pi) p.v. int f(x)/(x-t) dx by singularity subtraction.

    t is a scalar or an array in [-1+EPS_EDGE, 1-EPS_EDGE] (PointOutsideWindow
    otherwise); each point gets its own adaptive quadrature.  A scalar t
    gives a complex scalar, an array t an array of its shape.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((-1.0 + EPS_EDGE <= ts) & (ts <= 1.0 - EPS_EDGE)):
        raise PointOutsideWindow(
            f"t must lie in [-1+eps_edge, 1-eps_edge] (eps_edge = {EPS_EDGE})")
    real_only = _runs_real(f)
    values = [_pv_at(f, s, real_only) for s in ts.ravel().tolist()]
    if ts.ndim == 0:
        return values[0]
    return np.array(values, dtype=complex).reshape(ts.shape)


def _pv_at(f, t, real_only):
    """The p.v. quadrature of fht_pointwise at one point t."""
    ft = complex(f(t))
    if not np.isfinite(ft):
        raise SingularEvaluation(f"f is not finite at t={t}")
    phi = math.acos(t)
    g = _theta_integrand(f, t, ft)
    v1, e1 = _quad_complex(g, 0.0, phi, real_only=real_only)
    v2, e2 = _quad_complex(g, phi, math.pi, real_only=real_only)
    log_term = ft * math.log((1.0 - t) / (1.0 + t))
    result = (v1 + v2 + log_term) / math.pi
    err = (e1 + e2) / math.pi
    if err > QUAD_TOL * max(1.0, abs(result)) * 100.0:
        raise NoConvergence(f"p.v. quadrature error estimate {err:.2e} too large")
    return complex(result.real) if real_only else result


def fht_spectral(f):
    """Exact transform of the two canonical weight classes.

    (1/w) sum a_n T_n  ->  sum_{n>=1} a_n U_{n-1}
    w sum b_n U_n      ->  -sum b_n T_{n+1}
    """
    if not isinstance(f, EndpointWeightedFunction):
        raise UnsupportedExponents("spectral rule needs an endpoint-weighted function")
    if f.a == -0.5 and f.b == -0.5:
        tc = f.smooth.to_basis(FIRST_KIND).coeffs
        out = np.zeros(max(len(tc) - 1, 1), dtype=complex)
        out[: len(tc) - 1] = tc[1:]
        return EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(out, SECOND_KIND))
    if f.a == 0.5 and f.b == 0.5:
        uc = f.smooth.to_basis(SECOND_KIND).coeffs
        out = np.zeros(len(uc) + 1, dtype=complex)
        out[1:] = -uc
        return EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(out, FIRST_KIND))
    raise UnsupportedExponents(
        f"no closed form for exponents ({f.a}, {f.b}); use fht_pointwise"
    )


# fht_jacobi takes exponents at least JACOBI_BAND away from every integer, with
# |a| + |b| <= JACOBI_MAX_SIZE.  Near an integer cot(pi a) and G(a) have poles,
# and two terms of about 1/distance cancel; large exponents make the 2F1 terms
# cancel.  Against 40-digit mpmath the closed form errs by at most 2e-11 at
# either edge, within the p.v. quadrature's 1e-10 tolerance.
JACOBI_BAND = 1e-3
JACOBI_MAX_SIZE = 20.0


def _plain(c):
    """c as a float when it is real, so real exponents take real arithmetic."""
    c = complex(c)
    return c.real if c.imag == 0.0 else c


def _moments(a, b, n, special):
    """M_k = int w T_k and mu_k = int w U_k, w = (1-x)^a (1+x)^b, for k < n.

    The T moments M_k follow Piessens & Branders (1973),
    (a+b+k+2) M_{k+1} = -2(a-b) M_k - (a+b-k+2) M_{k-1}, from
    M_0 = 2^(a+b+1) G(a+1) G(b+1) / G(a+b+2) and M_1 = M_0 (b-a)/(a+b+2);
    then U_m = 2 (T_m + T_{m-2} + ...), with T_0 counted once.  Where that
    product overflows, as at (100, 100), M_0 is the exponential of its
    logarithm, from loggamma.
    """
    m0 = (2.0 ** (a + b + 1) * special.gamma(a + 1) * special.gamma(b + 1)
          * special.rgamma(a + b + 2))
    if not np.isfinite(m0):
        m0 = np.exp((a + b + 1) * math.log(2.0) + special.loggamma(a + 1)
                    + special.loggamma(b + 1) - special.loggamma(a + b + 2))
    m = [m0, m0 * (b - a) / (a + b + 2)]
    for k in range(1, n - 1):
        m.append((-2.0 * (a - b) * m[k] - (a + b - k + 2) * m[k - 1]) / (a + b + k + 2))
    mu = [m[0], 2.0 * m[1]]
    for k in range(2, n):
        mu.append(mu[k - 2] + 2.0 * m[k])
    return np.array(m[:n]), np.array(mu[:n])


def _hypergeometric_part(a, b, y, special):
    """2^(a+b) G(a) G(b+1) / (pi G(a+b+1)) 2F1(1, -a-b; 1-a; y/2) on an array 0 <= y <= 1.

    The 2F1 is its power series sum_k d_k y^k, d_k = (-a-b)_k / ((1-a)_k 2^k).
    Past k = 4(|a+b| + |1-a|) each ratio |d_{k+1} / d_k| is below 5/6, so 220
    more terms take d_k below 1e-17 of the largest term; the sum stops at the
    first such term past k = |a+b| + 2|1-a|, from where the terms only shrink.
    1/G(a+b+1) comes from rgamma, which is exactly 0 at the poles
    a+b+1 = 0, -1, ...: every xi_lambda has a+b = -1.
    """
    p, q = -a - b, 1.0 - a
    k = np.arange(int(4.0 * (abs(p) + abs(q))) + 220)
    d = np.cumprod(np.concatenate(([1.0], (p + k) / (2.0 * (q + k)))))
    size = np.abs(d)
    ends = (size <= 1e-17 * size.max()) & (np.arange(len(d)) > abs(p) + 2.0 * abs(q))
    d = d[: np.argmax(ends) + 1]
    scale = (2.0 ** (a + b) * special.gamma(a) * special.gamma(b + 1)
             * special.rgamma(a + b + 1) / math.pi)
    return scale * (np.power.outer(y, np.arange(len(d))) * d).sum(axis=-1)


def fht_jacobi(f):
    """Closed-form transform of (1-x)^a (1+x)^b s(x), for a Chebyshev series s.

    T(w s)(t) = s(t) T(w)(t) + (1/pi) sum_k r_k T_k(t), with s = sum a_n T_n,
    r_k = c_k sum_{n>k} a_n mu_{n-1-k} (c_0 = 1, c_k = 2 otherwise) and
    mu_m = int w U_m, from the divided difference
    (T_n(x) - T_n(t))/(x - t) = sum_{k<n} c_k T_k(t) U_{n-1-k}(x).
    For t >= 0 (Erdogan, Gupta & Cook 1973)

        T(w)(t) = cot(pi a) w(t) - 2^(a+b) G(a) G(b+1) / (pi G(a+b+1)) 2F1(1, -a-b; 1-a; (1-t)/2),

    and for t < 0, T(w)(t) = -T(w_{b,a})(-t), so the 2F1 argument stays in
    [0, 1/2].  Exponents may be complex; those within JACOBI_BAND of an
    integer, or of size |a| + |b| > JACOBI_MAX_SIZE, raise UnsupportedExponents.
    The evaluator takes a scalar or an array t, like fht_pointwise.
    """
    if not isinstance(f, EndpointWeightedFunction):
        raise UnsupportedExponents("the Jacobi rule needs an endpoint-weighted function")
    a, b = _plain(f.a), _plain(f.b)
    if (abs(a) + abs(b) > JACOBI_MAX_SIZE
            or min(abs(c - round(c.real)) for c in (a, b)) < JACOBI_BAND):
        raise UnsupportedExponents(
            f"no closed form for exponents ({f.a}, {f.b}); use fht_pointwise")
    from scipy import special

    tc = f.smooth.to_basis(FIRST_KIND).coeffs
    n = len(tc) - 1
    r = np.zeros(max(n, 1), dtype=complex)
    if n:
        r[:] = np.convolve(tc[:0:-1], _moments(a, b, n, special)[1])[n - 1::-1]
        r[1:] *= 2.0
    remainder = ChebyshevSeries(r / math.pi, FIRST_KIND)
    cot_a, cot_b = 1.0 / np.tan(math.pi * a), 1.0 / np.tan(math.pi * b)

    def image(t):
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        right = flat >= 0.0
        image_of_w = np.where(right, cot_a, -cot_b) * f.weight(flat)
        y = 1.0 - np.abs(flat)
        if right.any():
            image_of_w[right] -= _hypergeometric_part(a, b, y[right], special)
        if not right.all():
            image_of_w[~right] += _hypergeometric_part(b, a, y[~right], special)
        values = f.smooth(flat) * image_of_w + remainder(flat)
        if f.real_valued:
            values = values.real.astype(complex)
        if ts.ndim == 0:
            return complex(values[0])
        return values.reshape(ts.shape)

    return image


def _pseudo_inverse(g, s):
    """-w^(-2s) T(g w^(2s)): fht_hat at s = 1/2, fht_check at s = -1/2.

    For a plain series g (exponents (0,0)) the spectral rule is exact: g is
    converted to U (s = 1/2) or T (s = -1/2) and negated there, so zero
    coefficients keep their sign.  Any other series-backed g goes through
    transform of g w^(2s), re-interpolated at INTERP_DEGREE.
    """
    if not isinstance(g, EndpointWeightedFunction):
        raise UnsupportedExponents("the pseudo-inverse needs a series-backed function")
    if g.a == 0.0 and g.b == 0.0:
        basis = SECOND_KIND if s > 0 else FIRST_KIND
        inner = ChebyshevSeries(-g.smooth.to_basis(basis).coeffs, basis)
        return EndpointWeightedFunction(
            -s, -s, fht_spectral(EndpointWeightedFunction(s, s, inner)).smooth)
    image = interpolate_chebyshev(transform(g.shifted_exponents(s, s)), INTERP_DEGREE)
    return EndpointWeightedFunction(-s, -s, image * (-1.0))


def fht_hat(g):
    """The low regime's -(1/w) T(g w) of series-backed g; plain U_n -> (1/w) T_{n+1}."""
    return _pseudo_inverse(g, 0.5)


def fht_check(g):
    """The high regime's -w T(g/w) of series-backed g; plain T_n -> -w U_{n-1}, T_0 -> 0."""
    return _pseudo_inverse(g, -0.5)


def project_P(f):
    """P(f) = ((1/pi) int f) / w, the projection onto the kernel span{1/w}."""
    c = complex(integrate_unit(f)) / math.pi
    return EndpointWeightedFunction(-0.5, -0.5, ChebyshevSeries(np.array([c]), FIRST_KIND))


def project_Q(f):
    """Q(f) = ((1/pi) int f/w) * 1, the projection onto span{1}."""
    if not isinstance(f, EndpointWeightedFunction):
        raise UnsupportedExponents("project_Q needs a series-backed function")
    c = complex(integrate_unit(f.shifted_exponents(-0.5, -0.5))) / math.pi
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
    if not isinstance(f, EndpointWeightedFunction):
        raise UnsupportedExponents("weighted_transform needs a series-backed function")
    t = np.asarray(t, dtype=float)
    rho_t = (1.0 - t) ** gamma * (1.0 + t) ** delta
    return rho_t * transform(f.shifted_exponents(-gamma, -delta))(t)


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


def transform(f, convention=TRICOMI):
    """T(f) by the fastest exact route, with p.v. quadrature as the fallback.

    This is the one place that picks a route and the one place that applies
    the convention: exponents exactly (0,0) use the closed form for
    polynomials, exactly (+-1/2, +-1/2) (the weights w and 1/w) the spectral
    rules, other Jacobi weights the closed form of fht_jacobi, and everything
    else (exponents near an integer or of large size, plain callables)
    fht_pointwise, one quadrature per point.  The evaluator takes a scalar or
    an array; for 'widom' it returns the plain image divided by i.
    """
    if convention not in (TRICOMI, WIDOM):
        raise ValueError(f"unknown convention {convention!r}")
    image = lambda t: fht_pointwise(f, t)
    if isinstance(f, EndpointWeightedFunction):
        if f.a == 0.0 and f.b == 0.0:
            image = fht_polynomial(f.smooth.to_basis(FIRST_KIND).coeffs)
        else:
            for rule in (fht_spectral, fht_jacobi):
                try:
                    image = rule(f)
                    break
                except UnsupportedExponents:
                    pass
    if convention == WIDOM:
        return lambda t: image(t) / 1j
    return image
