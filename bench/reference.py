"""Independent reference values for the fht benchmark.

Only numpy, scipy and mpmath are used here; nothing imports finitehilbert, so a defect
in the program cannot also hide in the value it is checked against.  The
transform convention is the program's plain one,

    T(f)(t) = (1/pi) p.v. int_{-1}^{1} f(x) / (x - t) dx,

and the i-normalized transform is T/i.
"""

from __future__ import annotations

import cmath
import math
import re

import mpmath
import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P
from scipy import special


# ---------------------------------------------------------------------------
# Basis changes, written with numpy's own Chebyshev calculus.

def u_to_t(u):
    """T coefficients of sum u_n U_n, from U_n = T'_{n+1} / (n + 1)."""
    u = np.asarray(u, dtype=complex)
    return C.chebder(np.concatenate(([0.0], u / np.arange(1, len(u) + 1))))


def t_to_u(tc):
    """U coefficients of sum c_n T_n: b_{k-1} = k d_k where sum d_k T_k = int sum c_n T_n."""
    d = C.chebint(np.asarray(tc, dtype=complex))
    return np.arange(1, len(d)) * d[1:]


def cheb_eval(coeffs, basis, x):
    """sum c_n P_n(x) with P = T or U."""
    tc = coeffs if basis == "T" else u_to_t(coeffs)
    return C.chebval(np.asarray(x, dtype=float), np.asarray(tc, dtype=complex))


# ---------------------------------------------------------------------------
# Exact transforms.

def _log_ratio(t):
    return np.log((1.0 - t) / (1.0 + t))


def _cheb_divided_difference(tc, t):
    """int_{-1}^{1} (f(x) - f(t)) / (x - t) dx, f = sum tc_n T_n, by Chebyshev division."""
    num = np.array(tc, dtype=complex)
    num[0] -= C.chebval(t, tc)
    quotient, _ = C.chebdiv(num, [-t, 1.0])
    anti = C.chebint(quotient)
    return C.chebval(1.0, anti) - C.chebval(-1.0, anti)


def _mono_divided_difference(mono, t):
    """The same integral for f = sum mono_k x^k, by power-basis division."""
    num = np.array(mono, dtype=complex)
    num[0] -= P.polyval(t, mono)
    quotient, _ = P.polydiv(num, [-t, 1.0])
    anti = P.polyint(quotient)
    return P.polyval(1.0, anti) - P.polyval(-1.0, anti)


def _on_points(integral, n, t):
    """integral(s) for each s in t, where integral is a polynomial of degree < n.

    With more than n points it is computed exactly at n Chebyshev points and
    interpolated there, so a 2000-point grid costs n divisions, not 2000.
    """
    t = np.asarray(t, dtype=float)
    if t.size <= n:
        return np.array([integral(s) for s in t.ravel()]).reshape(t.shape)
    nodes = C.chebpts1(n)
    return C.chebval(t, C.chebfit(nodes, [integral(s) for s in nodes], n - 1))


def plain_transform(tc, t):
    """T(f) for f = sum tc_n T_n with exponents (0, 0): exact rational part plus log term."""
    tc = np.atleast_1d(np.asarray(tc, dtype=complex))
    t = np.asarray(t, dtype=float)
    rational = _on_points(lambda s: _cheb_divided_difference(tc, s), len(tc), t)
    return (rational + C.chebval(t, tc) * _log_ratio(t)) / math.pi


def monomial_transform(mono, t):
    """T(f) for f = sum mono_k x^k with exponents (0, 0)."""
    mono = np.atleast_1d(np.asarray(mono, dtype=complex))
    t = np.asarray(t, dtype=float)
    rational = _on_points(lambda s: _mono_divided_difference(mono, s), len(mono), t)
    return (rational + P.polyval(t, mono) * _log_ratio(t)) / math.pi


def inverse_weight_transform(tc, t):
    """T((1/w) sum c_n T_n) = sum_{n>=1} c_n U_{n-1} = d/dt sum_{n>=1} (c_n / n) T_n."""
    tc = np.asarray(tc, dtype=complex)
    d = np.zeros(len(tc), dtype=complex)
    d[1:] = tc[1:] / np.arange(1, len(tc))
    return C.chebval(np.asarray(t, dtype=float), C.chebder(d))


def weight_transform(tc, t):
    """T(w sum c_n T_n) = -sum_{k>=1} k d_k T_k with sum d_k T_k = int sum c_n T_n.

    This is w U_n -> -T_{n+1} after writing the input in the U basis as the
    derivative of its antiderivative.
    """
    d = C.chebint(np.asarray(tc, dtype=complex))
    return C.chebval(np.asarray(t, dtype=float), -np.arange(len(d)) * d)


def jacobi_cheb(n, a, b):
    """Chebyshev T coefficients of the Jacobi polynomial P_n^(a,b)."""
    return C.chebinterpolate(lambda x: special.eval_jacobi(n, a, b, x), max(n, 1))


def jacobi_transform(n, a, b, t):
    """T(w P_n^(a,b)) for w = (1-x)^a (1+x)^b, real non-integer a.

    Erdogan, Gupta & Cook (1973):
    cot(pi a) w P_n - 2^(a+b) G(a) G(n+b+1) / (pi G(n+a+b+1)) 2F1(n+1, -n-a-b; 1-a; (1-t)/2).

    It is evaluated with 30 digits: for a near 1 the two terms cancel, and in
    double precision scipy's hyp2f1 leaves errors up to 1e-9 (n = 4, a = 0.86).
    """
    t = np.asarray(t, dtype=float)
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        # rgamma = 1/G is 0 at the poles of G, as at n = 0, a + b = -1
        scale = (2 ** (a + b) * mpmath.gamma(a) * mpmath.gamma(n + b + 1)
                 * mpmath.rgamma(n + a + b + 1) / mpmath.pi)
        cot = mpmath.cot(mpmath.pi * a)

        def value(x):
            x = mpmath.mpf(x)
            w = (1 - x) ** a * (1 + x) ** b
            return float(cot * w * mpmath.jacobi(n, a, b, x)
                         - scale * mpmath.hyp2f1(n + 1, -n - a - b, 1 - a, (1 - x) / 2))

        return np.array([value(x) for x in t.ravel()]).reshape(t.shape)


# ---------------------------------------------------------------------------
# Eigenfunctions of the i-normalized transform.

def z_of_lambda(lam):
    return cmath.log((1.0 + lam) / (1.0 - lam)) / (2j * math.pi)


def gamma_of_lambda(lam):
    """Integrability threshold 1/gamma = 1/2 + |Re z(lambda)|."""
    return 1.0 / (0.5 + abs(z_of_lambda(lam).real))


def xi(lam, t):
    """The eigenfunction (1-t)^(-1/2+z) (1+t)^(-1/2-z); (T/i) xi = lambda xi."""
    z = z_of_lambda(lam)
    t = np.asarray(t, dtype=float)
    return np.exp((-0.5 + z) * np.log1p(-t) + (-0.5 - z) * np.log1p(t))


# ---------------------------------------------------------------------------
# Fine spectra of the i-normalized transform on L^p and L^{p,r}.

def region_position(p, lam):
    """(d, tau): lambda is interior when d < tau, on the boundary when d = tau."""
    u = (1.0 + lam) / (1.0 - lam)
    return abs(cmath.phase(u)) / (2.0 * math.pi), abs(0.5 - 1.0 / p)


def fine_spectrum(kind, p, r=None):
    """(point, residual, continuous) labels of the Lebesgue and Lorentz tables."""
    if kind == "lorentz" and p != r:
        if p < 2.0:
            return (f"interior({p:g})", "empty", f"boundary({p:g})")
        if r == 1.0:
            return ("empty", f"region_minus_endpoints({p:g})", "endpoints_only")
        return ("empty", f"interior({p:g})", f"boundary({p:g})")
    if p < 2.0:
        return (f"interior({p:g})", "empty", f"boundary({p:g})")
    if p == 2.0:
        return ("empty", "empty", "closed_unit_interval")
    return ("empty", f"interior({p:g})", f"boundary({p:g})")


def classify_point(kind, p, r, lam):
    """Part of the fine spectrum holding lambda, for lambda off the boundary arcs."""
    point, residual, _ = fine_spectrum(kind, p, r)
    d, tau = region_position(p, lam)
    if d >= tau:
        return "resolvent"
    return "point" if point != "empty" else "residual"


# ---------------------------------------------------------------------------
# Airfoil equation g = T(f), closed forms on the Chebyshev basis.

def solve_high(tc):
    """Unique solution -w sum_{n>=1} c_n U_{n-1} when c_0 = 0, as (a, b, basis, coeffs)."""
    tc = np.asarray(tc, dtype=complex)
    return 0.5, 0.5, "U", -tc[1:] if len(tc) > 1 else np.zeros(1, dtype=complex)


def solve_low(tc, constant):
    """-(1/w) T(g w) + C/w = (1/w) (C + sum_{k>=1} k d_k T_k), d = int g."""
    d = C.chebint(np.asarray(tc, dtype=complex))
    out = np.arange(len(d)) * d
    out[0] = constant
    return -0.5, -0.5, "T", out


def weighted_eval(a, b, basis, coeffs, x):
    x = np.asarray(x, dtype=float)
    weight = np.exp(a * np.log1p(-x) + b * np.log1p(x))
    return weight * cheb_eval(coeffs, basis, x)


_SPEC_RE = re.compile(
    r"^(?:weighted:\{([^,]+),([^,]+),(chebT|chebU):\[(.*)\]\}|(chebT|chebU):\[(.*)\])$"
)


def parse_spec(text):
    """(a, b, basis, coeffs) of a printed series spec."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise ValueError(f"unrecognised spec {text!r}")
    if m.group(1) is not None:
        a, b, tag, body = complex(m.group(1)), complex(m.group(2)), m.group(3), m.group(4)
    else:
        a, b, tag, body = 0.0, 0.0, m.group(5), m.group(6)
    coeffs = np.array([complex(tok) for tok in body.split(",")])
    return a, b, tag[-1], coeffs


# ---------------------------------------------------------------------------
# Norm probe: sup ||T f||_p / ||f||_p over seeded random Chebyshev polynomials.

_THETA, _THETA_W = np.polynomial.legendre.leggauss(2000)
_THETA = 0.5 * math.pi * (_THETA + 1.0)
_GRID = np.cos(_THETA)
_GRID_W = np.sin(_THETA) * 0.5 * math.pi * _THETA_W


def norm_sup_ratio(p, family_size, seed, degree=10):
    """The probe's sup ratio on its Gauss grid in theta, with exact transforms.

    The family is default_rng(seed).standard_normal(degree + 1) per member, in
    the T basis, as the program documents for its seeded probes.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(family_size):
        tc = rng.standard_normal(degree + 1)
        fv = C.chebval(_GRID, tc)
        tv = plain_transform(tc, _GRID)
        num = np.sum(np.abs(tv) ** p * _GRID_W) ** (1.0 / p)
        den = np.sum(np.abs(fv) ** p * _GRID_W) ** (1.0 / p)
        best = max(best, float(num / den))
    return best


def rel_err(value, ref):
    """|value - ref| / max(1, |ref|), elementwise maximum."""
    value = np.asarray(value, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))
