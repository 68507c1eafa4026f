import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitehilbert import engine
from finitehilbert.engine import (
    EPS_EDGE,
    TRICOMI,
    WIDOM,
    _quad,
    _derivative,
    _quad_complex,
    _theta_integrand,
    fht_hat,
    fht_check,
    fht_jacobi,
    fht_of_one,
    fht_pointwise,
    fht_polynomial,
    fht_spectral,
    integrate_unit,
    project_P,
    project_Q,
    sampled_to_weighted,
    transform,
    weighted_transform,
)
from finitehilbert.errors import (
    ExponentOutOfRange,
    NoConvergence,
    PointOutsideWindow,
    UnsupportedExponents,
)
from finitehilbert.functions import (
    DEFAULT_EPS_EDGE,
    EndpointWeightedFunction,
    SampledFunction,
    constant_series,
    inverse_sqrt_weight,
    one,
    sample,
    sqrt_weight,
)
from finitehilbert.series import FIRST_KIND, SECOND_KIND, ChebyshevSeries, interpolate_chebyshev
from finitehilbert.spectrum import xi_function

GRID = np.linspace(-0.9, 0.9, 13)


def x_over_w():
    return EndpointWeightedFunction(
        -0.5, -0.5, ChebyshevSeries([0.0, 1.0], FIRST_KIND)
    )


def test_integrate_unit_closed_forms():
    assert integrate_unit(one()) == pytest.approx(2.0, abs=1e-10)
    assert integrate_unit(sqrt_weight()) == pytest.approx(math.pi / 2, abs=1e-10)
    assert integrate_unit(inverse_sqrt_weight()) == pytest.approx(math.pi, abs=1e-10)


def test_transform_of_one_matches_log_formula():
    for t in GRID:
        lhs = fht_pointwise(one(), float(t))
        assert lhs == pytest.approx(fht_of_one(float(t)), abs=1e-10)


def test_canonical_fixtures_pointwise():
    for t in GRID:
        t = float(t)
        assert abs(fht_pointwise(inverse_sqrt_weight(), t)) < 1e-10
        assert fht_pointwise(sqrt_weight(), t) == pytest.approx(-t, abs=1e-10)
        assert fht_pointwise(x_over_w(), t) == pytest.approx(1.0, abs=1e-10)


def test_spectral_rules_match_fixtures():
    # (1/w) T_0 -> 0, (1/w) T_1 -> U_0 = 1, w U_0 -> -T_1
    img = fht_spectral(inverse_sqrt_weight())
    assert np.allclose(img.smooth.coeffs, [0.0])
    img = fht_spectral(x_over_w())
    assert img.smooth.basis == SECOND_KIND
    assert np.allclose(img.smooth.coeffs, [1.0])
    img = fht_spectral(EndpointWeightedFunction(
        0.5, 0.5, ChebyshevSeries([1.0], SECOND_KIND)))
    assert img.smooth.basis == FIRST_KIND
    assert np.allclose(img.smooth.coeffs, [0.0, -1.0])


def test_spectral_rejects_other_exponents():
    with pytest.raises(UnsupportedExponents):
        fht_spectral(one())


def test_spectral_rules_take_their_exponents_exactly():
    # one meaning of "plain" and of w, 1/w: exact equality, as in transform
    series = ChebyshevSeries([1.0, 2.0], FIRST_KIND)
    for a in (-0.5 + 1e-13, 0.5 - 1e-13):
        with pytest.raises(UnsupportedExponents):
            fht_spectral(EndpointWeightedFunction(a, a, series))
    # 1e-13 off (0,0), fht_hat and fht_check re-interpolate T(g w) and T(g/w)
    # instead of the U and T shifts
    near = EndpointWeightedFunction(1e-13, 0.0, series)
    assert fht_hat(near).smooth.degree == engine.INTERP_DEGREE
    assert fht_check(near).smooth.degree == engine.INTERP_DEGREE


def test_series_routes_reject_plain_callables_and_samples():
    samples = sample(np.exp, 40)
    for route in (fht_hat, fht_check, project_Q,
                  lambda f: weighted_transform(0.1, 0.1, f, 0.0)):
        for f in (math.exp, samples):
            with pytest.raises(UnsupportedExponents):
                route(f)


def test_quadrature_routes_reject_samples_by_name():
    samples = sample(np.exp, 20)
    for route in (lambda f: transform(f)(0.1), lambda f: fht_pointwise(f, 0.1), integrate_unit):
        with pytest.raises(UnsupportedExponents, match="quadrature needs a callable"):
            route(samples)


_MOMENT_EXPONENTS = [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5), (0.0, 0.0), (2.0, 0.0),
                     (0.3, -0.4), (-0.5 + 0.2j, -0.5 - 0.2j), (-0.5 - 0.2j, -0.5 + 0.2j),
                     (7.5, 6.2), (15.0, 8.0), (30.0, 30.0)]


def _mpmath_moments(a, b, n):
    """M_k = int (1-x)^a (1+x)^b T_k for k < n, by the moment recurrence at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        a, b = mpmath.mpmathify(a), mpmath.mpmathify(b)
        m = [2 ** (a + b + 1) * mpmath.beta(a + 1, b + 1)]
        m.append(m[0] * (b - a) / (a + b + 2))
        for k in range(1, n - 1):
            m.append((-2 * (a - b) * m[k] - (a + b - k + 2) * m[k - 1]) / (a + b + k + 2))
        return [complex(mk) for mk in m[:n]], m


@pytest.mark.parametrize("degree", [16, 64])
@pytest.mark.parametrize("a, b", _MOMENT_EXPONENTS)
def test_integrate_unit_matches_mpmath_moments(a, b, degree):
    import mpmath

    coeffs = [1.0 / (k + 1) for k in range(degree + 1)]
    f = EndpointWeightedFunction(a, b, ChebyshevSeries(coeffs, FIRST_KIND))
    _, moments = _mpmath_moments(a, b, degree + 1)
    with mpmath.workdps(40):
        exact = complex(mpmath.fsum(c * m for c, m in zip(coeffs, moments)))
    value = integrate_unit(f)
    assert isinstance(value, float if f.real_valued else complex)
    assert abs(value - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize("a, b", [(-0.9, 0.7), (-0.99, -0.99)])
def test_integrate_unit_of_the_weight_is_the_beta_integral(a, b):
    # M_0 = 2^(a+b+1) B(a+1, b+1) within an ulp, with exponents near -1
    exact = _mpmath_moments(a, b, 1)[0][0]
    value = integrate_unit(EndpointWeightedFunction(a, b, ChebyshevSeries([1.0], FIRST_KIND)))
    assert abs(value - exact) <= math.ulp(abs(exact))


@pytest.mark.parametrize("a, b", [(100.0, 100.0), (170.0, 0.0), (150.0 + 3.0j, 120.0 - 2.0j)])
def test_integrate_unit_of_large_exponents_matches_mpmath(a, b):
    # the Gamma product of M_0 overflows here, though the integral is finite;
    # M_0 then comes from loggamma, whose exp carries the rounding of a
    # logarithm of several hundred as relative error
    coeffs = [1.0 / (k + 1) for k in range(17)]
    _, moments = _mpmath_moments(a, b, len(coeffs))
    import mpmath

    with mpmath.workdps(40):
        exact = complex(mpmath.fsum(c * m for c, m in zip(coeffs, moments)))
    value = integrate_unit(EndpointWeightedFunction(a, b, ChebyshevSeries(coeffs, FIRST_KIND)))
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_widom_convention_divides_by_i():
    t = 0.3
    assert complex(transform(sqrt_weight(), WIDOM)(t)) == pytest.approx(
        -t / 1j, abs=1e-10
    )
    # on the Jacobi and the quadrature route the widom image is the plain one
    # divided by i
    ts = np.linspace(-0.8, 0.8, 5)
    func = EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, 2.0], FIRST_KIND))
    assert np.array_equal(transform(func, WIDOM)(ts), fht_jacobi(func)(ts) / 1j)
    func = EndpointWeightedFunction(0.0, -0.4, ChebyshevSeries([1.0, 2.0], FIRST_KIND))
    assert np.array_equal(transform(func, WIDOM)(ts), fht_pointwise(func, ts) / 1j)


@pytest.mark.parametrize("func", [one(), sqrt_weight(), x_over_w(), sample(np.exp, 40),
                                  EndpointWeightedFunction(0.0, -0.4, constant_series(1.0)),
                                  EndpointWeightedFunction(0.3, -0.4, constant_series(1.0))],
                         ids=["closed_form", "spectral_w", "spectral_1/w", "sampled",
                              "quadrature", "jacobi"])
def test_transform_rejects_unknown_convention(func):
    with pytest.raises(ValueError, match="unknown convention"):
        transform(func, "bogus")


def test_polynomial_closed_form_vs_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(5):
        tc = rng.standard_normal(7)
        func = EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(tc, FIRST_KIND))
        poly = fht_polynomial(tc)
        for t in (-0.7, -0.2, 0.4, 0.85):
            assert complex(poly(t)) == pytest.approx(
                complex(fht_pointwise(func, t)), abs=1e-9
            )


def _synthetic_division_transform(tc, t):
    """Reference: the closed form as computed before its rational part was
    precomputed, by synthetic division of (f(x) - f(t))/(x - t) at each t."""
    mono = np.polynomial.chebyshev.cheb2poly(np.asarray(tc, dtype=complex))
    n = len(mono)
    moments = np.array([0.0 if k % 2 else 2.0 / (k + 1) for k in range(n)])
    q = np.zeros(max(n - 1, 1), dtype=complex)
    acc = 0.0 + 0.0j
    for k in range(n - 1, 0, -1):
        acc = mono[k] + t * acc
        q[k - 1] = acc
    series = ChebyshevSeries(np.asarray(tc, dtype=complex), FIRST_KIND)
    log_part = complex(series(t)) * math.log((1.0 - t) / (1.0 + t)) / math.pi
    return np.dot(q, moments[: len(q)]) / math.pi + log_part


def test_polynomial_closed_form_matches_synthetic_division():
    # Both evaluate the same monomial sums in a different order, so they agree
    # to rounding where the monomial form is well conditioned: inputs given as
    # monomials, as poly:[...] specs are.  Chebyshev-form inputs lose digits in
    # the conversion to monomials on both routes alike.
    rng = np.random.default_rng(5)
    for degree in range(1, 25):
        mono = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        tc = np.polynomial.chebyshev.poly2cheb(mono)
        poly = fht_polynomial(tc)
        for t in np.linspace(-0.95, 0.95, 9):
            ref = _synthetic_division_transform(tc, float(t))
            assert abs(poly(float(t)) - ref) <= 1e-12 * max(1.0, abs(ref))


def _dispatch_cases():
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    mono_tc = np.polynomial.chebyshev.poly2cheb(coeffs)
    xs = np.linspace(-0.99, 0.99, 81)
    cases = {
        "poly": EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(mono_tc, FIRST_KIND)),
        "chebT": EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(coeffs, FIRST_KIND)),
        "chebU": EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(coeffs, SECOND_KIND)),
        "jacobi": EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries(coeffs.real, FIRST_KIND)),
        # sampled data enters as the series the csv: spec makes of it
        "sampled": sampled_to_weighted(SampledFunction(xs, xs**3 - 0.5)),
        # a scalar-only callable, the one quadrature route here
        "callable": lambda x: math.exp(x) * math.sqrt(1.0 - x * x),
        "complex_exponents": EndpointWeightedFunction(
            -0.3 + 0.2j, -0.7 - 0.2j, ChebyshevSeries(coeffs[:2], FIRST_KIND)),
    }
    for weight, a in (("w", 0.5), ("1/w", -0.5)):
        for basis in (FIRST_KIND, SECOND_KIND):
            cases[f"{weight}*cheb{basis}"] = EndpointWeightedFunction(
                a, a, ChebyshevSeries(coeffs, basis))
    return cases


@pytest.mark.parametrize("convention", [TRICOMI, WIDOM])
@pytest.mark.parametrize("name", sorted(_dispatch_cases()))
def test_transform_dispatcher_routes(name, convention):
    func = _dispatch_cases()[name]
    image = transform(func, convention)
    scale = 1j if convention == WIDOM else 1.0
    ts = np.linspace(-0.9, 0.9, 7)
    values = np.asarray(image(ts), dtype=complex)
    pointwise = fht_pointwise(func, ts)
    assert values.shape == pointwise.shape == ts.shape
    for t, v, p in zip(ts, values, pointwise):
        scalar = complex(image(float(t)))
        assert abs(v - scalar) <= 1e-14 * max(1.0, abs(scalar))
        plain = fht_pointwise(func, float(t))
        assert isinstance(plain, complex)
        # one array call runs the same quadrature as the scalar calls
        assert p == plain
        ref = plain / scale
        assert abs(v - ref) <= 1e-8 * max(1.0, abs(ref))


def test_hat_spectral_shift():
    # T_hat(U_n) = (1/w) T_{n+1}
    g = EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries([0.0, 1.0], SECOND_KIND))
    h = fht_hat(g)
    assert h.a == -0.5 and h.b == -0.5
    assert np.allclose(h.smooth.coeffs, [0.0, 0.0, 1.0])


def test_check_spectral_shift():
    # T_check(T_n) = -w U_{n-1} ... sign folded: -(T_n -> U_{n-1}) with w weight
    g = EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries([0.0, 0.0, 1.0], FIRST_KIND))
    h = fht_check(g)
    assert h.a == 0.5 and h.b == 0.5
    assert np.allclose(h.smooth.coeffs, [0.0, -1.0])


# The two bodies that fht_hat and fht_check had before they became one rule,
# kept verbatim: the rule must give their outputs bit for bit.
def _fht_hat_reference(g):
    if not isinstance(g, EndpointWeightedFunction):
        raise UnsupportedExponents("fht_hat needs a series-backed function")
    if g.a == 0.0 and g.b == 0.0:
        # negated after the U conversion, so zero coefficients keep their sign
        uc = g.smooth.to_basis(SECOND_KIND).coeffs
        gw = EndpointWeightedFunction(0.5, 0.5, ChebyshevSeries(-uc, SECOND_KIND))
        return EndpointWeightedFunction(-0.5, -0.5, fht_spectral(gw).smooth)
    gw = g.shifted_exponents(0.5, 0.5)
    tgw = interpolate_chebyshev(transform(gw), engine.INTERP_DEGREE)
    return EndpointWeightedFunction(-0.5, -0.5, tgw * (-1.0))


def _fht_check_reference(g):
    if not (isinstance(g, EndpointWeightedFunction) and g.a == 0.0 and g.b == 0.0):
        raise UnsupportedExponents("fht_check needs a plain (0,0) series input")
    tc = g.smooth.to_basis(FIRST_KIND).coeffs
    g_over_w = EndpointWeightedFunction(-0.5, -0.5, ChebyshevSeries(-tc, FIRST_KIND))
    return EndpointWeightedFunction(0.5, 0.5, fht_spectral(g_over_w).smooth)


def _same_bits(f, g):
    """Equal exponents, basis, dtype and coefficient bytes (signed zeros included)."""
    return ((complex(f.a), complex(f.b), f.smooth.basis, f.smooth.coeffs.dtype)
            == (complex(g.a), complex(g.b), g.smooth.basis, g.smooth.coeffs.dtype)
            and f.smooth.coeffs.tobytes() == g.smooth.coeffs.tobytes())


def _plain_series_cases():
    rng = np.random.default_rng(29)
    long = rng.standard_normal(61)
    for coeffs in ([0.5], [-0.0], long, long + 1j * rng.standard_normal(61),
                   [1.0 + 2.0j], [0.0, 1.0, 0.0, 1.0], [1.0, -0.0, 0.25, 0.0]):
        for basis in (FIRST_KIND, SECOND_KIND):
            yield ChebyshevSeries(coeffs, basis)


@pytest.mark.parametrize("series", list(_plain_series_cases()))
def test_pseudo_inverses_of_plain_series_keep_their_bits(series):
    # degree 0 and 60, real and complex, T and U; T_1 + T_3 is U_3 / 2, its
    # U_1 coefficient cancels exactly, and the signs of the zeros show whether
    # g is negated before or after the spectral rule
    g = EndpointWeightedFunction(0.0, 0.0, series)
    assert _same_bits(fht_hat(g), _fht_hat_reference(g))
    assert _same_bits(fht_check(g), _fht_check_reference(g))


@pytest.mark.parametrize("a, b", [(0.3, -0.4), (4.5, 3.5), (1.0, 1.0)])
@pytest.mark.parametrize("coeffs", [[1.0, 2.0], [0.5, -0.25j, 1.0]])
def test_low_regime_pseudo_inverse_of_weighted_g_keeps_its_bits(a, b, coeffs):
    # transform takes the Jacobi closed form at (0.3, -0.4) and (1, 1) and
    # quadrature at (4.5, 3.5), where g w has integer exponents
    g = EndpointWeightedFunction(a, b, ChebyshevSeries(coeffs, FIRST_KIND))
    assert _same_bits(fht_hat(g), _fht_hat_reference(g))


def test_projections():
    # P(1/w) = 1/w; Q(1) = 1
    p = project_P(inverse_sqrt_weight())
    assert complex(p.smooth.coeffs[0]) == pytest.approx(1.0, abs=1e-10)
    q = project_Q(one())
    assert complex(q.smooth.coeffs[0]) == pytest.approx(1.0, abs=1e-10)
    # Q annihilates odd functions
    q = project_Q(x_over_w().shifted_exponents(0.5, 0.5))
    assert abs(complex(q.smooth.coeffs[0])) < 1e-10


def test_weighted_transform_window():
    # outside the window, and p <= 1 where the window is empty
    for gamma, delta, p in ((0.9, 0.0, 2.0), (0.1, 0.1, 1.0), (0.1, 0.1, 0.5)):
        with pytest.raises(ExponentOutOfRange):
            weighted_transform(gamma, delta, one(), 0.0, p=p)
    # gamma = delta = 0 reduces to the plain transform
    v = weighted_transform(0.0, 0.0, sqrt_weight(), 0.25, p=2.0)
    assert v == pytest.approx(-0.25, abs=1e-9)
    # the T_hat regime: gamma = delta = -1/2 at p = 1.5
    v = weighted_transform(-0.5, -0.5, sqrt_weight(), 0.25, p=1.5)
    assert np.isfinite(v)
    # an array t gives exactly the values of the scalar calls
    ts = np.linspace(-0.9, 0.9, 5)
    values = weighted_transform(0.2, -0.1, sqrt_weight(), ts, p=2.0)
    assert values.shape == ts.shape
    assert list(values) == [weighted_transform(0.2, -0.1, sqrt_weight(), float(t), p=2.0)
                            for t in ts]


@pytest.mark.parametrize("t", [
    -1.0, 1.0, -1.0 + 0.5 * EPS_EDGE, 1.0 - 0.5 * EPS_EDGE, 1.5, [0.0, 1.0], math.nan,
])
def test_pointwise_rejects_points_outside_the_window(t):
    with pytest.raises(PointOutsideWindow, match=r"t must lie in \[-1\+eps_edge"):
        fht_pointwise(one(), t)


def test_pointwise_accepts_the_window_edges():
    # one window for --points and fht_pointwise and for sampled and CSV grids
    assert EPS_EDGE == DEFAULT_EPS_EDGE == 1e-6
    ts = np.array([-1.0 + EPS_EDGE, 1.0 - EPS_EDGE])
    values = fht_pointwise(sqrt_weight(), ts)
    assert np.allclose(values, -ts, atol=1e-8)


def test_linearity_of_pointwise_transform():
    f, g = sqrt_weight(), x_over_w()
    t = 0.37
    lhs = fht_pointwise(
        lambda x: 2.0 * complex(f(x)) + 3.0 * complex(g(x)),
        t,
    )
    rhs = 2.0 * fht_pointwise(f, t) + 3.0 * fht_pointwise(g, t)
    assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-7)


def _eval_times_sin_reference(f, theta):
    """Reference: the theta-integrand with every term computed per call."""
    if isinstance(f, EndpointWeightedFunction):
        h = 0.5 * theta
        sh = max(math.sin(h), 1e-300)
        ch = max(math.cos(h), 1e-300)
        a, b = complex(f.a), complex(f.b)
        log_factor = (
            (a + b + 1.0) * math.log(2.0)
            + (2.0 * a + 1.0) * math.log(sh)
            + (2.0 * b + 1.0) * math.log(ch)
        )
        return np.exp(log_factor) * complex(f.smooth(math.cos(theta)))
    return complex(f(math.cos(theta))) * math.sin(theta)


@pytest.mark.parametrize("func", [
    EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, -2.0, 0.5], FIRST_KIND)),
    EndpointWeightedFunction(-0.3 + 0.2j, -0.7 - 0.2j,
                             ChebyshevSeries([1.0 + 0.5j, 0.25j], SECOND_KIND)),
    EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries([0.3, 1.0, -0.7], SECOND_KIND)),
    lambda x: math.exp(x) * (1.0 - x * x) + 1j * x,
], ids=["real-exponents", "complex-exponents", "plain-series", "callable"])
def test_theta_integrand_is_bit_identical_to_per_call_formula(func):
    t = 0.3
    ft = complex(func(t))
    g = _theta_integrand(func, t, ft)
    thetas = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.3, 1.0, 0.5 * math.pi, 2.0,
              math.pi - 1e-6, math.pi - 1e-12, math.pi, math.acos(t)]
    for theta in thetas:
        dx = math.cos(theta) - t
        if abs(dx) < 1e-13:
            reference = _derivative(func, t) * math.sin(theta)
        else:
            reference = (_eval_times_sin_reference(func, theta) - ft * math.sin(theta)) / dx
        assert g(theta) == reference


def _times_sin_reference(f):
    """Reference: the theta-integrand as built before it became one flat closure.

    The weighted branch takes np.exp, so its value is a numpy scalar, and
    evaluates the series through ChebyshevSeries.__call__.
    """
    if not isinstance(f, EndpointWeightedFunction):
        return lambda theta: complex(f(math.cos(theta))) * math.sin(theta)
    a, b = complex(f.a), complex(f.b)
    log_two = (a + b + 1.0) * math.log(2.0)
    sin_power, cos_power = 2.0 * a + 1.0, 2.0 * b + 1.0
    smooth = f.smooth

    def g(theta):
        h = 0.5 * theta
        sh = max(math.sin(h), 1e-300)
        ch = max(math.cos(h), 1e-300)
        log_factor = log_two + sin_power * math.log(sh) + cos_power * math.log(ch)
        return np.exp(log_factor) * complex(smooth(math.cos(theta)))

    return g


def _pv_integrand_reference(f, t, ft, dft):
    """Reference: the p.v. integrand of _pv_at as built before, around
    _times_sin_reference; for weighted f, / dx is numpy's complex division."""
    times_sin = _times_sin_reference(f)

    def g(theta):
        x = math.cos(theta)
        dx = x - t
        s = math.sin(theta)
        if abs(dx) < 1e-13:
            return dft * s
        return (times_sin(theta) - ft * s) / dx

    return g


def _reference_theta_integrand(f, t=None, ft=0j):
    if t is None:
        return _times_sin_reference(f)
    return _pv_integrand_reference(f, t, ft, _derivative(f, t))


def _pv_terms(f, t):
    """f(t) and the derivative estimate the p.v. integrand takes near t."""
    return complex(f(t)), _derivative(f, t)


# the endpoints, the sin(theta/2) clamp, and both sides of the 1e-12 edge; quad
# stays in [0, pi], and only past pi does the cos(theta/2) clamp act
_EDGE_THETAS = [0.0, 5e-324, 1e-300, 1e-12, math.pi - 1e-12, math.pi, math.pi + 1e-12]
_REAL_EXPONENT = st.floats(-0.95, 3.0)
_COMPLEX_EXPONENT = st.builds(complex, _REAL_EXPONENT, st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    exponents=st.one_of(
        st.tuples(_REAL_EXPONENT, _REAL_EXPONENT),
        st.tuples(_COMPLEX_EXPONENT, _COMPLEX_EXPONENT),
        st.sampled_from([(0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)]),
    ),
    degree=st.integers(0, 70),
    basis=st.sampled_from([FIRST_KIND, SECOND_KIND]),
    complex_coeffs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-0.99, 0.99),
    theta=st.floats(0.0, math.pi),
)
def test_flat_theta_integrand_is_bit_identical_to_reference(
        exponents, degree, basis, complex_coeffs, seed, t, theta):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(degree + 1)
    f = EndpointWeightedFunction(*exponents, ChebyshevSeries(coeffs, basis))
    ft, dft = _pv_terms(f, t)
    pv, pv_ref = _theta_integrand(f, t, ft), _pv_integrand_reference(f, t, ft, dft)
    # theta = acos(t) takes the |x - t| < 1e-13 branch
    for th in _EDGE_THETAS + [math.acos(t), theta]:
        assert pv(th) == pv_ref(th)


def _equal(u, v, signed_zeros=False):
    """Equal components, NaN matching NaN; with signed_zeros, -0.0 only matches -0.0.

    The flat integrand multiplies by 1.0 / dx where numpy's division computes
    (re + im * (0.0 / dx)) * (1.0 / dx), so a node value that is exactly zero
    may differ from the reference in its sign, which only an integral whose
    node values are all zero could show.
    """
    def same(p, q):
        if math.isnan(p) or math.isnan(q):
            return math.isnan(p) and math.isnan(q)
        return p == q and (not signed_zeros or math.copysign(1.0, p) == math.copysign(1.0, q))

    u, v = complex(u), complex(v)
    return same(u.real, v.real) and same(u.imag, v.imag)


@pytest.mark.parametrize("a, b", [
    (1022.0, -0.5),  # the weight reaches exp(708.75), where cmath.exp rounds differently
    (1023.2, -0.5),
    (2000.0, 0.0),  # the weight overflows
    (1e307, 0.0),  # 2a + 1 overflows
    (0.3 + 1e306j, 0.0),  # an infinite imaginary part of the log-weight
])
def test_flat_theta_integrand_matches_reference_near_exp_overflow(a, b):
    f = EndpointWeightedFunction(a, b, ChebyshevSeries([1e-300, 2e-300], FIRST_KIND))
    t = 0.1
    thetas = _EDGE_THETAS + list(np.linspace(0.0, math.pi, 2001)) + [math.acos(t)]
    with np.errstate(all="ignore"):  # the reference's np.exp warns here
        ft, dft = _pv_terms(f, t)
        pv, pv_ref = _theta_integrand(f, t, ft), _pv_integrand_reference(f, t, ft, dft)
        for th in thetas:
            assert _equal(pv(th), pv_ref(th))


@pytest.mark.parametrize("func", [
    EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, -2.0, 0.5], FIRST_KIND)),
    EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1j, 2j], FIRST_KIND)),
    EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([0.0], FIRST_KIND)),
    EndpointWeightedFunction(0.3 + 0.2j, -0.4, ChebyshevSeries([-0.0, 0.0], SECOND_KIND)),
    EndpointWeightedFunction(-0.3 + 0.2j, -0.7 - 0.2j,
                             ChebyshevSeries([1.0 + 0.5j, 0.25j, -0.5], SECOND_KIND)),
    EndpointWeightedFunction(0.5, 0.5, ChebyshevSeries([0.3, 1.0, -0.7], SECOND_KIND)),
    xi_function(0.2 + 0.3j),
    lambda x: math.exp(x) * (1.0 - x * x) + 1j * x,
    # declared real and not endpoint-weighted: the plain integrand runs in floats
    ChebyshevSeries([1.0, -2.0, 0.5], SECOND_KIND),
], ids=["real", "imaginary-series", "zero", "signed-zeros", "complex", "weight-w", "xi",
        "callable", "real-series"])
def test_quadrature_is_bit_identical_with_reference_integrands(func, monkeypatch):
    ts = np.linspace(-0.9, 0.9, 7)
    values = list(fht_pointwise(func, ts)) + [complex(integrate_unit(func))]
    monkeypatch.setattr(engine, "_theta_integrand", _reference_theta_integrand)
    reference = list(fht_pointwise(func, ts)) + [complex(integrate_unit(func))]
    assert all(_equal(v, r, signed_zeros=True) for v, r in zip(values, reference))


def _quad_complex_reference(g, a, b, real_only=False):
    """Reference: two quad passes, each evaluating g at every one of its nodes."""
    re, err_re = _quad(lambda s: g(s).real, a, b)
    if real_only:
        return complex(re), err_re
    im, err_im = _quad(lambda s: g(s).imag, a, b)
    return complex(re, im), err_re + err_im


def _xi_half_interval(monkeypatch, t, half):
    """The xi_lambda integrand of _pv_at at t on (0, phi) (half 0) or (phi, pi) (half 1)."""
    calls = []
    real_quad_complex = engine._quad_complex

    def recording(g, a, b, real_only=False):
        calls.append((g, a, b, real_only))
        return real_quad_complex(g, a, b, real_only)

    monkeypatch.setattr(engine, "_quad_complex", recording)
    fht_pointwise(xi_function(0.2 + 0.3j), t)
    monkeypatch.undo()
    assert [(a == 0.0, b == math.pi, real_only) for _, a, b, real_only in calls] == [
        (True, False, False), (False, True, False)]
    g, a, b, _ = calls[half]
    return g, a, b


_PLAIN_INTEGRALS = {
    "plain-callable": (lambda s: complex(math.cos(3.0 * s), math.sin(s) ** 2), 0.0, math.pi),
    # the imaginary part has a kink, so its pass subdivides where the real pass did not
    "imag-subdivides-more": (lambda s: complex(math.cos(s), math.sqrt(abs(s - 0.7))), 0.0, 2.0),
}
_INTEGRAL_CASES = [
    pytest.param(("xi", t, half), id=f"xi-t{t}-{name}")
    for t in (-0.5, 0.4) for half, name in ((0, "0-phi"), (1, "phi-pi"))
] + [pytest.param(name, id=name) for name in _PLAIN_INTEGRALS]


def _complex_integral(case, monkeypatch):
    if case in _PLAIN_INTEGRALS:
        return _PLAIN_INTEGRALS[case]
    _, t, half = case
    return _xi_half_interval(monkeypatch, t, half)


@pytest.mark.parametrize("case", _INTEGRAL_CASES)
def test_quad_complex_is_bit_identical_to_two_pass_reference(case, monkeypatch):
    g, a, b = _complex_integral(case, monkeypatch)
    assert _quad_complex(g, a, b) == _quad_complex_reference(g, a, b)


def test_quad_complex_real_only_is_bit_identical_to_reference():
    f = EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, -2.0, 0.5], FIRST_KIND))
    t = 0.1
    g = _theta_integrand(f, t, complex(f(t)))
    assert _quad_complex(g, 0.0, math.acos(t), real_only=True) == (
        _quad_complex_reference(g, 0.0, math.acos(t), real_only=True))


@pytest.mark.parametrize("unit, real_only", [(1.0, True), (1.0, False), (1j, False)],
                         ids=["real-only", "real-part", "imag-part"])
def test_quad_complex_stops_at_node_values_quad_cannot_sum(unit, real_only):
    # scipy's quad ended the process with a bus error on 1.7e308 / (1 + s) over (0, pi/2)
    with pytest.raises(NoConvergence, match="is too large for quadrature"):
        _quad_complex(lambda s: unit * 1.7e308 / (1.0 + s), 0.0, 0.5 * math.pi,
                      real_only=real_only)


def test_quad_complex_leaves_non_finite_node_values_to_quad():
    with pytest.raises(NoConvergence, match="quadrature returned a non-finite value"):
        _quad_complex(lambda s: complex(math.inf if s > 0.5 else 1.0, 1.0), 0.0, 1.0)


def test_quad_returns_an_unconverged_integral_without_a_warning(monkeypatch):
    # sin(1/s) oscillates without end near 0, so four panels cannot meet 1e-10;
    # full_output makes quad return QUADPACK's message instead of warning
    monkeypatch.setattr(engine, "QUAD_PANELS", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = _quad(lambda s: math.sin(1.0 / s), 0.0, 1.0)
    assert math.isfinite(val)
    assert err > engine.QUAD_TOL


@pytest.mark.parametrize("t", [-0.6, 0.0, 0.3])
def test_pv_evaluates_f_at_t_and_at_the_quadrature_nodes_only(t, monkeypatch):
    """f'(t) is estimated only at a node within 1e-13 of t, which quad does not reach here."""
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(x) * (1.0 - x * x) + 1j * x

    nodes = []
    real_theta_integrand = engine._theta_integrand

    def counting_theta_integrand(*args):
        g = real_theta_integrand(*args)

        def counted(theta):
            nodes.append(theta)
            return g(theta)

        return counted

    monkeypatch.setattr(engine, "_theta_integrand", counting_theta_integrand)
    fht_pointwise(f, t)
    assert calls == [t] + [math.cos(theta) for theta in nodes]
    assert all(abs(math.cos(theta) - t) >= 1e-13 for theta in nodes)


def _counting(g):
    nodes = []

    def counted(s):
        nodes.append(s)
        return g(s)

    return counted, nodes


@pytest.mark.parametrize("case", _INTEGRAL_CASES)
def test_quad_complex_evaluates_g_once_per_distinct_node(case, monkeypatch):
    g, a, b = _complex_integral(case, monkeypatch)
    counted, real_nodes = _counting(g)
    _quad_complex_reference(counted, a, b, real_only=True)
    counted, both_nodes = _counting(g)
    _quad_complex_reference(counted, a, b)
    assert both_nodes[:len(real_nodes)] == real_nodes
    seen = set(real_nodes)
    unseen = [s for s in both_nodes[len(real_nodes):] if s not in seen]

    counted, nodes = _counting(g)
    _quad_complex(counted, a, b)
    assert nodes == real_nodes + unseen
    assert len(nodes) == len(set(both_nodes))
    if case == "imag-subdivides-more":
        assert unseen


# ---------------------------------------------------------------------------
# The closed form for Jacobi weights (fht_jacobi).

def _off_band(c):
    return abs(c - round(c.real)) >= engine.JACOBI_BAND


_JACOBI_REAL = st.floats(-0.9, 2.5).filter(_off_band)
_JACOBI_COMPLEX = st.builds(complex, st.floats(-0.9, 2.5), st.floats(-1.5, 1.5)).filter(_off_band)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    exponents=st.one_of(st.tuples(_JACOBI_REAL, _JACOBI_REAL),
                        st.tuples(_JACOBI_COMPLEX, _JACOBI_COMPLEX)),
    degree=st.integers(0, 20),
    basis=st.sampled_from([FIRST_KIND, SECOND_KIND]),
    complex_coeffs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    t=st.one_of(st.floats(-0.95, 0.95), st.lists(st.floats(-0.95, 0.95), min_size=1,
                                                  max_size=3).map(np.array)),
)
def test_jacobi_closed_form_matches_quadrature(exponents, degree, basis, complex_coeffs,
                                                seed, t):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(degree + 1)
    func = EndpointWeightedFunction(*exponents, ChebyshevSeries(coeffs, basis))
    image = transform(func)
    value = image(t)
    quadrature = fht_pointwise(func, t)
    assert np.shape(value) == np.shape(quadrature)
    assert isinstance(value, complex) == isinstance(quadrature, complex)
    assert np.all(np.abs(value - quadrature) <= 1e-9 * np.maximum(1.0, np.abs(quadrature)))
    if func.real_valued:
        assert np.all(np.imag(value) == 0.0)


# T(w s)(t) for the exponents, series and points below, computed with mpmath at
# 40 digits by _mpmath_pv; the last pair is xi_lambda at lambda = 0.3 + 0.4i,
# a = -1/2 + z(lambda), b = -1/2 - z(lambda).
_MPMATH_TS = (-0.95, -0.3, 0.2, 0.9)
_MPMATH_FIXTURES = {
    "real": (0.3, -0.4, ChebyshevSeries([1.0, 2.0, -0.5], FIRST_KIND), (
        "2.236946005352469146715346650202520638782",
        "1.756124991465891707630291811119867604252",
        "0.4801622291269545763585967975947251584093",
        "-1.192269716456090084087375097868472821203")),
    "strongly-singular": (-0.9, 0.6, ChebyshevSeries([0.5, -1.0, 0.25], SECOND_KIND), (
        "-1.133012094788885560661408784692432876266",
        "-2.972868064118890861165615875004907075509",
        "-5.12393395023456768971788150857581751048",
        "-29.0456033756010622991537449061609194758")),
    "xi": (-0.3698677492611261 - 0.08323553293800633j,
           -0.6301322507388739 + 0.08323553293800633j,
           ChebyshevSeries([1.0, 0.5], FIRST_KIND), (
        "-0.2690136136684914297586639581125591453543+1.042631871022025446241656788457437261359j",
        "0.1495250450724187841633085261516977066981+0.2516024803489995106948121266999300193046j",
        "0.08387628825522037908276140585826368013206+0.247291058383580008291110071963136468423j",
        "-0.5246313769518712441449076360854051322703+0.3822417799152100578367301542391313397511j")),
}


def _mpmath_pv(a, b, series, t, dps=40):
    """(1/pi) p.v. int (1-x)^a (1+x)^b s(x) / (x - t) dx in mpmath.

    The middle piece (t - d, t + d) subtracts f(t), whose p.v. integral there
    is 0; each piece next to an endpoint e = +-1 is integrated in v with
    1 - e x = v^m, m = 2 / (1 + Re exponent), so its integrand is smooth at v = 0.
    """
    import mpmath

    with mpmath.workdps(dps):
        a, b, t = mpmath.mpmathify(a), mpmath.mpmathify(b), mpmath.mpf(t)
        poly = mpmath.chebyt if series.basis == FIRST_KIND else mpmath.chebyu
        coeffs = [mpmath.mpmathify(complex(c)) for c in series.coeffs]

        def s(x):
            return sum(c * poly(k, x) for k, c in enumerate(coeffs))

        def f(x):
            return (1 - x) ** a * (1 + x) ** b * s(x)

        d = min(1 - t, 1 + t) / 2
        ft = f(t)
        total = mpmath.quad(lambda x: (f(x) - ft) / (x - t), [t - d, t, t + d])
        for exponent, other, end in ((a, b, 1), (b, a, -1)):
            m = 2 / (1 + mpmath.re(exponent))

            def g(v):
                u = v ** m
                x = end * (1 - u)
                return m * v ** (m * (exponent + 1) - 1) * (2 - u) ** other * s(x) / (x - t)

            total += mpmath.quad(g, [0, (1 - end * t - d) ** (1 / m)])
        return complex(total / mpmath.pi)


@pytest.mark.parametrize("name", sorted(_MPMATH_FIXTURES))
def test_jacobi_closed_form_matches_mpmath_fixtures(name):
    a, b, series, values = _MPMATH_FIXTURES[name]
    func = EndpointWeightedFunction(a, b, series)
    want = np.array([complex(v) for v in values])
    got = fht_jacobi(func)(np.array(_MPMATH_TS))
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_jacobi_fixtures_come_from_the_mpmath_route():
    a, b, series, values = _MPMATH_FIXTURES["xi"]
    assert abs(_mpmath_pv(a, b, series, _MPMATH_TS[2]) - complex(values[2])) < 1e-15
    # xi_lambda is an eigenfunction: T(xi) = i lambda xi
    xi = EndpointWeightedFunction(a, b, constant_series(1.0))
    ts = np.array(_MPMATH_TS)
    assert np.allclose(fht_jacobi(xi)(ts), 1j * (0.3 + 0.4j) * xi(ts), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a", [-0.5, 0.5])
@pytest.mark.parametrize("basis", [FIRST_KIND, SECOND_KIND])
def test_jacobi_closed_form_matches_spectral_rules(a, basis):
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    func = EndpointWeightedFunction(a, a, ChebyshevSeries(coeffs, basis))
    ts = np.linspace(-0.99, 0.99, 41)
    spectral = fht_spectral(func)(ts)
    assert np.max(np.abs(fht_jacobi(func)(ts) - spectral)) <= 1e-13 * np.max(np.abs(spectral))


@pytest.mark.parametrize("edge", [-1.0, 1.0])
@pytest.mark.parametrize("integer", [0, 1, 2])
@pytest.mark.parametrize("which", ["a", "b"])
def test_jacobi_band_edges_agree_with_quadrature(edge, integer, which):
    """Just inside the band transform takes quadrature, just outside the closed form."""
    series = ChebyshevSeries([0.7, -0.2, 0.4], FIRST_KIND)
    ts = np.array([-0.8, -0.1, 0.5])
    values = []
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        exponent = integer + edge * factor * engine.JACOBI_BAND
        a, b = (exponent, -0.3) if which == "a" else (0.4, exponent)
        values.append(transform(EndpointWeightedFunction(a, b, series))(ts))
        if factor < 1.0:
            with pytest.raises(UnsupportedExponents):
                fht_jacobi(EndpointWeightedFunction(a, b, series))
            assert np.array_equal(values[-1], fht_pointwise(EndpointWeightedFunction(a, b, series), ts))
    inside, outside = values
    assert np.all(np.abs(inside - outside) <= 1e-10 * np.maximum(1.0, np.abs(inside)))


def test_large_jacobi_exponents_take_quadrature():
    func = EndpointWeightedFunction(15.3, 5.2, ChebyshevSeries([1.0, 0.5], FIRST_KIND))
    with pytest.raises(UnsupportedExponents):
        fht_jacobi(func)
    ts = np.array([-0.5, 0.5])
    assert np.array_equal(transform(func)(ts), fht_pointwise(func, ts))


@pytest.fixture
def quad_calls(monkeypatch):
    """The number of scipy.integrate.quad calls made so far in the test."""
    import scipy.integrate

    original = scipy.integrate.quad
    calls = [0]

    def counting_quad(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    return calls


def test_cross_checks_stay_on_quadrature(quad_calls):
    from finitehilbert import airfoil, harness, spectrum

    def calls_quad(run):
        before = quad_calls[0]
        run()
        return quad_calls[0] > before

    g = EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries([0.5, 1.0], FIRST_KIND))
    assert calls_quad(lambda: spectrum.eigen_residual(0.3 + 0.4j, grid=np.array([0.1])))
    assert calls_quad(lambda: airfoil.verify_roundtrip(g, airfoil.LOW))
    assert calls_quad(lambda: harness.check_kernel(1.0))
    assert calls_quad(lambda: harness.check_poincare_bertrand(g, g, grid=[0.2]))


def test_jacobi_transform_calls_no_quadrature(quad_calls):
    ts = np.linspace(-0.9, 0.9, 7)
    for a, b in ((0.3, -0.4), (-0.5 + 0.2j, -0.5 - 0.2j), (2.7, 0.5)):
        transform(EndpointWeightedFunction(a, b, ChebyshevSeries([1.0, 2.0])))(ts)
    weighted_transform(0.2, -0.3, one(), ts, p=1.5)
    assert quad_calls[0] == 0


def _samples(f, n):
    x = np.linspace(-0.999, 0.999, n)
    return SampledFunction(x, f(x))


@pytest.mark.parametrize("degree, n, tol", [(3, 50, 1e-13), (3, 400, 1e-13), (4, 2000, 1e-11)])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_sampled_polynomials_chop_to_their_degree(degree, n, tol, complex_coeffs):
    # a cubic spline reproduces cubic data, so the series keeps its 4
    # coefficients and transforms as the cubic does; a quartic's spline errs
    # by 7e-13 inside the samples and 2e-10 beyond them on 2000 points, a
    # floor of its own that puts the transform 3e-12 from the quartic's
    rng = np.random.default_rng(degree * n)
    tc = rng.standard_normal(degree + 1)
    if complex_coeffs:
        tc = tc + 1j * rng.standard_normal(degree + 1)
    f = sampled_to_weighted(_samples(lambda x: np.polynomial.chebyshev.chebval(x, tc), n))
    assert len(f.smooth.coeffs) <= degree + 1
    for t in np.linspace(-0.95, 0.95, 9):
        ref = _synthetic_division_transform(tc, float(t))
        assert abs(transform(f)(float(t)) - ref) <= tol * max(1.0, abs(ref))


@pytest.mark.parametrize("n", [200, 400])
def test_sampled_exp_chops_below_the_cap(n):
    assert len(sampled_to_weighted(_samples(np.exp, n)).smooth.coeffs) < 20


@pytest.mark.parametrize("f", [lambda x: np.sqrt(1.0 - x * x), lambda x: np.sin(10.0 * x)],
                         ids=["sqrt", "sin10x"])
def test_unresolved_samples_keep_the_full_interpolant(f):
    from scipy.interpolate import CubicSpline

    samples = _samples(f, 400)
    full = interpolate_chebyshev(CubicSpline(samples.points, samples.values),
                                 engine.INTERP_DEGREE)
    series = sampled_to_weighted(samples).smooth
    assert len(series.coeffs) == engine.INTERP_DEGREE + 1
    assert series.coeffs.tobytes() == full.coeffs.tobytes()


def test_zero_samples_give_one_coefficient():
    assert sampled_to_weighted(_samples(np.zeros_like, 100)).smooth.coeffs.tolist() == [0.0]
