import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitehilbert import engine
from finitehilbert.engine import (
    DEFAULT_CONFIG,
    TRICOMI,
    WIDOM,
    QuadratureConfig,
    _quad,
    _derivative,
    _quad_complex,
    _theta_integrand,
    fht_hat,
    fht_check,
    fht_of_one,
    fht_pointwise,
    fht_polynomial,
    fht_spectral,
    integrate_unit,
    project_P,
    project_Q,
    transform,
    weighted_transform,
)
from finitehilbert.errors import ExponentOutOfRange, NoConvergence, UnsupportedExponents
from finitehilbert.functions import (
    EndpointWeightedFunction,
    SampledFunction,
    constant_series,
    inverse_sqrt_weight,
    one,
    sample,
    sqrt_weight,
)
from finitehilbert.series import FIRST_KIND, SECOND_KIND, ChebyshevSeries
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


def test_widom_convention_divides_by_i():
    t = 0.3
    assert complex(transform(sqrt_weight(), WIDOM)(t)) == pytest.approx(
        -t / 1j, abs=1e-10
    )
    # on the quadrature route the widom image is the plain one divided by i
    func = EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, 2.0], FIRST_KIND))
    ts = np.linspace(-0.8, 0.8, 5)
    assert np.array_equal(transform(func, WIDOM)(ts), fht_pointwise(func, ts) / 1j)


@pytest.mark.parametrize("func", [one(), sqrt_weight(), x_over_w(), sample(np.exp, 40),
                                  EndpointWeightedFunction(0.3, -0.4, constant_series(1.0))],
                         ids=["closed_form", "spectral_w", "spectral_1/w", "sampled",
                              "quadrature"])
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
    cases = {
        "poly": EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(mono_tc, FIRST_KIND)),
        "chebT": EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(coeffs, FIRST_KIND)),
        "chebU": EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(coeffs, SECOND_KIND)),
        "jacobi": EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries(coeffs.real, FIRST_KIND)),
        "sampled": SampledFunction(np.linspace(-0.99, 0.99, 81),
                                   np.linspace(-0.99, 0.99, 81) ** 3 - 0.5),
        # a scalar-only callable and complex exponents: quadrature routes
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


def test_sampled_input_goes_through_interpolation():
    grid = sample(lambda x: x, 200, spacing="cos")
    v = fht_pointwise(grid, 0.0)
    assert complex(v) == pytest.approx(2.0 / math.pi, abs=1e-6)


def test_linearity_of_pointwise_transform():
    f, g = sqrt_weight(), x_over_w()
    t = 0.37
    lhs = fht_pointwise(
        lambda x: 2.0 * complex(f(x)) + 3.0 * complex(g(x)),
        t,
        QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9),
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
    g = _theta_integrand(func)
    thetas = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.3, 1.0, 0.5 * math.pi, 2.0,
              math.pi - 1e-6, math.pi - 1e-12, math.pi]
    for theta in thetas:
        assert g(theta) == _eval_times_sin_reference(func, theta)


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


@settings(max_examples=300, deadline=None)
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
    unit, unit_ref = _theta_integrand(f), _times_sin_reference(f)
    pv, pv_ref = _theta_integrand(f, t, ft), _pv_integrand_reference(f, t, ft, dft)
    # theta = acos(t) takes the |x - t| < 1e-13 branch
    for th in _EDGE_THETAS + [math.acos(t), theta]:
        assert unit(th) == unit_ref(th)
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
        unit, unit_ref = _theta_integrand(f), _times_sin_reference(f)
        pv, pv_ref = _theta_integrand(f, t, ft), _pv_integrand_reference(f, t, ft, dft)
        for th in thetas:
            assert _equal(unit(th), unit_ref(th))
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
], ids=["real", "imaginary-series", "zero", "signed-zeros", "complex", "weight-w", "xi",
        "callable"])
def test_quadrature_is_bit_identical_with_reference_integrands(func, monkeypatch):
    ts = np.linspace(-0.9, 0.9, 7)
    values = list(fht_pointwise(func, ts)) + [complex(integrate_unit(func))]
    monkeypatch.setattr(engine, "_theta_integrand", _reference_theta_integrand)
    reference = list(fht_pointwise(func, ts)) + [complex(integrate_unit(func))]
    assert all(_equal(v, r, signed_zeros=True) for v, r in zip(values, reference))


def _quad_complex_reference(g, a, b, cfg, real_only=False):
    """Reference: two quad passes, each evaluating g at every one of its nodes."""
    re, err_re = _quad(lambda s: g(s).real, a, b, cfg)
    if real_only:
        return complex(re), err_re
    im, err_im = _quad(lambda s: g(s).imag, a, b, cfg)
    return complex(re, im), err_re + err_im


def _xi_half_interval(monkeypatch, t, half):
    """The xi_lambda integrand of _pv_at at t on (0, phi) (half 0) or (phi, pi) (half 1)."""
    calls = []
    real_quad_complex = engine._quad_complex

    def recording(g, a, b, cfg, real_only=False):
        calls.append((g, a, b, real_only))
        return real_quad_complex(g, a, b, cfg, real_only)

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
    assert _quad_complex(g, a, b, DEFAULT_CONFIG) == _quad_complex_reference(
        g, a, b, DEFAULT_CONFIG)


def test_quad_complex_real_only_is_bit_identical_to_reference():
    f = EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, -2.0, 0.5], FIRST_KIND))
    g = _theta_integrand(f)
    assert _quad_complex(g, 0.0, math.pi, DEFAULT_CONFIG, real_only=True) == (
        _quad_complex_reference(g, 0.0, math.pi, DEFAULT_CONFIG, real_only=True))


@pytest.mark.parametrize("unit, real_only", [(1.0, True), (1.0, False), (1j, False)],
                         ids=["real-only", "real-part", "imag-part"])
def test_quad_complex_stops_at_node_values_quad_cannot_sum(unit, real_only):
    # scipy's quad ended the process with a bus error on 1.7e308 / (1 + s) over (0, pi/2)
    with pytest.raises(NoConvergence, match="is too large for quadrature"):
        _quad_complex(lambda s: unit * 1.7e308 / (1.0 + s), 0.0, 0.5 * math.pi,
                      DEFAULT_CONFIG, real_only=real_only)


def test_quad_complex_leaves_non_finite_node_values_to_quad():
    with pytest.raises(NoConvergence, match="quadrature returned a non-finite value"):
        _quad_complex(lambda s: complex(math.inf if s > 0.5 else 1.0, 1.0), 0.0, 1.0,
                      DEFAULT_CONFIG)


def test_quad_returns_an_unconverged_integral_without_a_warning():
    # sin(1/s) oscillates without end near 0, so four panels cannot meet 1e-10;
    # full_output makes quad return QUADPACK's message instead of warning
    cfg = QuadratureConfig(max_panels=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = _quad(lambda s: math.sin(1.0 / s), 0.0, 1.0, cfg)
    assert math.isfinite(val)
    assert err > cfg.abs_tol


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
    _quad_complex_reference(counted, a, b, DEFAULT_CONFIG, real_only=True)
    counted, both_nodes = _counting(g)
    _quad_complex_reference(counted, a, b, DEFAULT_CONFIG)
    assert both_nodes[:len(real_nodes)] == real_nodes
    seen = set(real_nodes)
    unseen = [s for s in both_nodes[len(real_nodes):] if s not in seen]

    counted, nodes = _counting(g)
    _quad_complex(counted, a, b, DEFAULT_CONFIG)
    assert nodes == real_nodes + unseen
    assert len(nodes) == len(set(both_nodes))
    if case == "imag-subdivides-more":
        assert unseen
