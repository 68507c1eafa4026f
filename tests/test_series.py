import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitehilbert.errors import NonFiniteSample
from finitehilbert.series import (
    FIRST_KIND,
    SECOND_KIND,
    ChebyshevSeries,
    chebyshev_gauss_nodes,
    interpolate_chebyshev,
    t_to_u,
    u_to_t,
)


def test_evaluation_matches_numpy():
    coeffs = np.array([1.0, -0.5, 0.25, 0.1])
    s = ChebyshevSeries(coeffs, FIRST_KIND)
    x = np.linspace(-1, 1, 17)
    expected = np.polynomial.chebyshev.chebval(x, coeffs)
    assert np.allclose(s(x), expected, atol=1e-14)


def _clenshaw_numpy_complex(coeffs, x, basis):
    """Reference: the recurrence in numpy complex arithmetic, returning a numpy value."""
    c = np.asarray(coeffs)
    x = np.asarray(x)
    b1 = np.zeros_like(x, dtype=complex)
    b2 = np.zeros_like(x, dtype=complex)
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] + 2.0 * x * b1 - b2, b1
    if basis == FIRST_KIND:
        return c[0] + x * b1 - b2
    return c[0] + 2.0 * x * b1 - b2


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    degree=st.integers(0, 70),
    basis=st.sampled_from([FIRST_KIND, SECOND_KIND]),
    complex_coeffs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    x=_UNIT,
    xs=st.lists(_UNIT, min_size=1, max_size=9),
)
def test_evaluation_is_bit_identical_to_numpy_complex_recurrence(
        degree, basis, complex_coeffs, seed, x, xs):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(degree + 1)
    s = ChebyshevSeries(coeffs, basis)

    def reference(points):
        val = _clenshaw_numpy_complex(s.coeffs, points, basis)
        return val.real if s.real_valued else val

    value = s(x)
    assert type(value) is (float if s.real_valued else complex)
    assert value == reference(x)
    xs = np.array(xs)
    assert np.array_equal(s(xs), reference(xs))
    assert np.array_equal(s(xs.reshape(1, -1)), reference(xs.reshape(1, -1)))


def test_u_basis_evaluation():
    # U_2(x) = 4x^2 - 1
    s = ChebyshevSeries([0, 0, 1.0], SECOND_KIND)
    x = np.linspace(-1, 1, 9)
    assert np.allclose(s(x), 4 * x**2 - 1, atol=1e-14)


def test_basis_round_trip():
    coeffs = np.array([0.3, -1.2, 0.7, 0.05, -0.4])
    s = ChebyshevSeries(coeffs, FIRST_KIND)
    back = s.to_basis(SECOND_KIND).to_basis(FIRST_KIND)
    assert np.allclose(back.coeffs, coeffs, atol=1e-13)
    x = np.linspace(-1, 1, 11)
    assert np.allclose(s.to_basis(SECOND_KIND)(x), s(x), atol=1e-13)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_conversion_preserves_values(coeffs):
    tc = np.array(coeffs, dtype=complex)
    x = np.linspace(-0.99, 0.99, 7)
    t_vals = ChebyshevSeries(tc, FIRST_KIND)(x)
    u_vals = ChebyshevSeries(t_to_u(tc), SECOND_KIND)(x)
    assert np.allclose(t_vals, u_vals, atol=1e-10 * max(1.0, np.abs(tc).max()))


def test_u_to_t_inverts_t_to_u():
    rng = np.random.default_rng(3)
    tc = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.allclose(u_to_t(t_to_u(tc)), tc, atol=1e-13)


def _u_to_t_loop(uc):
    """Reference: the O(n^2) expansion U_n = 2 T_n + 2 T_{n-2} + ... (+ T_0)."""
    out = np.zeros(len(uc), dtype=complex)
    for n in range(len(uc)):
        for k in range(n, -1, -2):
            out[k] += uc[n] * (1.0 if k == 0 else 2.0)
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 61])
def test_u_to_t_matches_reference_loop(n):
    rng = np.random.default_rng(n)
    uc = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = _u_to_t_loop(uc)
    assert np.max(np.abs(u_to_t(uc) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_scaling():
    a = ChebyshevSeries([1.0, 2.0], FIRST_KIND)
    x = np.linspace(-1, 1, 5)
    assert np.allclose((2.0 * a)(x), 2.0 * a(x), atol=1e-14)


def test_interpolation_exact_for_polynomials():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return 1.0 + x - 2.0 * x**3

    s = interpolate_chebyshev(f, 5)
    assert calls == [(6,)]  # one call on all the nodes
    x = np.linspace(-1, 1, 21)
    assert np.allclose(s(x), f(x), atol=1e-13)


@pytest.mark.parametrize("degree", [0, 5, 64])
def test_interpolation_matches_cosine_matrix(degree):
    """Reference: the O(n^2) cosine-matrix sum the DCT replaces."""

    def f(x):
        return np.exp(x) + 1j * np.sin(3.0 * x)

    n = degree + 1
    theta = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
    vals = f(np.cos(theta))
    ref = (2.0 / n) * np.cos(np.outer(np.arange(n), theta)) @ vals
    ref[0] *= 0.5
    coeffs = interpolate_chebyshev(f, degree).coeffs
    assert np.max(np.abs(coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_interpolation_rejects_non_finite():
    with pytest.raises(NonFiniteSample):
        interpolate_chebyshev(lambda x: float("nan"), 3)


def test_gauss_nodes_are_interior_and_decreasing():
    nodes = chebyshev_gauss_nodes(10)
    assert np.all(np.abs(nodes) < 1.0)
    assert np.all(np.diff(nodes) < 0.0)


def test_trimmed_drops_trailing_exact_zeros():
    s = ChebyshevSeries([1.0, 0.5, 0.0, -0.0, 0.0], SECOND_KIND).trimmed()
    assert s.coeffs.tolist() == [1.0, 0.5] and s.basis == SECOND_KIND
    # only exact zeros go, and c_0 always stays
    assert ChebyshevSeries([1.0, 0.5, 1e-300], FIRST_KIND).trimmed().degree == 2
    assert ChebyshevSeries([0.0, 0.0], FIRST_KIND).trimmed().coeffs.tolist() == [0.0]


def _standard_chop(coeffs, tol):
    """Reference: Aurentz & Trefethen's standardChop as published, in 1-based indices.

    Returns the number of coefficients kept.  MATLAB's round takes halves up.
    """
    n = len(coeffs)
    if n < 17:
        return n
    b = np.abs(coeffs)
    m = np.empty(n + 1)  # m[1..n]; m[0] is unused
    m[n] = b[n - 1]
    for j in range(n - 1, 0, -1):
        m[j] = max(b[j - 1], m[j + 1])
    if m[1] == 0.0:
        return 1
    envelope = m / m[1]
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5 + 0.5)
        if j2 > n:
            return n
        e1, e2 = envelope[j], envelope[j2]
        r = 3.0 * (1.0 - math.log(e1) / math.log(tol)) if e1 > 0.0 else 0.0
        if e1 == 0.0 or e2 / e1 > r:
            plateau_point = j - 1
            break
    if envelope[plateau_point] == 0.0:
        return plateau_point
    j3 = int(np.sum(envelope[1:] >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2] = tol ** (7.0 / 6.0)
    cc = np.log10(envelope[1:j2 + 1]) + np.linspace(0.0, (-1.0 / 3.0) * math.log10(tol), j2)
    d = int(np.argmin(cc)) + 1
    return max(d - 1, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 100),
    decay=st.floats(0.3, 0.99),
    level=st.floats(-20.0, -8.0),
    zeros=st.integers(0, 20),
    complex_coeffs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# the count of envelope values above tol^(7/6) equals the 0-based j2 here,
# the edge of the paper's j3 < j2 test
@example(n=72, decay=0.51, level=-18.0, zeros=1, complex_coeffs=False, seed=2830)
def test_chopped_matches_standard_chop(n, decay, level, zeros, complex_coeffs, seed):
    # geometric decay down to a noise plateau at 10^level, then exact zeros
    rng = np.random.default_rng(seed)
    coeffs = decay ** np.arange(n) * rng.standard_normal(n)
    coeffs += 10.0**level * rng.standard_normal(n)
    if complex_coeffs:
        coeffs = coeffs + 1j * decay ** np.arange(n) * rng.standard_normal(n)
    coeffs = np.concatenate([coeffs, np.zeros(zeros)])
    s = ChebyshevSeries(coeffs, SECOND_KIND)
    chopped = s.chopped()
    keep = _standard_chop(s.coeffs, np.finfo(float).eps)
    assert chopped.basis == SECOND_KIND
    assert np.array_equal(chopped.coeffs, s.coeffs[:keep])


def test_chopped_keeps_short_and_unresolved_series():
    rng = np.random.default_rng(2)
    short = ChebyshevSeries(np.concatenate([[1.0], np.zeros(15)]))
    assert short.chopped() is short
    # 1/k^2 decay never reaches rounding level within 65 coefficients
    slow = ChebyshevSeries(rng.standard_normal(65) / np.arange(1, 66) ** 2)
    assert slow.chopped() is slow


def test_chopped_cuts_a_rounding_plateau():
    rng = np.random.default_rng(4)
    coeffs = np.concatenate([[1.0, -0.5, 0.25, 0.125], 1e-17 * rng.standard_normal(61)])
    assert ChebyshevSeries(coeffs).chopped().coeffs.tolist() == coeffs[:4].tolist()
    # an all-zero series keeps c_0 alone
    assert ChebyshevSeries(np.zeros(65)).chopped().coeffs.tolist() == [0.0]
