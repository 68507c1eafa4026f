import math

import numpy as np
import pytest

from finitehilbert import harness
from finitehilbert.errors import DegenerateSet
from finitehilbert.functions import EndpointWeightedFunction, IndicatorUnion, one, sqrt_weight
from finitehilbert.harness import (
    TOLERANCES,
    check_kernel,
    check_laeng,
    check_parseval,
    check_poincare_bertrand,
    hilbert_of_indicator,
    khvedelidze_probe,
    loglog_probe,
    norm_probe,
)
from finitehilbert.series import FIRST_KIND, ChebyshevSeries


def poly(*coeffs):
    return EndpointWeightedFunction(
        0.0, 0.0, ChebyshevSeries(np.array(coeffs, dtype=complex), FIRST_KIND)
    )


def test_parseval_self_pair():
    r = check_parseval(poly(0.0, 1.0), poly(0.0, 1.0))
    assert r.passed


def test_parseval_one_and_weight():
    r = check_parseval(one(), sqrt_weight())
    assert r.passed


def test_parseval_zero_function():
    r = check_parseval(poly(0.0), poly(1.0, 2.0))
    assert r.max_abs_residual < 1e-12


def test_parseval_checks_imaginary_part(monkeypatch):
    # images off by 1e-3 i leave the real part of the identity intact; the
    # imaginary part is 1e-3 * int (1 + w) = 1e-3 * (2 + pi/2)
    exact = harness.transform
    monkeypatch.setattr(harness, "transform",
                        lambda f: (lambda x, image=exact(f): image(x) + 1e-3j))
    r = check_parseval(one(), sqrt_weight())
    assert r.max_abs_residual == pytest.approx(1e-3 * (2.0 + math.pi / 2.0), rel=1e-6)
    assert not r.passed


def test_parseval_swap_symmetry():
    f, g = poly(1.0, 0.5), poly(0.0, -0.3, 0.2)
    r1 = check_parseval(f, g)
    r2 = check_parseval(g, f)
    assert r1.max_abs_residual == pytest.approx(r2.max_abs_residual, abs=1e-12)


def test_poincare_bertrand_smooth_pair():
    r = check_poincare_bertrand(poly(1.0, 0.5), poly(0.3, -0.2, 0.1))
    assert r.passed
    assert r.tolerance == TOLERANCES["poincare_bertrand"]


def test_poincare_bertrand_with_weight():
    r = check_poincare_bertrand(one(), sqrt_weight())
    assert r.passed


def test_hilbert_of_indicator_closed_form():
    A = IndicatorUnion(((0.0, 1.0),))
    x = 0.25
    expected = math.log(abs((x - 1.0) / x)) / math.pi
    assert hilbert_of_indicator(A, x) == pytest.approx(expected, abs=1e-14)
    # an array x agrees with the scalar calls to 1 ulp
    A = IndicatorUnion(((-0.7, -0.2), (0.0, 1.0)))
    xs = np.linspace(-0.95, 1.35, 200)
    values = hilbert_of_indicator(A, xs)
    scalars = np.array([hilbert_of_indicator(A, float(x)) for x in xs])
    assert values.shape == xs.shape
    assert np.all(np.abs(values - scalars) <= np.spacing(np.abs(scalars)))


def test_laeng_single_interval():
    r = check_laeng(IndicatorUnion(((0.0, 1.0),)), lambdas=[0.2, 0.5, 1.0, 2.0])
    assert r.passed


def test_laeng_rejects_empty():
    with pytest.raises((DegenerateSet, ValueError)):
        check_laeng(())


def test_kernel_reports():
    assert check_kernel(1.0).passed
    assert check_kernel(0.0).max_abs_residual == pytest.approx(0.0, abs=1e-12)
    assert check_kernel(2.0 - 3.0j).passed


def test_norm_probe_bound_and_determinism():
    r1 = norm_probe(1.5, family_size=10, seed=4)
    r2 = norm_probe(1.5, family_size=10, seed=4)
    assert r1.passed
    assert r1.sup_ratio == r2.sup_ratio
    assert r1.analytic_bound == pytest.approx(math.sqrt(3.0))
    with pytest.raises(ValueError):
        norm_probe(2.5)


def test_loglog_probe_finite_and_stable():
    r = loglog_probe(family_size=3, seed=7)
    assert r.passed
    assert math.isfinite(r.sup_ratio)


def test_khvedelidze_probe_regimes():
    # gamma = delta = -1/2 at p = 1.5 and +1/2 at p = 3 are the two
    # pseudo-inverse weight regimes
    for gamma, delta, p in ((0.2, -0.1, 2.0), (-0.5, -0.5, 1.5), (0.5, 0.5, 3.0)):
        r = khvedelidze_probe(gamma, delta, p, family_size=3, seed=1)
        assert r.passed
