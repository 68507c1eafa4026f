import math

import numpy as np
import pytest

from finitehilbert.airfoil import (
    HIGH,
    LOW,
    solvability_residual,
    solve_high,
    solve_low,
    verify_roundtrip,
)
from finitehilbert.engine import integrate_unit, project_P, project_Q
from finitehilbert.errors import NotSolvable, UnsupportedExponents
from finitehilbert.functions import EndpointWeightedFunction, one, sample
from finitehilbert.series import FIRST_KIND, ChebyshevSeries


def poly(*coeffs):
    return EndpointWeightedFunction(
        0.0, 0.0, ChebyshevSeries(np.array(coeffs, dtype=complex), FIRST_KIND)
    )


def test_low_regime_constant_rhs():
    # T(x/w) = 1, so the C = 0 solution of T(f) = 1 is x/w
    f = solve_low(one(), C=0.0)
    assert f.a == -0.5 and f.b == -0.5
    assert np.allclose(f.smooth.coeffs, [0.0, 1.0])


def test_low_regime_homogeneous_constant_folds_in():
    f = solve_low(one(), C=2.5)
    assert np.allclose(f.smooth.coeffs, [2.5, 1.0])


def test_high_regime_rejects_constant():
    # int 1/w = pi, so g = 1 has solvability residual exactly 1
    with pytest.raises(NotSolvable) as info:
        solve_high(one())
    assert info.value.residual == pytest.approx(1.0, abs=1e-8)


def test_high_regime_accepts_odd_chebyshev():
    # T_1/w integrates to zero; the solution is -w U_0
    f = solve_high(poly(0.0, 1.0))
    assert f.a == 0.5 and f.b == 0.5
    assert np.allclose(f.smooth.coeffs, [-1.0])


def test_solvability_residual_values():
    assert solvability_residual(one()) == pytest.approx(1.0, abs=1e-10)
    # int T_n/w = 0 for every n >= 1, so pure higher modes are always solvable
    assert solvability_residual(poly(0.0, 1.0)) == pytest.approx(0.0, abs=1e-10)
    assert solvability_residual(poly(0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-10)
    assert solvability_residual(poly(0.5)) == pytest.approx(0.5, abs=1e-10)


def test_roundtrip_low_recovers_constant():
    rng = np.random.default_rng(5)
    g = poly(*rng.standard_normal(6))
    report = verify_roundtrip(g, LOW, C=1.25)
    assert report.max_residual < 1e-6
    assert report.constant_recovered == pytest.approx(1.25, abs=1e-6)


def test_roundtrip_high():
    g = poly(0.0, 0.7, 0.0, -0.3)  # odd, integrates to 0 against 1/w
    assert solvability_residual(g) < 1e-10
    report = verify_roundtrip(g, HIGH)
    assert report.max_residual < 1e-6
    assert report.constant_recovered is None


def test_hat_solution_integrates_to_zero():
    rng = np.random.default_rng(9)
    g = poly(*rng.standard_normal(8))
    val = complex(integrate_unit(solve_low(g, C=0.0)))
    # T_hat output has no T_0/w component, and int T_n/w = 0 for n >= 1
    assert abs(val) < 1e-8


def test_series_integrals_make_no_quad_call(monkeypatch):
    import scipy.integrate

    calls = []
    real_quad = scipy.integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    series = ChebyshevSeries([1.0, 0.5, -0.25], FIRST_KIND)
    # real, complex, integer and (0,0) exponents
    for a, b in ((0.3, -0.4), (0.2 + 0.1j, -0.3), (1.0, 2.0), (0.0, 0.0)):
        f = EndpointWeightedFunction(a, b, series)
        for route in (integrate_unit, project_P, project_Q, solvability_residual):
            route(f)
    assert calls == []
    # plain callables and the round trip stay on quadrature
    integrate_unit(math.exp)
    assert calls
    calls.clear()
    verify_roundtrip(poly(0.0, 1.0), HIGH)
    assert calls


def test_right_hand_side_must_be_series_backed():
    # sampled data becomes a series where it enters (the csv: spec), not here
    for g in (sample(np.exp, 40), math.exp):
        for solve in (solve_low, solve_high, solvability_residual,
                      lambda g: verify_roundtrip(g, LOW)):
            with pytest.raises(UnsupportedExponents, match="needs a series-backed function"):
                solve(g)


def test_unknown_regime_rejected():
    with pytest.raises(ValueError):
        verify_roundtrip(one(), "mid")
