import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitehilbert.functions import SampledFunction, inverse_sqrt_weight, sample
from finitehilbert.rearrange import (
    decreasing_rearrangement,
    lorentz_norm,
    lorentz_norm_with_divergence_check,
    lp_norm,
    zygmund_norm,
)


def _sampled(values):
    pts = np.linspace(-0.9, 0.9, len(values))
    return SampledFunction(pts, np.array(values, dtype=float))


def test_rearrangement_is_decreasing_on_0_2():
    f = _sampled([1.0, -3.0, 2.0, 0.5])
    g = decreasing_rearrangement(f)
    assert g.domain == (0.0, 2.0)
    assert np.all(np.diff(np.abs(g.values)) <= 0.0)
    assert np.allclose(sorted(np.abs(g.values)), sorted(np.abs(f.values)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
def test_rearrangement_preserves_lp(values):
    # the Lorentz (p,p) functional integrates the rearranged cells exactly
    f = _sampled(values)
    for p in (1.5, 2.0, 3.5):
        assert lorentz_norm(p, p, f) == pytest.approx(
            lp_norm(p, f), rel=1e-10, abs=1e-12
        )


def test_lorentz_pp_equals_lp_scaled():
    # for q = p the Lorentz functional is (p)^(... ) free: it equals the L^p norm
    f = _sampled([2.0, -1.0, 0.5, 3.0, 1.5])
    for p in (1.5, 2.0, 4.0):
        assert lorentz_norm(p, p, f) == pytest.approx(lp_norm(p, f), rel=1e-12)


def test_lorentz_weak_norm_of_constant():
    # f* = c on (0,2): sup t^(1/p) c = c 2^(1/p)
    f = _sampled([1.0] * 6)
    assert lorentz_norm(2.0, math.inf, f) == pytest.approx(math.sqrt(2.0))


def test_lorentz_parameter_validation():
    f = _sampled([1.0, 2.0])
    with pytest.raises(ValueError):
        lorentz_norm(1.0, 2.0, f)
    with pytest.raises(ValueError):
        lorentz_norm(2.0, 0.5, f)


def test_zygmund_norm_of_constant():
    # int_0^2 log(2e/t) dt = 2 log(2e/2) + 2 = 4
    f = _sampled([1.0] * 8)
    assert zygmund_norm(1.0, f) == pytest.approx(4.0, rel=1e-12)


def test_zygmund_alpha2_against_quadrature():
    from scipy.integrate import quad

    f = _sampled([1.0] * 400)
    exact, _ = quad(lambda t: math.log(2 * math.e / t) ** 2, 0.0, 2.0)
    assert zygmund_norm(2.0, f) == pytest.approx(exact, rel=1e-9)


def _mpmath_zygmund(f):
    """int_0^2 f*(t) log(2e/t) dt in 40 digits, from f's cell widths and |values|."""
    import mpmath

    order = np.argsort(-np.abs(f.values), kind="stable")
    with mpmath.workdps(40):
        def F(t):  # an antiderivative of log(2e/t), 0 at t = 0
            return t * (mpmath.log(2 * mpmath.e / t) + 1) if t else mpmath.mpf(0)

        total, t0 = mpmath.mpf(0), mpmath.mpf(0)
        for v, w in zip(np.abs(f.values)[order], f.cell_widths()[order]):
            t1 = t0 + mpmath.mpf(float(w))
            total += mpmath.mpf(float(v)) * (F(t1) - F(t0))
            t0 = t1
        return total


@pytest.mark.parametrize("f", [
    *(SampledFunction([0.3 - h, 0.3, 0.3 + h], [0.0, 1.0, 0.0]) for h in (1e-6, 1e-10, 1e-12)),
    sample(lambda x: math.exp(x) * (1.5 + math.sin(7 * x)), 400),
], ids=["step-1e-6", "step-1e-10", "step-1e-12", "smooth-400"])
def test_zygmund_norm_matches_mpmath(f):
    # the lower incomplete gamma is near 1 at small t, so a difference of it loses
    # the digits of a small cell
    exact = _mpmath_zygmund(f)
    assert abs(zygmund_norm(1.0, f) / exact - 1) <= 4e-15


@pytest.mark.parametrize("h", [0.5, 0.1, 1e-3, 1e-6, 1e-8, 1e-10, 1e-12])
def test_zygmund_norm_of_a_step_is_h_log_2_over_h_plus_2(h):
    # the middle cell is (-h/2, h/2), exactly; the rearrangement is 1 on (0, h)
    step = SampledFunction([-h, 0.0, h], [0.0, 1.0, 0.0])
    assert zygmund_norm(1.0, step) == pytest.approx(h * (math.log(2 / h) + 2), rel=4e-15, abs=0)


def test_divergence_flag_for_inverse_weight_in_l2():
    # 1/w is in weak-L^2 but not L^2; the refinement must flag L^2 divergence
    est = lorentz_norm_with_divergence_check(inverse_sqrt_weight(), 2.0, 2.0)
    assert est.unbounded
    est = lorentz_norm_with_divergence_check(inverse_sqrt_weight(), 2.0, math.inf)
    assert not est.unbounded


def test_bounded_function_not_flagged():
    est = lorentz_norm_with_divergence_check(lambda x: 1.0 + x * x, 2.0, 2.0)
    assert not est.unbounded
    grid = sample(lambda x: 1.0 + x * x, 4000)
    assert est.value == pytest.approx(lorentz_norm(2.0, 2.0, grid), rel=1e-6)
