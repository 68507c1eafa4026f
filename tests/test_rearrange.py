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
