import math

import numpy as np
import pytest

from finitehilbert.errors import DegenerateGrid, ExponentOutOfRange, NonFiniteSample
from finitehilbert.functions import (
    EndpointWeightedFunction,
    IndicatorUnion,
    SampledFunction,
    constant_series,
    inverse_sqrt_weight,
    one,
    sample,
    sampled_from_csv,
    sampled_to_csv,
    sqrt_weight,
)
from finitehilbert.series import SECOND_KIND, ChebyshevSeries


def test_weight_matches_direct_formula():
    f = EndpointWeightedFunction(0.3, -0.2, constant_series(2.0))
    x = 0.4
    expected = 2.0 * (1 - x) ** 0.3 * (1 + x) ** (-0.2)
    assert f(x) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("coeffs", [[0.3, -1.2, 0.7], [0.3 + 0.1j, 2.0j, -1.0]])
def test_plain_series_float_call_equals_weight_times_series(coeffs):
    f = EndpointWeightedFunction(0.0, 0.0, ChebyshevSeries(coeffs, SECOND_KIND))
    for x in np.linspace(-0.999, 0.999, 41).tolist():
        expected = f.weight(x) * f.smooth(x)
        if f.real_valued:
            expected = expected.real
        assert f(x) == expected


def test_sqrt_weight_pair():
    x = np.linspace(-0.9, 0.9, 7)
    w = np.sqrt(1 - x**2)
    assert np.allclose(sqrt_weight()(x), w, atol=1e-14)
    assert np.allclose(inverse_sqrt_weight()(x), 1 / w, atol=1e-13)
    assert np.allclose(one()(x), 1.0)


def test_rejects_non_integrable_exponents():
    with pytest.raises(ExponentOutOfRange):
        EndpointWeightedFunction(-1.0, 0.0, constant_series())
    with pytest.raises(ExponentOutOfRange):
        EndpointWeightedFunction(0.0, -1.5, constant_series())


@pytest.mark.parametrize("a, b", [
    (math.nan, 0.0), (complex(0.3, math.nan), 0.0), (0.3, math.inf),
    (0.3, complex(0.0, math.inf)), (complex(-math.inf, 0.0), 0.0),
])
def test_rejects_non_finite_exponents(a, b):
    with pytest.raises(ExponentOutOfRange, match="must be finite"):
        EndpointWeightedFunction(a, b, constant_series())


def test_complex_exponents_single_valued():
    f = EndpointWeightedFunction(-0.5 + 0.1j, -0.5 - 0.1j, constant_series())
    v = f(0.3)
    expected = np.exp((-0.5 + 0.1j) * np.log(0.7) + (-0.5 - 0.1j) * np.log(1.3))
    assert v == pytest.approx(expected, abs=1e-14)


def test_sampled_function_validation():
    with pytest.raises(DegenerateGrid):
        SampledFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(DegenerateGrid):
        SampledFunction(np.array([-1.0, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteSample):
        SampledFunction(np.array([-0.5, 0.5]), np.array([1.0, float("inf")]))


def test_cell_edges_cover_domain():
    f = SampledFunction(np.array([-0.5, 0.0, 0.5]), np.ones(3))
    edges = f.cell_edges()
    assert edges[0] == -1.0 and edges[-1] == 1.0
    assert f.cell_widths().sum() == pytest.approx(2.0)


def test_sample_spacings():
    s = sample(lambda x: x * x, 50)
    assert len(s) == 50
    assert np.all(np.abs(s.points) <= 1.0 - s.eps_edge)
    assert np.allclose(s.values.real, s.points**2, atol=1e-14)


def test_indicator_union_normalization():
    A = IndicatorUnion(((0.2, 0.5), (-0.5, 0.0), (0.0, 0.1)))
    # abutting (-0.5,0) and (0,0.1) merge
    assert A.intervals == ((-0.5, 0.1), (0.2, 0.5))
    assert A.measure() == pytest.approx(0.9)
    with pytest.raises(ValueError):
        IndicatorUnion(((0.0, 0.5), (0.4, 0.6)))


def test_csv_round_trip():
    f = SampledFunction(np.array([-0.5, 0.1, 0.7]),
                        np.array([1.0 + 2.0j, -0.25, 0.0]))
    text = sampled_to_csv(f)
    assert text.splitlines()[0] == "x,re,im"
    back = sampled_from_csv(text)
    assert np.allclose(back.points, f.points)
    assert np.allclose(back.values, f.values)


def test_rearrangement_domain():
    f = SampledFunction(np.array([0.5, 1.0, 1.5]), np.array([3.0, 1.0, 2.0]),
                        eps_edge=0.0, domain=(0.0, 2.0))
    assert math.isclose(f.cell_widths().sum(), 2.0)
