import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitehilbert.errors import (
    BranchViolation,
    OutsideEigenvalueSet,
    UnsupportedDescriptor,
)
from finitehilbert.harness import TOLERANCES
from finitehilbert.spectrum import (
    SpaceDescriptor,
    classify_point,
    classify_space,
    eigen_residual,
    gamma_of_lambda,
    in_eigenvalue_set,
    partition_check,
    region_boundary_points,
    region_contains,
    resolve_catalog,
    sample_region,
    xi_function,
    z_of_lambda,
)


def test_z_branch_and_values():
    assert z_of_lambda(0.0) == 0.0
    # z(i) = log(i)/(2 pi i) = 1/4 ... arg pi/2 over 2 pi
    assert z_of_lambda(1.0j) == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(BranchViolation):
        z_of_lambda(3.0)  # (1+3)/(1-3) = -2 on the cut
    with pytest.raises(BranchViolation):
        z_of_lambda(1.0)


def test_gamma_values():
    assert gamma_of_lambda(0.0) == pytest.approx(2.0, abs=1e-14)
    assert gamma_of_lambda(0.5j) == pytest.approx(1.5442021273302218, abs=1e-10)
    # real lambda in (-1,1) always gives gamma = 2
    for lam in (-0.9, -0.3, 0.7):
        assert gamma_of_lambda(lam) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(OutsideEigenvalueSet):
        gamma_of_lambda(1.5)
    assert not in_eigenvalue_set(-2.0)
    # eigen_residual has no check of its own: gamma_of_lambda raises
    with pytest.raises(OutsideEigenvalueSet, match="excluded real rays"):
        eigen_residual(-2.0)


def test_region_membership():
    # R_2 is the segment [-1, 1]
    assert region_contains(2.0, 0.5) == "boundary"
    assert region_contains(2.0, 0.1j) == "outside"
    assert region_contains(1.5, 0.0) == "interior"
    assert region_contains(1.5, 5.0j) == "outside"
    assert region_contains(1.5, 1.0) == "boundary"


def test_cot_point_on_boundary():
    for p in (1.2, 1.5, 3.0, 4.0):
        assert region_contains(p, 1j / math.tan(math.pi / p)) == "boundary"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_region_duality_and_reflection(lam):
    p = 1.7
    pp = p / (p - 1.0)
    assert region_contains(p, lam) == region_contains(pp, lam)
    assert region_contains(p, -lam) == region_contains(p, lam)
    assert region_contains(p, lam.conjugate()) == region_contains(p, lam)


def test_boundary_polyline_classifies_boundary():
    for p in (1.3, 2.5):
        for n in (8, 9, 400, 403):
            pts = region_boundary_points(p, n)
            assert len(pts) == n
            # each arc runs from -1 to 1; the first takes the extra point of an odd n
            for arc in (pts[: (n + 1) // 2], pts[(n + 1) // 2:]):
                assert (arc[0], arc[-1]) == (-1.0, 1.0)
            assert all(region_contains(p, z) == "boundary" for z in pts)


@pytest.mark.parametrize("n", [8, 9, 400, 403])
def test_boundary_polyline_at_p2_draws_the_segment_once(n):
    # both arcs are the segment [-1, 1] there; each point appears once
    pts = region_boundary_points(2.0, n)
    assert len(np.unique(pts)) == len(pts) == n
    assert np.all(pts.imag == 0.0) and np.all(np.diff(pts.real) > 0.0)
    assert (pts[0], pts[-1]) == (-1.0, 1.0)
    assert all(region_contains(2.0, z) == "boundary" for z in pts)


@pytest.mark.parametrize("n", [0, 1, 5, 7])
def test_boundary_polyline_rejects_fewer_than_8_points(n):
    with pytest.raises(ValueError):
        region_boundary_points(1.5, n)


def test_xi_exponents():
    xi = xi_function(0.5j)
    z = z_of_lambda(0.5j)
    assert xi.a == pytest.approx(-0.5 + z)
    assert xi.b == pytest.approx(-0.5 - z)


def test_eigen_relation_at_zero():
    assert eigen_residual(0.0) < 1e-8


def test_eigen_relation_complex():
    assert eigen_residual(0.2 + 0.3j, grid=np.linspace(-0.8, 0.8, 8)) < 1e-5


@pytest.mark.xfail(strict=True, reason=(
    "p.v. quadrature misses at t = 0.18: on its (phi, pi) half quad accepts a real part "
    "off by 2.5e-4 against mpmath with an error estimate of 1.4e-12, so the residual is "
    "4.06e-05 against 1e-5; 1 of 1,800 eigencheck ops over decks 0-299 of the quadrature "
    "workload, seed 10 (deck 217)"))
def test_eigen_relation_at_a_lambda_where_quadrature_misses():
    lam = 0.6307 + 0.5262j
    assert eigen_residual(lam, grid=np.linspace(-0.9, 0.9, 11)) < TOLERANCES["eigen_complex"]


def test_lebesgue_classification_rows():
    fs = classify_space(SpaceDescriptor.lebesgue(1.5))
    assert (fs.point.kind, fs.residual.kind, fs.continuous.kind) == (
        "interior", "empty", "boundary")
    fs = classify_space(SpaceDescriptor.lebesgue(2.0))
    assert (fs.point.kind, fs.residual.kind, fs.continuous.kind) == (
        "empty", "empty", "closed_unit_interval")
    fs = classify_space(SpaceDescriptor.lebesgue(3.0))
    assert (fs.point.kind, fs.residual.kind, fs.continuous.kind) == (
        "empty", "interior", "boundary")


def test_lorentz_rejects_weak_spaces():
    message = "weak Lorentz spaces are non-separable; tables cover 1 <= r < inf"
    with pytest.raises(UnsupportedDescriptor, match=f"^{re.escape(message)}$"):
        SpaceDescriptor.lorentz(2.0, math.inf)
    with pytest.raises(UnsupportedDescriptor, match=f"^{re.escape(message)}$"):
        resolve_catalog("lorentz:2,oo")


def test_descriptor_validation():
    with pytest.raises(UnsupportedDescriptor):
        SpaceDescriptor.indexed(1.5, 2.0, False, False)  # q > p
    with pytest.raises(UnsupportedDescriptor):
        SpaceDescriptor.indexed(2.0, 2.0, True, True)  # both attained


def test_classify_point_four_ways():
    leb = SpaceDescriptor.lebesgue(1.5)
    assert classify_point(leb, 0.0) == "point"
    assert classify_point(leb, 3.0) == "resolvent"
    assert classify_point(leb, 1.0) == "continuous"
    assert classify_point(SpaceDescriptor.lebesgue(3.0), 0.0) == "residual"


def test_classify_point_symmetry():
    rng = np.random.default_rng(17)
    desc = SpaceDescriptor.lorentz(1.4, 2.0)
    for lam in sample_region(1.4, 30, rng):
        c = classify_point(desc, lam)
        assert classify_point(desc, -lam) == c
        assert classify_point(desc, lam.conjugate()) == c


def test_point_spectrum_is_r_balanced():
    desc = SpaceDescriptor.lebesgue(1.5)
    rng = np.random.default_rng(23)
    pts = [lam for lam in sample_region(1.5, 50, rng)
           if classify_point(desc, lam) == "point"]
    assert pts
    for lam in pts[:20]:
        for alpha in (0.25, 0.5, 1.0):
            assert classify_point(desc, alpha * lam) == "point"


def test_partition_checks():
    for desc in (SpaceDescriptor.lebesgue(1.5),
                 SpaceDescriptor.lebesgue(2.0),
                 SpaceDescriptor.lorentz(3.0, 1.0),
                 SpaceDescriptor.indexed(3.0, 1.5, False, False)):
        ok, info = partition_check(desc, n=200, seed=0)
        assert ok, info


def _boyd_fields(desc):
    return desc.p_index, desc.q_index, desc.p_attained, desc.q_attained


def test_catalog_resolution():
    # a descriptor is its Boyd indices and nothing else
    assert [f.name for f in dataclasses.fields(SpaceDescriptor)] == [
        "p_index", "q_index", "p_attained", "q_attained"]
    assert _boyd_fields(resolve_catalog("lebesgue:2")) == (2.0, 2.0, False, False)
    desc = resolve_catalog("lorentz:1.5,3")
    assert _boyd_fields(desc) == (1.5, 1.5, False, False)
    assert SpaceDescriptor.catalog("lorentz:1.5,3") == desc
    assert _boyd_fields(resolve_catalog("lorentz:3,1")) == (3.0, 3.0, False, True)
    desc = resolve_catalog("indexed:3,1.5,yes,0")
    assert _boyd_fields(desc) == (3.0, 1.5, True, False)
    for bad in ("orlicz:whatever", "indexed:3,1.5,maybe,0"):
        with pytest.raises(UnsupportedDescriptor):
            resolve_catalog(bad)
