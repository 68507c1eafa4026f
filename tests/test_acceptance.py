"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line after its assertions so the criterion
status is visible with `pytest -s`; with plain `pytest -v` the per-test
PASSED/FAILED line serves the same purpose.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from finitehilbert.airfoil import solve_high, verify_roundtrip
from finitehilbert.cli import main as cli_main
from finitehilbert.engine import (
    fht_check,
    fht_hat,
    fht_pointwise,
    fht_polynomial_parts,
    fht_spectral,
    integrate_unit,
    project_P,
    project_Q,
)
from finitehilbert.errors import NotSolvable
from finitehilbert.functions import (
    EndpointWeightedFunction,
    IndicatorUnion,
    inverse_sqrt_weight,
    one,
    sqrt_weight,
)
from finitehilbert.harness import (
    check_laeng,
    check_parseval,
    check_poincare_bertrand,
    norm_probe,
)
from finitehilbert.series import FIRST_KIND, SECOND_KIND, ChebyshevSeries
from finitehilbert.spectrum import (
    SpaceDescriptor,
    classify_space,
    eigen_residual,
    gamma_of_lambda,
    partition_check,
    region_contains,
    sample_region,
)

GRID20 = np.linspace(-0.95, 0.95, 20)
GRID10 = np.linspace(-0.9, 0.9, 10)


def _poly(coeffs):
    return EndpointWeightedFunction(
        0.0, 0.0, ChebyshevSeries(np.asarray(coeffs, dtype=complex), FIRST_KIND)
    )


def _ok(n, text):
    print(f"criterion {n}: {text}: PASS")


def test_criterion_01_closed_form_fixtures():
    start = time.monotonic()
    x_over_w = EndpointWeightedFunction(
        -0.5, -0.5, ChebyshevSeries([0.0, 1.0], FIRST_KIND)
    )
    worst = 0.0
    for t in GRID20:
        t = float(t)
        worst = max(worst, abs(fht_pointwise(inverse_sqrt_weight(), t)))
        worst = max(worst, abs(fht_pointwise(sqrt_weight(), t) + t))
        worst = max(worst, abs(fht_pointwise(x_over_w, t) - 1.0))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    _ok(1, f"closed-form fixtures sup {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_spectral_vs_quadrature():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    # degree-20 random series exercise every mode of both weight classes
    f_low = EndpointWeightedFunction(
        -0.5, -0.5, ChebyshevSeries(rng.standard_normal(21).astype(complex),
                                    FIRST_KIND)
    )
    f_high = EndpointWeightedFunction(
        0.5, 0.5, ChebyshevSeries(rng.standard_normal(21).astype(complex),
                                  SECOND_KIND)
    )
    for func in (f_low, f_high):
        image = fht_spectral(func)
        for t in GRID20:
            t = float(t)
            worst = max(worst, abs(complex(image(t))
                                   - complex(fht_pointwise(func, t))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-7
    assert elapsed < 60.0
    _ok(2, f"spectral vs quadrature sup {worst:.2e} in {elapsed:.2f}s")


def test_criterion_03_inversion_round_trips():
    rng = np.random.default_rng(31)
    worst = {"TThat": 0.0, "TcheckT": 0.0, "TTcheck": 0.0, "ThatT": 0.0}
    worst_integral = 0.0
    for _ in range(25):
        deg = int(rng.integers(1, 17))
        g = _poly(rng.standard_normal(deg + 1))
        series = g.smooth

        # T(T_hat(g)) = g: inverse by spectral rule, T by quadrature
        hat = fht_hat(g)
        worst_integral = max(worst_integral, abs(complex(integrate_unit(hat))))
        for t in GRID10:
            t = float(t)
            worst["TThat"] = max(
                worst["TThat"],
                abs(fht_pointwise(hat, t) - complex(g(t))),
            )

        # T_check(T(g)) = g: T exactly, the outer pseudo-inverse by direct
        # theta quadrature.  Since p.v. int_0^pi d(theta)/(cos(theta) - t) = 0,
        #   T_check(h)(t) = -(w(t)/pi) int_0^pi (h(cos th) - h(t))/(cos th - t) dth,
        # a proper integral; the log factor of h = T(g) is evaluated stably
        # as 2 log tan(theta/2).
        rational, ser = fht_polynomial_parts(series.coeffs)

        def tg(t):
            return complex(rational(t)) + complex(ser(t)) * math.log(
                (1.0 - t) / (1.0 + t)) / math.pi

        def tg_theta(theta):
            x = math.cos(theta)
            log_val = 2.0 * math.log(math.tan(0.5 * theta))
            return complex(rational(x)) + complex(ser(x)) * log_val / math.pi

        for t in GRID10:
            t = float(t)
            tg_t = tg(t)
            dtg_t = (tg(t + 1e-6) - tg(t - 1e-6)) / 2e-6
            theta0 = math.acos(t)

            def quotient(theta):
                dx = math.cos(theta) - t
                if abs(dx) < 1e-13:
                    return dtg_t
                return (tg_theta(theta) - tg_t) / dx

            parts = 0.0 + 0.0j
            for a, b in ((0.0, theta0), (theta0, math.pi)):
                re_val, _ = integrate.quad(lambda s: quotient(s).real, a, b,
                                           epsabs=1e-11, epsrel=1e-11, limit=400)
                im_val, _ = integrate.quad(lambda s: quotient(s).imag, a, b,
                                           epsabs=1e-11, epsrel=1e-11, limit=400)
                parts += complex(re_val, im_val)
            val = -math.sqrt(1.0 - t * t) * parts / math.pi
            worst["TcheckT"] = max(worst["TcheckT"], abs(val - complex(g(t))))

        # T(T_check(g)) = g - Q(g)
        chk = fht_check(g)
        q = project_Q(g)
        for t in GRID10:
            t = float(t)
            val = fht_pointwise(chk, t)
            worst["TTcheck"] = max(
                worst["TTcheck"], abs(val - (complex(g(t)) - complex(q(t))))
            )

        # T_hat(T(f)) = f - P(f) on (1/w)-weighted inputs
        f = EndpointWeightedFunction(-0.5, -0.5, series)
        tf = fht_spectral(f)
        p = project_P(f)
        fw = EndpointWeightedFunction(0.5, 0.5, tf.smooth)
        for t in GRID10:
            t = float(t)
            val = -fht_pointwise(fw, t) / math.sqrt(1.0 - t * t)
            worst["ThatT"] = max(
                worst["ThatT"], abs(val - (complex(f(t)) - complex(p(t))))
            )

    assert max(worst.values()) <= 1e-6, worst
    assert worst_integral <= 1e-8
    _ok(3, "inversion round trips sup "
           + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
           + f"; int T_hat(g) sup {worst_integral:.2e}")


def test_criterion_04_solvability_trichotomy():
    with pytest.raises(NotSolvable) as info:
        solve_high(one())
    assert info.value.residual == pytest.approx(1.0, abs=1e-8)
    for n in range(1, 6):
        coeffs = [0.0] * n + [1.0]
        report = verify_roundtrip(_poly(coeffs), "high")
        assert report.max_residual <= 1e-6
    _ok(4, "g=1 rejected with residual 1.0; T_n (n=1..5) invert to 1e-6")


def test_criterion_05_eigen_relation():
    assert eigen_residual(0.0) <= 1e-8
    rng = np.random.default_rng(55)
    lams, worst = [], 0.0
    while len(lams) < 10:
        lam = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if region_contains(1.5, lam) != "interior":
            continue
        if gamma_of_lambda(lam) < 1.55:
            continue
        lams.append(lam)
        worst = max(worst, eigen_residual(lam, grid=np.linspace(-0.8, 0.8, 10)))
    assert worst <= 1e-5
    _ok(5, f"eigen residual sup {worst:.2e} over 10 interior lambdas, 1e-8 at 0")


def test_criterion_06_region_geometry():
    rng = np.random.default_rng(66)
    ps = [1.2, 1.5, 1.8, 2.5, 4.0]
    for p in ps:
        pp = p / (p - 1.0)
        for _ in range(100):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert region_contains(p, lam) == region_contains(pp, lam)
        if p != 2.0:
            assert region_contains(p, 1j / math.tan(math.pi / p)) == "boundary"
    # monotone nesting in |1/2 - 1/p|: every region contains every smaller one
    ordered = sorted(ps + [2.0], key=lambda p: abs(0.5 - 1.0 / p))
    for small, big in zip(ordered, ordered[1:]):
        for lam in sample_region(small, 100, rng):
            assert region_contains(big, lam) != "outside"
    _ok(6, "R_p = R_p' (5x100), cot boundary at 1e-12, nesting (5x100)")


LEBESGUE_LORENTZ_ROWS = [
    # (descriptor, point, residual, continuous)
    (SpaceDescriptor.lebesgue(1.5), "interior", "empty", "boundary"),
    (SpaceDescriptor.lebesgue(2.0), "empty", "empty", "closed_unit_interval"),
    (SpaceDescriptor.lebesgue(3.0), "empty", "interior", "boundary"),
    (SpaceDescriptor.lorentz(1.5, 1.0), "interior", "empty", "boundary"),
    (SpaceDescriptor.lorentz(1.5, 3.0), "interior", "empty", "boundary"),
    (SpaceDescriptor.lorentz(3.0, 1.0), "empty", "region_minus_endpoints",
     "endpoints_only"),
    (SpaceDescriptor.lorentz(3.0, 2.0), "empty", "interior", "boundary"),
    (SpaceDescriptor.lorentz(2.0, 1.0), "empty", "open_unit_interval",
     "endpoints_only"),
    (SpaceDescriptor.lorentz(2.0, 3.0), "empty", "empty", "closed_unit_interval"),
    # p = r recovers the Lebesgue rows
    (SpaceDescriptor.lorentz(1.5, 1.5), "interior", "empty", "boundary"),
    (SpaceDescriptor.lorentz(3.0, 3.0), "empty", "interior", "boundary"),
]

INDEXED_ROWS = [
    (SpaceDescriptor.indexed(1.5, 1.5, False, False), "interior", "empty",
     "boundary"),
    (SpaceDescriptor.indexed(1.5, 1.5, True, False), "region_minus_endpoints",
     "empty", "endpoints_only"),
    (SpaceDescriptor.indexed(3.0, 3.0, False, False), "empty", "interior",
     "boundary"),
    (SpaceDescriptor.indexed(3.0, 3.0, False, True), "empty",
     "region_minus_endpoints", "endpoints_only"),
    (SpaceDescriptor.indexed(2.0, 2.0, True, False), "open_unit_interval",
     "empty", "endpoints_only"),
    (SpaceDescriptor.indexed(2.0, 2.0, False, True), "empty",
     "open_unit_interval", "endpoints_only"),
    (SpaceDescriptor.indexed(2.0, 2.0, False, False), "empty", "empty",
     "closed_unit_interval"),
]


def test_criterion_07_fine_spectrum_tables():
    assert len(LEBESGUE_LORENTZ_ROWS) == 11 and len(INDEXED_ROWS) == 7
    for desc, pt, res, cont in LEBESGUE_LORENTZ_ROWS + INDEXED_ROWS:
        fs = classify_space(desc)
        assert (fs.point.kind, fs.residual.kind, fs.continuous.kind) == (
            pt, res, cont), desc
        ok, info = partition_check(fs, n=200, seed=7)
        assert ok, (desc, info)
    _ok(7, "all 11 + 7 table rows exact; 200-point partition checks pass")


def test_criterion_08_laeng_law():
    start = time.monotonic()
    rng = np.random.default_rng(88)
    lambdas = np.linspace(0.1, 2.0, 20)
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(-1.0, 1.0, 2 * k))
        while np.min(np.diff(cuts)) < 0.05:
            cuts = np.sort(rng.uniform(-1.0, 1.0, 2 * k))
        A = IndicatorUnion(tuple((cuts[2 * i], cuts[2 * i + 1])
                                 for i in range(k)))
        report = check_laeng(A, lambdas)
        worst = max(worst, report.max_abs_residual)
    elapsed = time.monotonic() - start
    assert worst <= 1e-3
    assert elapsed < 30.0
    _ok(8, f"Laeng law max rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_09_parseval_and_poincare_bertrand():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst_parseval = 0.0
    for _ in range(20):
        f = _poly(rng.standard_normal(int(rng.integers(1, 9))))
        g = _poly(rng.standard_normal(int(rng.integers(1, 9))))
        worst_parseval = max(worst_parseval,
                             check_parseval(f, g).max_abs_residual)
    assert worst_parseval <= 1e-6
    worst_pb = 0.0
    for _ in range(3):
        f = _poly(rng.standard_normal(4))
        g = _poly(rng.standard_normal(4))
        worst_pb = max(worst_pb,
                       check_poincare_bertrand(f, g, GRID10).max_abs_residual)
    elapsed = time.monotonic() - start
    assert worst_pb <= 1e-4
    assert elapsed < 120.0
    _ok(9, f"Parseval sup {worst_parseval:.2e}, "
           f"Poincare-Bertrand sup {worst_pb:.2e} in {elapsed:.2f}s")


def test_criterion_10_norm_bound():
    for p in (1.2, 1.5, 1.8):
        report, = norm_probe([p], family_size=50, seed=1010)
        bound = math.tan(math.pi / (2.0 * p))
        assert report.sup_ratio <= bound * 1.001, (p, report.sup_ratio, bound)
        if p == 1.5:
            assert bound == pytest.approx(math.sqrt(3.0), abs=1e-12)
    _ok(10, "sup ratio below tan(pi/(2p)) * 1.001 at p = 1.2, 1.5, 1.8 (50 each)")


def test_criterion_11_cli_determinism(tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = cli_main(["identities", "--suite", "all", "--seed", "42",
                         "--no-timestamp", "--output", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    _ok(11, "identities --suite all --seed 42 is byte-identical across runs")
