"""Seeded op decks for the fht benchmark, each op with its own reference check.

An op is one ``fht`` command line (plus the CSV files it reads) and a check
that compares the command's output against ``reference``.  A workload is an
endless sequence of decks: deck ``j`` of seed ``s`` is built from
``default_rng([s, j])``.  A deck holds a fixed number of ops of each kind, and
the parameters that set an op's cost (degree, grid size, number of points,
family size) are spread evenly over their range by the op's slot ``u`` in
(0, 1), not drawn.  So every deck costs about the same whatever the seed; the
seed draws the coefficients, points, exponents and flags.

A check raises ``Mismatch`` when the output is wrong and otherwise returns the
op's error against the benchmark's own reference, relative to max(1, |ref|).
Residuals the program prints about itself are held to their documented
tolerances but are not such errors.  Ops tagged ``known_defect`` reproduce a
defect of the program listed in README.md; they count as failed like any
other op, and when they fail in the defect's own way they do not make the
run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C

import reference as ref

WORK_DIR = ".bench_work"

# Largest error, relative to max(1, |reference|), that a value may carry.
VALUE_TOL = 1e-6
# The program's own tolerances: harness.TOLERANCES, cmd_eigencheck, airfoil.
IDENTITY_TOL = {"parseval": 1e-6, "poincare_bertrand": 1e-4, "laeng": 1e-3,
                "kernel": 1e-8}
NORM_SLACK = 1e-3
# Exit code of identities and norms when a report misses its tolerance.
EXIT_REPORT_FAIL = 1
STABILITY = 0.10
SOLVABILITY_TOL = 1e-8


# Screened at the commit that introduced the benchmark by screen_laeng.py:
# suite seeds whose level-set report passes, and seeds whose report fails.
LAENG_PASSING_SEEDS = (
    1451336746, 460255569, 664543175, 1951374833, 1716840368, 1965675192, 2138468722,
    305440497, 1863865138, 169061795, 388316182, 1962406241, 364254564, 984590867,
    1718405261, 2117426094, 1047219577, 1214898180, 998835874, 142202828, 1716759498,
    1107046600, 1281666272, 741254573, 698683063, 278259764, 1646651383, 597089358,
    1548181879, 1878957653, 1781459346, 457751913,
)
LAENG_FAILING_SEEDS = (
    518677875, 198305900, 682143856, 168654339, 356456226, 772335818, 566571107,
    1264351001,
)


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


class OutOfTolerance(Mismatch):
    """A value in the program's output misses the reference by more than its tolerance."""


# What a check may raise on output that is wrong or malformed.
CHECK_ERRORS = (Mismatch, KeyError, ValueError, TypeError, IndexError)


@dataclass(frozen=True)
class KnownDefect:
    """A defect of the program and the one failure by which it shows.

    ``failure`` names the failure as run.execute does: "raises ValueError",
    "exit 1" or "check OutOfTolerance".  ``confirm(out, err)`` raises one of
    CHECK_ERRORS when the output of that failure is not the known one.  Any
    other failure of the op is a new defect.
    """

    text: str
    failure: str
    confirm: Callable[[str, str], None] = lambda out, err: None

    def shown_by(self, failure, out, err):
        if failure != self.failure:
            return False
        try:
            self.confirm(out, err)
        except CHECK_ERRORS:
            return False
        return True


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[str, str], float]
    expect_exit: int = 0
    files: dict = field(default_factory=dict)  # relative path -> bytes
    known_defect: KnownDefect | None = None


@dataclass(frozen=True)
class Slot:
    """Where an op sits in its deck: a unique name and its position u in (0, 1)."""

    name: str
    u: float

    def pick(self, lo, hi, stride=1):
        """An integer in [lo, hi] at this slot's position; strides decorrelate picks."""
        return lo + int((self.u * stride) % 1.0 * (hi - lo + 1))

    def near(self, rng, stride=1):
        """A position in [0, 1) drawn close to this slot's position."""
        return (self.u * stride + rng.uniform(-0.05, 0.05)) % 1.0


# ---------------------------------------------------------------------------
# Formatting and parsing.

def _num(c):
    c = complex(c)
    return repr(c.real) if c.imag == 0.0 else repr(c)


def _coeffs(cs):
    return ",".join(_num(c) for c in cs)


def _random_coeffs(rng, n, complex_share=0.25):
    cs = rng.standard_normal(n).astype(complex)
    if rng.random() < complex_share:
        cs += 1j * rng.standard_normal(n)
    return cs


def _points(rng, n, lo=-0.95, hi=0.95):
    return np.round(np.sort(rng.uniform(lo, hi, n)), 6)


def _points_arg(pts):
    # the = form keeps argparse from reading a leading minus sign as an option
    return "--points=" + ",".join(repr(float(t)) for t in pts)


def _grid(n):
    return np.linspace(-0.9, 0.9, n)


def _json(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc


def _table(out, fmt, pts):
    """The values of a transform table in JSON or CSV form, taken at pts."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["x", "re", "im"]:
            raise Mismatch(f"bad CSV header {rows[0]}")
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        xs, values = data[:, 0], data[:, 1] + 1j * data[:, 2]
    else:
        payload = _json(out)
        if payload.get("command") != "transform":
            raise Mismatch("not a transform payload")
        xs = np.array([row["x"] for row in payload["table"]])
        values = np.array([complex(row["re"], row["im"]) for row in payload["table"]])
    if len(xs) != len(pts) or np.max(np.abs(xs - pts)) > 1e-15:
        raise Mismatch("table points differ from the requested points")
    return values


def _csv_bytes(x, values):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "re", "im"])
    for xi, v in zip(x, values):
        writer.writerow([repr(float(xi)), repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue().encode()


def _within(error, tol, what):
    if not error <= tol:
        raise OutOfTolerance(f"{what} {error:.2e} exceeds {tol:g}")
    return error


# ---------------------------------------------------------------------------
# Transform ops.

def _transform_op(kind, rng, spec, exact, pts, grid=False, files=None, known_defect=None):
    """An op evaluating T(spec) at pts (given as a uniform --grid when grid is set).

    exact(t) is the reference transform.
    """
    argv = ["transform", "--f", spec, "--no-timestamp"]
    argv += ["--grid", str(len(pts))] if grid else [_points_arg(pts)]
    widom = rng.random() < 0.25
    if widom:
        argv += ["--convention", "widom"]
    fmt = "csv" if rng.random() < 0.25 else "json"
    if fmt == "csv":
        argv += ["--format", "csv"]

    def check(out, err):
        want = exact(pts) / (1j if widom else 1.0)
        return _within(ref.rel_err(_table(out, fmt, pts), want), VALUE_TOL, "transform error")

    return Op(kind, argv, check, files=files or {}, known_defect=known_defect)


def _plain_spec(rng, degree):
    """A (0,0) chebT or chebU series and its exact transform."""
    cs = _random_coeffs(rng, degree + 1)
    if rng.random() < 0.5:
        return f"chebT:[{_coeffs(cs)}]", lambda t: ref.plain_transform(cs, t)
    tc = ref.u_to_t(cs)
    return f"chebU:[{_coeffs(cs)}]", lambda t: ref.plain_transform(tc, t)


def op_series(rng, slot, grid=False):
    """A (0,0) input: chebT or chebU of degree 1-24, or poly of degree 1-60.

    The program evaluates (0,0) series through monomials, so chebT and chebU
    inputs lose digits with degree (up to about 6e-8 at 24, 1e-3 at 40); those of
    degree 40-60 are op_high_degree's known defect, and 25-39 are left out
    because there the 1e-6 tolerance is met at some points and not others.
    poly inputs are monomials already and keep their digits up to 60.
    """
    pts = _grid(slot.pick(50, 400)) if grid else _points(rng, slot.pick(1, 3))
    kind = "grid_series" if grid else "points_series"
    if rng.random() < 0.25:
        mono = _random_coeffs(rng, slot.pick(2, 61, stride=7))
        return _transform_op(kind, rng, f"poly:[{_coeffs(mono)}]",
                             lambda t: ref.monomial_transform(mono, t), pts, grid)
    spec, exact = _plain_spec(rng, slot.pick(1, 24, stride=7))
    return _transform_op(kind, rng, spec, exact, pts, grid)


def op_high_degree(rng, slot):
    spec, exact = _plain_spec(rng, slot.pick(40, 60))
    return _transform_op("high_degree", rng, spec, exact, _points(rng, slot.pick(1, 3, 7)),
                         known_defect=HIGH_DEGREE)


def op_weight(rng, slot, grid=False):
    """One of the two canonical weights, w or 1/w, times a series of degree 1-60."""
    pts = _grid(slot.pick(50, 400)) if grid else _points(rng, slot.pick(1, 3, stride=3))
    cs = _random_coeffs(rng, slot.pick(2, 61, stride=7))
    tag = "chebT" if rng.random() < 0.5 else "chebU"
    tc = cs if tag == "chebT" else ref.u_to_t(cs)
    if rng.random() < 0.5:
        spec = f"weighted:{{-0.5,-0.5,{tag}:[{_coeffs(cs)}]}}"
        exact = lambda t: ref.inverse_weight_transform(tc, t)  # noqa: E731
    else:
        spec = f"weighted:{{0.5,0.5,{tag}:[{_coeffs(cs)}]}}"
        exact = lambda t: ref.weight_transform(tc, t)  # noqa: E731
    return _transform_op("grid_weight" if grid else "points_weight", rng, spec, exact,
                         pts, grid)


def _cubic_csv(slot, tc):
    """Samples of sum tc_n T_n on 50-400 interior points; a cubic spline reproduces them."""
    x = np.linspace(-0.999, 0.999, slot.pick(50, 400))
    return {f"{WORK_DIR}/{slot.name}.csv": _csv_bytes(x, C.chebval(x, tc))}


def op_csv(rng, slot):
    tc = _random_coeffs(rng, 4)
    files = _cubic_csv(slot, tc)
    grid = rng.random() < 0.5
    pts = _grid(slot.pick(20, 200, stride=7)) if grid else _points(rng, slot.pick(1, 3, 7))
    return _transform_op("csv", rng, f"csv:{next(iter(files))}",
                         lambda t: ref.plain_transform(tc, t), pts, grid, files=files)


_EXPONENT_BANDS = ((-0.9, -0.55), (-0.45, -0.05), (0.05, 0.45), (0.55, 0.9))


def _exponent(position):
    """The real exponent at position in [0, 1) of the bands in (-0.9, 0.9) that keep
    0.05 away from integers and half-integers."""
    s = position * sum(hi - lo for lo, hi in _EXPONENT_BANDS)
    for lo, hi in _EXPONENT_BANDS:
        if s <= hi - lo:
            return float(np.round(lo + s, 4))
        s -= hi - lo
    return _EXPONENT_BANDS[-1][1]


def op_jacobi(rng, slot, grid=False):
    """w (c1 P_m + c2 P_n) with Jacobi polynomials of the weight's own exponents.

    Its transform has a closed form only through the Jacobi formula.
    """
    a, b = _exponent(slot.near(rng)), _exponent(slot.near(rng, stride=3))
    first = slot.pick(0, 4, stride=7)
    degrees = (first, (first + slot.pick(1, 4, stride=11)) % 5)
    weights = rng.standard_normal(2)
    tc = np.zeros(int(max(degrees)) + 1)
    for n, c in zip(degrees, weights):
        pc = ref.jacobi_cheb(int(n), a, b)
        tc[: len(pc)] += c * pc
    spec = f"weighted:{{{a!r},{b!r},chebT:[{_coeffs(tc)}]}}"

    def exact(t):
        return sum(c * ref.jacobi_transform(int(n), a, b, t) for n, c in zip(degrees, weights))

    pts = _grid(slot.pick(3, 7)) if grid else _points(rng, slot.pick(1, 3))
    return _transform_op("jacobi_grid" if grid else "jacobi_points", rng, spec, exact,
                         pts, grid)


def _lambda(rng, slot, real):
    """lambda near the slot's place in the eigenvalue set, with gamma >= 1.25."""
    while True:
        im = 0.0 if real else rng.choice([-1.0, 1.0]) * (0.05 + 0.95 * slot.near(rng, 3))
        lam = complex(np.round(-0.9 + 1.8 * slot.near(rng), 4), np.round(im, 4))
        if ref.gamma_of_lambda(lam) >= 1.25:
            return lam


def op_xi(rng, slot):
    """(T/i) xi = lambda xi for complex exponents, which stay on quadrature."""
    lam = _lambda(rng, slot, real=False)
    z = ref.z_of_lambda(lam)
    spec = f"weighted:{{{_num(-0.5 + z)},{_num(-0.5 - z)},chebT:[1.0]}}"
    pts = _points(rng, slot.pick(1, 2), -0.9, 0.9)
    argv = ["transform", "--f", spec, "--no-timestamp", "--convention", "widom",
            _points_arg(pts)]

    def check(out, err):
        return _within(ref.rel_err(_table(out, "json", pts), lam * ref.xi(lam, pts)),
                       VALUE_TOL, "eigenfunction transform error")

    return Op("xi_transform", argv, check)


def op_eigencheck(rng, slot):
    real = slot.u < 0.5
    lam = _lambda(rng, Slot(slot.name, (2 * slot.u) % 1.0), real)
    grid = slot.pick(6, 12, stride=2)
    argv = ["eigencheck", f"--lambda={lam.real!r},{lam.imag!r}", "--grid", str(grid),
            "--no-timestamp"]
    tol = 1e-8 if real else 1e-5

    def check(out, err):
        payload = _json(out)
        if payload["tolerance"] != tol or payload["grid_size"] != grid:
            raise Mismatch("eigencheck tolerance or grid differs")
        residual = payload["max_residual"]
        if not (residual <= tol and payload["pass"] is True):
            raise Mismatch(f"eigen residual {residual:.2e}")
        return _within(abs(payload["gamma"] - ref.gamma_of_lambda(lam)), 1e-12, "gamma error")

    return Op("eigencheck", argv, check)


# ---------------------------------------------------------------------------
# Airfoil inversion ops.

def op_invert(rng, slot, csv_rhs=False):
    high = slot.u < 0.5
    tc = _random_coeffs(rng, 4 if csv_rhs else slot.pick(2, 8, stride=3))
    if high:
        tc[0] = 0.0
    files = {}
    if csv_rhs:
        files = _cubic_csv(slot, tc)
        spec = f"csv:{next(iter(files))}"
    elif rng.random() < 0.5:
        spec = f"chebT:[{_coeffs(tc)}]"
    else:
        spec = f"chebU:[{_coeffs(ref.t_to_u(tc))}]"
    argv = ["invert", "--g", spec, "--regime", "high" if high else "low", "--no-timestamp"]
    constant = 0.0
    if not high:
        constant = complex(np.round(rng.standard_normal(), 4),
                           np.round(rng.standard_normal(), 4) if rng.random() < 0.3 else 0.0)
        argv.append(f"--constant={_num(constant)}")
    solution = ref.solve_high(tc) if high else ref.solve_low(tc, constant)
    probe = np.linspace(-0.9, 0.9, 9)

    def check(out, err):
        payload = _json(out)
        _within(payload["roundtrip_residual"], VALUE_TOL, "round-trip residual")
        a, b, basis, coeffs = ref.parse_spec(payload["solution"])
        error = ref.rel_err(ref.weighted_eval(a, b, basis, coeffs, probe),
                            ref.weighted_eval(*solution, probe))
        if high:
            # int g/w is exactly 0 here
            error = max(error, _within(payload["solvability_residual"], SOLVABILITY_TOL,
                                       "solvability residual"))
        else:
            error = max(error, abs(complex(*payload["constant_recovered"]) - constant))
        return _within(error, VALUE_TOL, "inversion error")

    return Op("invert_csv" if csv_rhs else "invert", argv, check, files=files)


_RESIDUAL_RE = re.compile(r"not solvable: residual ([-+0-9.eE]+)")


def op_unsolvable(rng, slot):
    """High regime with int g/w = pi c_0 != 0: exit 4 and the residual |c_0|."""
    if slot.u < 0.5:
        tc = np.array([1.0])
    else:
        tc = _random_coeffs(rng, int(rng.integers(1, 6)), complex_share=0.0)
        tc[0] = np.round(rng.choice([-1, 1]) * rng.uniform(0.1, 2.0), 4)
    argv = ["invert", "--g", f"chebT:[{_coeffs(tc)}]", "--regime", "high", "--no-timestamp"]

    def check(out, err):
        m = _RESIDUAL_RE.search(err)
        if m is None:
            raise Mismatch("exit 4 without the residual")
        # printed to 7 digits, so it is checked but says nothing about precision
        _within(abs(float(m.group(1)) - abs(tc[0])) / max(1.0, abs(tc[0])), 1e-6,
                "solvability residual error")
        return 0.0

    return Op("unsolvable", argv, check, expect_exit=4)


# ---------------------------------------------------------------------------
# Spectrum classification.

def op_classify(rng, slot):
    while True:
        p = float(f"{rng.uniform(1.1, 4.0):.3f}")
        if abs(p - 2.0) >= 0.05:
            break
    if rng.random() < 0.5:
        kind, r, space = "lebesgue", None, f"lebesgue:{p!r}"
    else:
        r = float(rng.choice([1.0, 1.5, 3.0, 6.0]))
        kind, space = "lorentz", f"lorentz:{p!r},{r!r}"
    while True:
        lam = complex(np.round(rng.uniform(-0.95, 0.95), 4), np.round(rng.uniform(-1.5, 1.5), 4))
        d, tau = ref.region_position(p, lam)
        if abs(d - tau) > 0.01:
            break
    argv = ["classify", "--space", space, f"--lambda={lam.real!r},{lam.imag!r}",
            "--no-timestamp"]
    parts = ref.fine_spectrum(kind, p, r)
    label = ref.classify_point(kind, p, r, lam)

    def check(out, err):
        payload = _json(out)
        got = (payload["point"], payload["residual"], payload["continuous"])
        if got != parts or payload["classification"] != label or payload["sigma_p"] != p:
            raise Mismatch(f"classification {got} {payload['classification']}")
        return 0.0

    return Op("classify", argv, check)


# ---------------------------------------------------------------------------
# Identity suites and norm probes.

_SUITE_REPORTS = {"parseval": ("parseval", 6), "pb": ("poincare_bertrand", 2),
                  "laeng": ("laeng", 2), "kernel": ("kernel", 2), "norms": (None, 3)}


def _check_norm_report(report, p, family_size, seed):
    """Error of the probe's sup ratio against a numpy recomputation from the same seed."""
    bound = math.tan(math.pi / (2.0 * p))
    if abs(report["analytic_bound"] - bound) > 1e-14 * bound:
        raise Mismatch("analytic bound differs from tan(pi/(2p))")
    if report["pass"] != (report["sup_ratio"] <= bound * (1.0 + NORM_SLACK)):
        raise Mismatch("norm report pass flag disagrees with its bound")
    want = ref.norm_sup_ratio(p, family_size, seed)
    return _within(abs(report["sup_ratio"] - want) / max(1.0, want), 1e-9,
                   "norm sup ratio error")


def _check_pass_flag(payload):
    if payload["pass"] is not all(r["pass"] for r in payload["reports"]):
        raise Mismatch("payload pass flag disagrees with its reports")


def _suite_reports(out, suite):
    """The reports of an identities payload, once their number, names,
    tolerances and pass flags are checked."""
    payload = _json(out)
    reports = payload["reports"]
    name, count = _SUITE_REPORTS[suite]
    if len(reports) != count:
        raise Mismatch(f"{len(reports)} reports, expected {count}")
    _check_pass_flag(payload)
    if suite != "norms":
        for report in reports:
            tol = IDENTITY_TOL[name]
            if report["name"] != name or report["tolerance"] != tol:
                raise Mismatch("identity report name or tolerance differs")
            if report["pass"] is not (report["max_abs_residual"] <= tol):
                raise Mismatch("identity report pass flag disagrees with its residual")
    return reports


def op_suite(rng, suite, seed=None, known_defect=None):
    """identities --suite; the identities hold exactly, so every report must pass."""
    if seed is None:
        seed = int(rng.integers(0, 2**31 - 1))
    argv = ["identities", "--suite", suite, "--seed", str(seed), "--no-timestamp"]
    name = _SUITE_REPORTS[suite][0]

    def check(out, err):
        reports = _suite_reports(out, suite)
        if suite == "norms":
            return max(_check_norm_report(r, r["p"], r["family_size"], r["seed"])
                       for r in reports)
        for report in reports:
            _within(report["max_abs_residual"], IDENTITY_TOL[name], f"{name} residual")
        return 0.0

    return Op(f"suite_{suite}", argv, check, known_defect=known_defect)


def op_laeng(rng, slot, failing=False):
    pool = LAENG_FAILING_SEEDS if failing else LAENG_PASSING_SEEDS
    return op_suite(rng, "laeng", seed=int(rng.choice(pool)),
                    known_defect=LAENG if failing else None)


def op_norms(rng, family, n_p=1, loglog=False):
    """norms at n_p seeded exponents p in (1,2); the family size sets the cost."""
    ps = [float(f"{p:.3f}") for p in rng.uniform(1.05, 1.95, n_p)]
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["norms", "--p", ",".join(repr(p) for p in ps), "--family-size", str(family),
            "--seed", str(seed), "--no-timestamp"]
    if loglog:
        argv.append("--loglog")

    def check(out, err):
        payload = _json(out)
        reports = payload["reports"]
        if len(reports) != len(ps) + loglog:
            raise Mismatch("wrong number of norm reports")
        _check_pass_flag(payload)
        error = max(_check_norm_report(r, p, family, seed) for r, p in zip(reports, ps))
        if loglog:
            probe = reports[-1]
            sup, fine = probe["sup_ratio"], probe["refined_sup_ratio"]
            stable = abs(fine - sup) <= STABILITY * sup
            if not (math.isfinite(sup) and sup > 0.0 and probe["stable"] is stable
                    and probe["pass"] is stable):
                raise Mismatch("L log L probe flags disagree with its ratios")
        return error

    return Op("norms_loglog" if loglog else "norms", argv, check)


# ---------------------------------------------------------------------------
# Known defects of the program at the commit that introduced the benchmark.

def _laeng_misses(out, err):
    """The laeng failure: well-formed reports, one of them over its tolerance."""
    if all(report["pass"] for report in _suite_reports(out, "laeng")):
        raise Mismatch("laeng reports all pass, yet the command failed")


HIGH_DEGREE = KnownDefect(
    "closed-form transform of a (0,0) series of degree >= 40 loses all digits",
    "check OutOfTolerance")
LAENG = KnownDefect("identities --suite laeng fails its 1e-3 tolerance for some unions",
                    f"exit {EXIT_REPORT_FAIL}", _laeng_misses)
CRASH_NORMS_P = KnownDefect("norms --p outside (1,2) raises ValueError instead of exiting 2",
                            "raises ValueError")
CRASH_CONSTANT = KnownDefect(
    "invert --constant that is not a number raises ValueError instead of exiting 2",
    "raises ValueError")


# ---------------------------------------------------------------------------
# Invalid input with documented exit codes.

def _no_output_check(out, err):
    return 0.0


INVALID = {
    "bad_coefficient": (2, ["transform", "--f", "chebT:[1,x]", "--points", "0.1"]),
    "bad_spec": (2, ["transform", "--f", "cheb:[1,2]", "--grid", "5"]),
    "not_interior": (2, ["transform", "--f", "chebT:[0,1]", "--points", "1.5"]),
    "bad_convention": (2, ["transform", "--f", "chebT:[1]", "--grid", "5",
                           "--convention", "bogus"]),
    "bad_lambda": (2, ["classify", "--space", "lebesgue:1.5", "--lambda=abc"]),
    "weak_lorentz": (5, ["classify", "--space", "lorentz:2,inf"]),
    "bad_indices": (5, ["classify", "--space", "indexed:1.5,3,0,0"]),
    "unknown_space": (5, ["classify", "--space", "hardy:2"]),
    "bad_suite": (2, ["identities", "--suite", "bogus"]),
    "bad_family": (2, ["norms", "--p", "1.5", "--family-size", "x"]),
    # known crashes: the README reserves exit 2 for these
    "crash_constant": (2, ["invert", "--g", "chebT:[0,1]", "--regime", "low",
                           "--constant", "abc"]),
    "crash_norms": (2, ["norms", "--p", "2.5"]),
}
KNOWN_CRASHES = {"crash_constant": CRASH_CONSTANT, "crash_norms": CRASH_NORMS_P}


def op_invalid(rng, names):
    name = str(rng.choice(names))
    code, argv = INVALID[name]
    return Op(f"invalid_{name}", list(argv), _no_output_check, expect_exit=code,
              known_defect=KNOWN_CRASHES.get(name))


# ---------------------------------------------------------------------------
# Workloads.

_CHEAP_INVALID = ["bad_coefficient", "bad_spec", "not_interior", "bad_convention",
                  "bad_lambda", "weak_lorentz", "bad_indices", "unknown_space"]


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple  # (count per deck, make_op(rng, slot) -> Op)
    tail_percentile: float  # leaves at least ten ops beyond it in a baseline run
    trace_decks: int  # decks replayed by the traced run
    warmup: tuple  # indices into mix: one op each, run untimed before measuring


CLOSED_FORM = Workload(
    name="closed_form",
    mix=(
        (28, op_series),
        (12, lambda rng, slot: op_series(rng, slot, grid=True)),
        (20, op_weight),
        (12, lambda rng, slot: op_weight(rng, slot, grid=True)),
        (9, op_csv),
        (3, op_high_degree),
        (10, op_classify),
        (5, lambda rng, slot: op_invalid(rng, _CHEAP_INVALID)),
        (1, lambda rng, slot: op_invalid(rng, ["crash_constant"])),
    ),
    tail_percentile=99.0,
    trace_decks=4,
    warmup=(0, 2, 4, 6, 7),
)

QUADRATURE = Workload(
    name="quadrature",
    mix=(
        (10, op_jacobi),
        (4, lambda rng, slot: op_jacobi(rng, slot, grid=True)),
        (4, op_xi),
        (6, op_eigencheck),
        (8, op_invert),
        (4, lambda rng, slot: op_invert(rng, slot, csv_rhs=True)),
        (2, op_unsolvable),
        (1, lambda rng, slot: op_invalid(rng, _CHEAP_INVALID)),
        (1, lambda rng, slot: op_invalid(rng, ["crash_constant"])),
    ),
    tail_percentile=95.0,
    trace_decks=2,
    warmup=(0, 2, 3, 4, 5, 6),
)

IDENTITIES = Workload(
    name="identities",
    mix=(
        (4, lambda rng, slot: op_suite(rng, "parseval")),
        (1, lambda rng, slot: op_suite(rng, "pb")),
        (1, op_laeng),
        (1, lambda rng, slot: op_laeng(rng, slot, failing=True)),
        (3, lambda rng, slot: op_suite(rng, "kernel")),
        (1, lambda rng, slot: op_suite(rng, "norms")),
        (4, lambda rng, slot: op_norms(rng, 2)),
        (4, lambda rng, slot: op_norms(rng, 1, n_p=2)),
        (1, lambda rng, slot: op_norms(rng, 1, loglog=True)),
        (1, lambda rng, slot: op_invalid(rng, ["bad_suite", "bad_family"])),
        (1, lambda rng, slot: op_invalid(rng, ["crash_norms"])),
    ),
    tail_percentile=75.0,
    trace_decks=1,
    warmup=(4, 6, 8),
)

WORKLOADS = {w.name: w for w in (CLOSED_FORM, QUADRATURE, IDENTITIES)}


def deck(workload, seed, index):
    """The ops of deck ``index`` for ``seed``: fixed counts per kind, shuffled."""
    rng = np.random.default_rng([seed, index])
    ops = []
    for count, make_op in workload.mix:
        for i in range(count):
            slot = Slot(f"{workload.name}-{seed}-{index}-{len(ops)}", (i + 0.5) / count)
            ops.append(make_op(rng, slot))
    return [ops[i] for i in rng.permutation(len(ops))]


def warmup_ops(workload, seed):
    """One op of each kind listed in ``workload.warmup``, from a separate stream."""
    rng = np.random.default_rng([seed, 2**32 - 1])
    return [workload.mix[i][1](rng, Slot(f"{workload.name}-{seed}-warmup-{i}", 0.5))
            for i in workload.warmup]
