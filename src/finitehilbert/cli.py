"""Command-line surface: transform tables, airfoil inversion, spectrum tools.

Exit codes: 0 success, 1 failing check (identity report, eigen-relation or
invert round trip), 2 spec/argument parse error, 3 quadrature failure or
non-finite result, 4 unsolvable inversion, 5 unsupported space descriptor.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import airfoil, harness, spectrum
from .engine import EPS_EDGE, TRICOMI, WIDOM, sampled_to_weighted, transform
from .errors import (
    FhtError,
    FunctionSpecError,
    NoConvergence,
    NonFiniteResult,
    NonFiniteSample,
    NotSolvable,
    SingularEvaluation,
    UnsupportedDescriptor,
)
from .functions import (
    EndpointWeightedFunction,
    IndicatorUnion,
    one,
    sampled_from_csv,
    sqrt_weight,
    table_to_csv,
)
from .series import FIRST_KIND, SECOND_KIND, ChebyshevSeries

EXIT_REPORT_FAIL = 1
EXIT_PARSE = 2
EXIT_QUADRATURE = 3
EXIT_NOT_SOLVABLE = 4
EXIT_DESCRIPTOR = 5


# ---------------------------------------------------------------------------
# FunctionSpec: textual function descriptors.

_LIST_RE = re.compile(r"^\s*(poly|chebT|chebU):\[(.*)\]\s*$")
_WEIGHTED_RE = re.compile(
    r"^\s*weighted:\{([^,]+),([^,]+),(chebT|chebU):\[(.*)\]\}\s*$"
)
_CSV_RE = re.compile(r"^\s*csv:(.+)$")


def _parse_coeffs(body):
    body = body.strip()
    if not body:
        raise FunctionSpecError("empty coefficient list")
    try:
        return np.array([complex(tok.strip()) for tok in body.split(",")])
    except ValueError as exc:
        raise FunctionSpecError(f"bad coefficient in [{body}]") from exc


def _fmt_num(c):
    c = complex(c)
    if c.imag == 0.0:
        return repr(c.real)
    return repr(c)


@dataclass(frozen=True)
class FunctionSpec:
    """Parsed form of a textual function descriptor; printing round-trips."""

    kind: str  # poly | chebT | chebU | weighted | csv
    coeffs: np.ndarray | None = None
    a: complex = 0.0
    b: complex = 0.0
    basis: str = FIRST_KIND
    path: str | None = None

    def to_string(self):
        if self.kind == "csv":
            return f"csv:{self.path}"
        body = ",".join(_fmt_num(c) for c in self.coeffs)
        if self.kind == "poly":
            return f"poly:[{body}]"
        if self.kind in ("chebT", "chebU"):
            return f"{self.kind}:[{body}]"
        tag = "chebT" if self.basis == FIRST_KIND else "chebU"
        return f"weighted:{{{_fmt_num(self.a)},{_fmt_num(self.b)},{tag}:[{body}]}}"

    def to_function(self):
        """The function the spec names; sampled data comes back interpolated."""
        if self.kind == "csv":
            try:
                with open(self.path, newline="") as fh:
                    text = fh.read()
            except OSError as exc:
                raise FunctionSpecError(f"cannot read {self.path}: {exc}") from exc
            return sampled_to_weighted(sampled_from_csv(text))
        if self.kind == "poly":
            with np.errstate(all="ignore"):
                tc = np.polynomial.chebyshev.poly2cheb(self.coeffs)
            try:
                series = ChebyshevSeries(tc, FIRST_KIND)
            except NonFiniteSample as exc:  # the coefficients are finite
                raise NonFiniteResult(
                    "the Chebyshev form of the polynomial overflowed") from exc
            return EndpointWeightedFunction(0.0, 0.0, series)
        if self.kind in ("chebT", "chebU"):
            basis = FIRST_KIND if self.kind == "chebT" else SECOND_KIND
            return EndpointWeightedFunction(
                0.0, 0.0, ChebyshevSeries(self.coeffs, basis)
            )
        return EndpointWeightedFunction(
            self.a, self.b, ChebyshevSeries(self.coeffs, self.basis)
        )


def parse_function_spec(text):
    m = _LIST_RE.match(text)
    if m:
        return FunctionSpec(kind=m.group(1), coeffs=_parse_coeffs(m.group(2)))
    m = _WEIGHTED_RE.match(text)
    if m:
        try:
            a, b = complex(m.group(1).strip()), complex(m.group(2).strip())
        except ValueError as exc:
            raise FunctionSpecError(f"bad weight exponents in {text!r}") from exc
        basis = FIRST_KIND if m.group(3) == "chebT" else SECOND_KIND
        return FunctionSpec(kind="weighted", coeffs=_parse_coeffs(m.group(4)),
                            a=a, b=b, basis=basis)
    m = _CSV_RE.match(text)
    if m:
        return FunctionSpec(kind="csv", path=m.group(1).strip())
    raise FunctionSpecError(f"cannot parse function spec {text!r}")


def spec_of_weighted(func):
    """FunctionSpec for a series-backed function (used to print solutions)."""
    series = func.smooth.trimmed()
    tag = FIRST_KIND if series.basis == FIRST_KIND else SECOND_KIND
    if func.a == 0.0 and func.b == 0.0:
        kind = "chebT" if tag == FIRST_KIND else "chebU"
        return FunctionSpec(kind=kind, coeffs=series.coeffs)
    return FunctionSpec(kind="weighted", coeffs=series.coeffs,
                        a=complex(func.a), b=complex(func.b), basis=series.basis)


# ---------------------------------------------------------------------------
# Output plumbing: stable-key JSON, x,re,im CSV, atomic file writes.

def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        _write_atomic(text, output)


def _write_atomic(text, output):
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fht-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload, timestamp):
    if timestamp:
        payload = dict(payload)
        payload["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.

def _parse_points(args):
    pts = args.points
    if pts is None:
        pts = list(np.linspace(-0.9, 0.9, args.grid))
    for t in pts:
        if not -1.0 + EPS_EDGE <= t <= 1.0 - EPS_EDGE:
            raise FunctionSpecError(f"point {t} is not interior")
    return pts


# Each cmd_* returns (payload, exit code); main renders and writes the payload.
# A payload is a JSON-ready dict, or the finished text of a CSV table.

def cmd_transform(args):
    spec = parse_function_spec(args.f)
    pts = _parse_points(args)
    f = spec.to_function()
    # Coefficients near the float limit can overflow on every route: the
    # overflow is reported as one NonFiniteResult, without numpy's warnings.
    try:
        with np.errstate(all="ignore"):
            image = transform(f, args.convention)
            values = np.asarray(image(np.asarray(pts)), dtype=complex)
    except NonFiniteSample as exc:  # f is finite, so a basis conversion overflowed
        raise NonFiniteResult(f"T(f) overflowed: {exc}") from exc
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values)))
        raise NonFiniteResult(f"T(f) is not finite at x={float(pts[bad])!r}")
    if args.fmt == "csv":
        return table_to_csv(pts, values), 0
    return {
        "command": "transform",
        "convention": args.convention,
        "spec": spec.to_string(),
        "table": [
            {"x": float(t), "re": v.real, "im": v.imag}
            for t, v in zip(pts, values)
        ],
    }, 0


def cmd_invert(args):
    if args.constant is not None and args.regime == airfoil.HIGH:
        raise FunctionSpecError("--constant applies to the low regime only")
    spec = parse_function_spec(args.g)
    g = spec.to_function()
    try:  # as in cmd_transform; quadrature names a non-finite integral itself
        with np.errstate(all="ignore"):
            if args.regime == airfoil.LOW:
                solution = airfoil.solve_low(g, C=args.constant or 0j)
            else:
                solution = airfoil.solve_high(g)
            report = airfoil.verify_roundtrip(g, args.regime, C=args.constant or 0j)
            solvability = (airfoil.solvability_residual(g)
                           if args.regime == airfoil.HIGH else None)
    except NonFiniteSample as exc:  # g is finite, so a basis conversion overflowed
        raise NonFiniteResult(f"the inversion overflowed: {exc}") from exc
    tol = harness.TOLERANCES["roundtrip"] * max(1.0, report.max_rhs)
    return {
        "command": "invert",
        "regime": args.regime,
        "rhs": spec.to_string(),
        "solution": spec_of_weighted(solution).to_string(),
        "roundtrip_residual": report.max_residual,
        "solvability_residual": solvability,
        "constant_recovered": (
            None if report.constant_recovered is None
            else [report.constant_recovered.real, report.constant_recovered.imag]
        ),
    }, 0 if report.max_residual <= tol else EXIT_REPORT_FAIL


def cmd_classify(args):
    desc = spectrum.resolve_catalog(args.space)
    fs = spectrum.classify_space(desc)
    if args.boundary_csv:
        pts = spectrum.region_boundary_points(fs.p, args.boundary_points)
        _write_atomic(table_to_csv(range(len(pts)), pts), args.boundary_csv)
    payload = {
        "command": "classify-spectrum",
        "convention": WIDOM,
        "space": args.space,
        "sigma_p": fs.p,
        "point": fs.point.label(),
        "residual": fs.residual.label(),
        "continuous": fs.continuous.label(),
    }
    if args.lam is not None:
        payload["lambda"] = [args.lam.real, args.lam.imag]
        payload["classification"] = spectrum.classify_point(desc, args.lam)
    return payload, 0


def cmd_eigencheck(args):
    lam = args.lam
    gamma = spectrum.gamma_of_lambda(lam)
    grid = np.linspace(-0.9, 0.9, args.grid)
    residual = spectrum.eigen_residual(lam, grid=grid)
    tol = harness.TOLERANCES[
        "eigen_real" if abs(lam.imag) == 0.0 else "eigen_complex"]
    return {
        "command": "eigencheck",
        "convention": WIDOM,
        "lambda": [lam.real, lam.imag],
        "gamma": gamma,
        "grid_size": int(args.grid),
        "max_residual": residual,
        "tolerance": tol,
        "pass": residual <= tol,
    }, 0 if residual <= tol else EXIT_REPORT_FAIL


# Identity suites: everything is seeded so reruns are byte-identical.

def _random_poly(rng, degree):
    return next(harness.random_cheb_family(rng, 1, degree))


def _random_union(rng):
    k = int(rng.integers(1, 4))  # one to three intervals
    cuts = np.sort(rng.uniform(-1.0, 1.0, 2 * k))
    while np.min(np.diff(cuts)) < 0.05:
        cuts = np.sort(rng.uniform(-1.0, 1.0, 2 * k))
    return IndicatorUnion(tuple((cuts[2 * i], cuts[2 * i + 1]) for i in range(k)))


def _suite_parseval(rng):
    reports = [harness.check_parseval(one(), sqrt_weight())]
    for _ in range(5):
        reports.append(harness.check_parseval(_random_poly(rng, 6),
                                              _random_poly(rng, 6)))
    return reports


def _suite_pb(rng):
    return [
        harness.check_poincare_bertrand(_random_poly(rng, 4), _random_poly(rng, 4))
        for _ in range(2)
    ]


def _suite_laeng(rng):
    return [harness.check_laeng(_random_union(rng)) for _ in range(2)]


def _suite_kernel(rng):
    return [harness.check_kernel(1.0), harness.check_kernel(2.0 - 3.0j)]


def _suite_norms(rng):
    seed = int(rng.integers(0, 2**31 - 1))
    return harness.norm_probe((1.2, 1.5, 1.8), family_size=20, seed=seed)


_SUITES = {
    "parseval": _suite_parseval,
    "pb": _suite_pb,
    "laeng": _suite_laeng,
    "kernel": _suite_kernel,
    "norms": _suite_norms,
}


def cmd_identities(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = np.random.default_rng(args.seed)
    reports = []
    for name in names:
        reports.extend(r.as_dict() for r in _SUITES[name](rng))
    all_pass = all(r["pass"] for r in reports)
    return {
        "command": "identities",
        "suite": args.suite,
        "seed": args.seed,
        "reports": reports,
        "pass": all_pass,
    }, 0 if all_pass else EXIT_REPORT_FAIL


def cmd_norms(args):
    reports = harness.norm_probe(args.p, family_size=args.family_size, seed=args.seed)
    if args.weighted:
        gamma, delta, p = args.weighted
        reports.append(harness.khvedelidze_probe(gamma, delta, p,
                                                 family_size=args.family_size,
                                                 seed=args.seed))
    if args.loglog:
        reports.append(harness.loglog_probe(seed=args.seed))
    all_pass = all(r.passed for r in reports)
    return {
        "command": "norms",
        "seed": args.seed,
        "reports": [r.as_dict() for r in reports],
        "pass": all_pass,
    }, 0 if all_pass else EXIT_REPORT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.  Each subcommand registers only the flags it
# reads, and argument types reject malformed values at parse time (exit 2).

def _bounded_int(text, lowest, what):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
    return value


def _positive_int(text):
    return _bounded_int(text, 1, "a positive int")


def _non_negative_int(text):
    return _bounded_int(text, 0, "a non-negative int")


def _boundary_point_count(text):
    lowest = spectrum.MIN_BOUNDARY_POINTS
    return _bounded_int(text, lowest, f"an int of at least {lowest}")


def _finite(value, text):
    if not math.isfinite(value.real) or not math.isfinite(value.imag):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _float_list(text):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid comma-separated floats: {text!r}") from None
    return [_finite(v, text) for v in values]


def _exponent_list(text):
    values = _float_list(text)
    if not all(p > 1.0 for p in values):
        raise argparse.ArgumentTypeError(f"every p must exceed 1, got {text!r}")
    return values


def _float_triple(text):
    values = _float_list(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"need exactly three floats, got {text!r}")
    return values


def _complex_pair(text):
    """re[,im] (a missing imaginary part is 0) or a Python literal such as (1+2j)."""
    re_part, comma, im_part = text.partition(",")
    try:
        value = complex(float(re_part), float(im_part or "0")) if comma else complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid re[,im] value: {text!r}") from None
    return _finite(value, text)


def _add_common(sub):
    sub.add_argument("--output", help="write output atomically to this path")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp field from JSON output")


# Flags that take a comma-separated list of numbers, and the start of a
# negative number.
_NUMBER_LIST_FLAGS = frozenset({"--points", "--lambda", "--constant", "--weighted", "--p"})
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads `--lambda -0.3,0.2` as `--lambda=-0.3,0.2`.

    argparse takes a token that starts with '-' for an option unless the whole
    token is one number, so a list with a negative first value would need the
    '=' form.  Only the list flags this parser (or subparser) has are joined.
    """

    def parse_known_args(self, args=None, namespace=None):
        flags = _NUMBER_LIST_FLAGS.intersection(self._option_string_actions)
        if args is not None and not flags.isdisjoint(args):
            joined = []
            for index, token in enumerate(args):
                if token == "--":  # everything after it is positional
                    joined += args[index:]
                    break
                if joined and joined[-1] in flags and _NEGATIVE_NUMBER.match(token):
                    joined[-1] += "=" + token
                else:
                    joined.append(token)
            args = joined
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser():
    """The fht parser, built once per process: argparse setup dominates a short run."""
    parser = _Parser(
        prog="fht",
        description="Finite Hilbert transform toolkit on (-1,1)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("transform", help="evaluate T(f) on points or a grid")
    p.add_argument("--f", required=True, help="function spec, e.g. chebT:[0,1]")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", type=_float_list,
                       help="comma-separated interior points")
    group.add_argument("--grid", type=_positive_int, help="uniform interior grid size")
    p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    p.add_argument("--convention", choices=[TRICOMI, WIDOM], default=TRICOMI)
    _add_common(p)
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("invert", help="solve the airfoil equation T(f) = g")
    p.add_argument("--g", required=True, help="right-hand side spec")
    p.add_argument("--regime", required=True, choices=[airfoil.LOW, airfoil.HIGH])
    p.add_argument("--constant", type=_complex_pair,
                   help="homogeneous coefficient C (low regime only), re[,im] or (re+imj)")
    _add_common(p)
    p.set_defaults(func=cmd_invert)

    p = subs.add_parser("classify-spectrum", aliases=["classify"],
                        help="fine-spectrum classification")
    p.add_argument("--space", required=True,
                   help="lebesgue:p | lorentz:p,r | indexed:pX,qX,pa,qa")
    p.add_argument("--lambda", dest="lam", type=_complex_pair,
                   help="point to classify, re,im")
    p.add_argument("--boundary-csv",
                   help="also write the region boundary polyline to this path")
    p.add_argument("--boundary-points", type=_boundary_point_count, default=400,
                   help="rows of the --boundary-csv polyline, exactly this many "
                        f"(at least {spectrum.MIN_BOUNDARY_POINTS}, default 400)")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("eigencheck", help="verify the eigen-relation at lambda")
    p.add_argument("--lambda", dest="lam", type=_complex_pair, required=True,
                   help="re,im")
    p.add_argument("--grid", type=_positive_int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_eigencheck)

    p = subs.add_parser("identities", help="run identity suites")
    p.add_argument("--suite", required=True,
                   choices=sorted(_SUITES) + ["all"])
    p.add_argument("--seed", type=_non_negative_int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_identities)

    p = subs.add_parser("norms", help="operator-norm probes")
    p.add_argument("--p", type=_exponent_list, default="1.2,1.5,1.8",
                   help="comma-separated exponents in (1,2)")
    p.add_argument("--family-size", type=_positive_int, default=20)
    p.add_argument("--weighted", type=_float_triple,
                   help="gamma,delta,p for the weighted probe")
    p.add_argument("--loglog", action="store_true",
                   help="include the L log L -> L^1 probe (not sized by --family-size)")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_norms)

    return parser


# (exception types, exit code, stderr label); the first matching row wins, so
# the FhtError catch-all comes last.  ValueError is not mapped: program defects
# raise it as well as bad input, and its traceback keeps the defects visible.
_EXIT_TABLE = (
    ((FunctionSpecError, OSError), EXIT_PARSE, "parse error"),
    ((NoConvergence, SingularEvaluation), EXIT_QUADRATURE, "quadrature failure"),
    ((NonFiniteResult,), EXIT_QUADRATURE, "non-finite result"),
    ((NotSolvable,), EXIT_NOT_SOLVABLE, "not solvable"),
    ((UnsupportedDescriptor,), EXIT_DESCRIPTOR, "unsupported descriptor"),
    ((FhtError,), EXIT_PARSE, "error"),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        if not isinstance(payload, str):
            payload = _json_text(payload, not args.no_timestamp)
        _emit(payload, args.output)
        return code
    except (FhtError, OSError) as exc:
        code, label = next((code, label) for types, code, label in _EXIT_TABLE
                           if isinstance(exc, types))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
