"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions of each finitehilbert module from the
outside.  A wrapper replaces every binding of the original object in every
finitehilbert module namespace, because several modules import engine
functions by name.  It also wraps the evaluators that ``fht_polynomial``
returns, and ``scipy.integrate.quad`` to count calls and integrand
evaluations.

Each call records its span: name, start, end, parent span and op id.  Calls
made once per integrand evaluation or grid point (marked hot below) are only
aggregated, because a record per call would distort the run.  A group's self
time is its span time minus the time of the wrapped calls made inside it.
Everything runs on one thread, so there is no waiting time to report.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from scipy import integrate

# (metric group, module, attribute path, hot)
TARGETS = [
    ("cli", "cli", "main", False),
    ("series.eval", "series", "ChebyshevSeries.__call__", True),
    ("series.convert", "series", "ChebyshevSeries.to_basis", False),
    ("series.convert", "series", "t_to_u", False),
    ("series.convert", "series", "u_to_t", False),
    ("series.interp", "series", "interpolate_chebyshev", False),
    ("functions.eval", "functions", "EndpointWeightedFunction.__call__", True),
    ("functions.eval", "functions", "EndpointWeightedFunction.weight", True),
    ("functions.eval", "functions", "sample", False),
    ("functions.csv", "functions", "sampled_from_csv", False),
    ("functions.csv", "functions", "sampled_to_csv", False),
    ("rearrange", "rearrange", "decreasing_rearrangement", False),
    ("rearrange", "rearrange", "lorentz_norm", False),
    ("rearrange", "rearrange", "lp_norm", False),
    ("rearrange", "rearrange", "l1_norm", False),
    ("rearrange", "rearrange", "zygmund_norm", False),
    ("rearrange", "rearrange", "lorentz_norm_with_divergence_check", False),
    ("engine.closed_form", "engine", "fht_polynomial", False),
    ("engine.closed_form", "engine", "fht_polynomial_parts", False),
    ("engine.closed_form", "engine", "fht_of_one", False),
    ("engine.sampled", "engine", "sampled_to_weighted", False),
    ("engine.spectral", "engine", "fht_spectral", False),
    ("engine.spectral", "engine", "fht_hat", False),
    ("engine.spectral", "engine", "fht_check", False),
    ("engine.pointwise", "engine", "fht_pointwise", False),
    ("engine.pointwise", "engine", "integrate_unit", False),
    ("engine.pointwise", "engine", "weighted_transform", False),
    ("engine.pointwise", "engine", "project_P", False),
    ("engine.pointwise", "engine", "project_Q", False),
    ("airfoil.solve", "airfoil", "solve_low", False),
    ("airfoil.solve", "airfoil", "solve_high", False),
    ("airfoil.solve", "airfoil", "solvability_residual", False),
    ("airfoil.roundtrip", "airfoil", "verify_roundtrip", False),
    ("spectrum.classify", "spectrum", "classify_space", False),
    ("spectrum.classify", "spectrum", "classify_point", False),
    ("spectrum.classify", "spectrum", "region_contains", False),
    ("spectrum.classify", "spectrum", "region_boundary_points", False),
    ("spectrum.classify", "spectrum", "resolve_catalog", False),
    ("spectrum.classify", "spectrum", "partition_check", False),
    ("spectrum.classify", "spectrum", "SpaceDescriptor.lebesgue", False),
    ("spectrum.classify", "spectrum", "SpaceDescriptor.lorentz", False),
    ("spectrum.classify", "spectrum", "SpaceDescriptor.indexed", False),
    ("spectrum.classify", "spectrum", "SpaceDescriptor.catalog", False),
    ("spectrum.eigen", "spectrum", "eigen_residual", False),
    ("spectrum.eigen", "spectrum", "xi_function", False),
    ("spectrum.eigen", "spectrum", "xi_eval", False),
    ("spectrum.eigen", "spectrum", "gamma_of_lambda", False),
    ("spectrum.eigen", "spectrum", "z_of_lambda", False),
    ("spectrum.eigen", "spectrum", "in_eigenvalue_set", False),
    ("harness.norm_probe", "harness", "norm_probe", False),
    ("harness.laeng", "harness", "check_laeng", False),
    ("harness.laeng", "harness", "hilbert_of_indicator", True),
    ("harness.pb", "harness", "check_poincare_bertrand", False),
    ("harness.parseval", "harness", "check_parseval", False),
    ("harness.kernel", "harness", "check_kernel", False),
    ("harness.probes", "harness", "loglog_probe", False),
    ("harness.probes", "harness", "khvedelidze_probe", False),
]

CLOSED_FORM_EVALUATOR = "engine.fht_polynomial.value"
SOLVES = ("airfoil.solve_low", "airfoil.solve_high")
SOLVABILITY = "airfoil.solvability_residual"


class Tracer:
    """Spans and counters of one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.op = None
        self.stack = []  # frames: [child time, span id of the nearest recorded span]
        self.depth = Counter()  # group -> open calls, to count outermost calls only
        self.group_calls = Counter()
        self.group_self = defaultdict(float)
        self.calls = Counter()  # function name -> every call
        self.spans = []  # (op, name, start, end, span id, parent span id)
        self.quad_calls = 0
        self.quad_evals = 0
        self.quad_evals_pointwise = 0
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, group, name, hot):
        tracer = self
        returns_evaluator = name == "engine.fht_polynomial"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            if hot:
                span_id = parent
            else:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, span_id]
            outer = tracer.depth[group] == 0
            tracer.depth[group] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.depth[group] -= 1
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.group_self[group] += duration - frame[0]
                tracer.group_calls[group] += outer
                tracer.calls[name] += 1
                if not hot:
                    tracer.spans[span_id] = (tracer.op, name, start, end, span_id, parent)
            if returns_evaluator:
                return tracer._wrap(result, group, CLOSED_FORM_EVALUATOR, True)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _quad(self, original):
        tracer = self

        def quad(func, *args, **kwargs):
            pointwise = tracer.depth["engine.pointwise"] > 0

            def counted(*xs):
                tracer.quad_evals += 1
                tracer.quad_evals_pointwise += pointwise
                return func(*xs)

            tracer.quad_calls += 1
            return original(counted, *args, **kwargs)

        return quad

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "finitehilbert" or name.startswith("finitehilbert.")}
        for group, modname, path, hot in TARGETS:
            owner = modules[f"finitehilbert.{modname}"]
            name = f"{modname}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, group, name, hot))
                else:
                    patched = self._wrap(raw, group, name, hot)
                setattr(cls, attr, patched)
                self._undo.append((cls, attr, raw))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, group, name, hot)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        self._undo.append((integrate, "quad", integrate.quad))
        integrate.quad = self._quad(integrate.quad)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def per_op_calls(self, names):
        """op id -> number of spans named in ``names``."""
        counts = Counter()
        for span in self.spans:
            if span[1] in names:
                counts[span[0]] += 1
        return counts

    def write(self, path):
        """Spans as JSON lines, then one line of aggregated hot-call counters."""
        with open(path, "w") as fh:
            for op, name, start, end, span_id, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "id": span_id, "parent": parent}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls),
                                 "group_self_s": dict(self.group_self),
                                 "quad_calls": self.quad_calls,
                                 "quad_evals": self.quad_evals}) + "\n")
