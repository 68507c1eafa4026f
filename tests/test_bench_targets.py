"""Every name the benchmark's tracer wraps must exist in the package.

bench/tracing.py patches library functions by module and attribute path, so a
renamed or deleted name would otherwise only break the benchmark's own suite.
It also replaces scipy.integrate.quad after the package is imported, so the
package must look quad up at each call.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_names_resolve():
    targets = _traced_targets()
    missing = []
    for _group, modname, path, _hot in targets:
        owner = importlib.import_module(f"finitehilbert.{modname}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = vars(owner).get(name)
        # the tracer reads a method from its own class's __dict__
        if owner is None or attr not in vars(owner):
            missing.append(f"{modname}.{path}")
    assert targets
    assert missing == []


def test_quad_patched_after_import_is_called(monkeypatch):
    from finitehilbert import engine
    from finitehilbert.functions import EndpointWeightedFunction
    from finitehilbert.series import ChebyshevSeries

    import scipy.integrate  # after the package, as in the tracer

    original = scipy.integrate.quad
    calls = 0

    def counting_quad(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    f = EndpointWeightedFunction(0.3, -0.4, ChebyshevSeries([1.0, 2.0]))
    engine.fht_pointwise(f, 0.1)
    assert calls > 0
