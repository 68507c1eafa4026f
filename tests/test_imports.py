"""Import hygiene of the package modules, read from their source with ast.

No module binds an import it never reads, and none binds an underscore name
of another package module or reads one as an attribute, be it of a package
module it imports or of any object when only another package module defines
the name: a private name stays with the module that owns it.
The package's __init__ is left out, since it imports names only to re-export
them.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finitehilbert"


def _private_definitions(path):
    """Underscore names, dunders aside, that one source file defines or assigns."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _private_names_elsewhere(path):
    """Underscore names that some package module other than path defines and path does not."""
    others = set()
    for module in _PACKAGE.glob("*.py"):
        if module.resolve() != path.resolve():
            others |= _private_definitions(module)
    return others - _private_definitions(path)


def import_problems(path):
    """(module, name, problem) for each bad import binding or private read in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    problems = []
    modules = set()  # names bound to package modules, as by `from . import harness`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            internal = node.level > 0 or (node.module or "").startswith("finitehilbert")
        elif isinstance(node, ast.Import):
            internal = False
        else:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                problems.append((path.stem, bound, "never read"))
            if internal and alias.name.startswith("_"):
                problems.append((path.stem, alias.name, "private name of another module"))
            if internal and node.module in (None, "finitehilbert"):
                modules.add(bound)
    elsewhere = _private_names_elsewhere(path)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            continue
        of_module = isinstance(node.value, ast.Name) and node.value.id in modules
        if of_module or node.attr in elsewhere:
            problems.append((path.stem, ast.unparse(node), "private name of another module"))
    return problems


def test_modules_bind_no_unused_import_and_no_private_name():
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    assert [problem for path in modules for problem in import_problems(path)] == []


def test_the_import_check_sees_both_kinds_of_problem(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .engine import _quad, transform\n"
        "from .functions import sample\n"
        "from . import harness\n"
        "def f():\n"
        "    from scipy.special import gamma\n"
        "    return np.pi + _quad + transform + gamma + np._core\n"
        "def g():\n"
        "    return harness.norm_probe, harness.__name__, harness._gauss_grid\n"
        "_report = None\n"
        "def h(f):\n"
        "    return f.smooth._lp_norm, f.__class__, f._report\n")
    assert import_problems(source) == [
        ("example", "math", "never read"),
        ("example", "_quad", "private name of another module"),
        ("example", "sample", "never read"),
        ("example", "harness._gauss_grid", "private name of another module"),
        ("example", "f.smooth._lp_norm", "private name of another module"),
    ]
