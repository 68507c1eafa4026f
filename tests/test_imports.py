"""Import hygiene of the package modules, read from their source with ast.

No module binds an import it never reads, and none binds an underscore name
of another package module: a private name stays with the module that owns it.
The package's __init__ is left out, since it imports names only to re-export
them.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finitehilbert"


def import_problems(path):
    """(module, name, problem) for each bad import binding in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    problems = []
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
        "def f():\n"
        "    from scipy.special import gamma\n"
        "    return np.pi + _quad + transform + gamma\n")
    assert import_problems(source) == [
        ("example", "math", "never read"),
        ("example", "_quad", "private name of another module"),
        ("example", "sample", "never read"),
    ]
