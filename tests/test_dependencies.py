"""Every third-party module the tests import is declared in pyproject.toml.

`pip install -e ".[test]"` must be enough to run the suite, so each top-level
module imported under tests/ is either the standard library, the package
itself, or named in [project] dependencies or the `test` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

_ROOT = Path(__file__).resolve().parents[1]
_TESTS = _ROOT / "tests"


def _imported_top_level_modules():
    names = set()
    for path in _TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_distributions():
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_third_party_test_imports_are_declared():
    local = {"finitehilbert"} | {path.stem for path in _TESTS.glob("*.py")}
    third_party = {name for name in _imported_top_level_modules()
                   if name not in sys.stdlib_module_names and name not in local}
    assert third_party, "the suite imports numpy and pytest at least"
    assert sorted(third_party - _declared_distributions()) == []
