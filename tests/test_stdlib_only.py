"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "mixeuler"


def outside_imports(path):
    """Top-level module names imported by a source file from outside the
    standard library and the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(
        {n for n in names if n.split(".")[0] not in sys.stdlib_module_names | {"mixeuler"}}
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_standard_library_only(path):
    assert outside_imports(path) == []


def test_outside_imports_are_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport numpy.linalg\nfrom . import x\nfrom yaml import load\n")
    assert outside_imports(probe) == ["numpy.linalg", "yaml"]
