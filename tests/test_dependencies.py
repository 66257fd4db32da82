"""Dependency guard: the package runs on the standard library plus
cryptography, and declares nothing else."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWED = frozenset(sys.stdlib_module_names) | {"cryptography"}


def _absolute_imports(path):
    """The top-level module name of each absolute import in a source file,
    wherever in the file it stands."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_cryptography():
    sources = sorted((ROOT / "src" / "skyprov").glob("*.py"))
    assert sources
    imports = {(path.name, name) for path in sources for name in _absolute_imports(path)}
    assert ("keys.py", "cryptography") in imports
    assert sorted(pair for pair in imports if pair[1] not in ALLOWED) == []


def test_declared_dependencies_are_cryptography_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["cryptography>=41"]
