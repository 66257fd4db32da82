"""Process guard: skyprov.parallel is the one module that forks, makes a
pipe, leaves a forked process or reaps one, so no other fork path appears."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROCESS_CALLS = frozenset({"fork", "pipe", "_exit", "waitpid"})


def _os_calls(path):
    """The os functions named in a source file, as os.<name> or imported
    from os, wherever in the file they stand."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (alias.name for alias in node.names)


def test_only_the_parallel_module_forks_pipes_exits_or_reaps():
    sources = sorted((ROOT / "src" / "skyprov").glob("*.py"))
    assert sources
    uses = {(path.name, name) for path in sources for name in _os_calls(path) if name in PROCESS_CALLS}
    assert {name for module, name in uses if module == "parallel.py"} == PROCESS_CALLS
    assert sorted(pair for pair in uses if pair[0] != "parallel.py") == []
