"""Process guard: skyprov.parallel is the one module that forks, makes a
pipe, leaves a forked process or reaps one, so no other fork path appears,
and the one that imports marshal, the format of a helper's reply."""

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


def _imports(path):
    """The top-level names of the modules a source file imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_parallel_module_forks_pipes_exits_or_reaps():
    sources = sorted((ROOT / "src" / "skyprov").glob("*.py"))
    assert sources
    uses = {(path.name, name) for path in sources for name in _os_calls(path) if name in PROCESS_CALLS}
    assert {name for module, name in uses if module == "parallel.py"} == PROCESS_CALLS
    assert sorted(pair for pair in uses if pair[0] != "parallel.py") == []


def test_only_the_parallel_module_encodes_a_helper_reply():
    sources = sorted((ROOT / "src" / "skyprov").glob("*.py"))
    importers = sorted(path.name for path in sources if "marshal" in set(_imports(path)))
    assert importers == ["parallel.py"]
