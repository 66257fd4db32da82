"""Memo guard: chain.validate_block is the one place that names
chain._validate_block, so every block check goes through the verdicts a
block keeps per parent head hash, and none is stored under another key."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _namers(path, name):
    """The function of a source file around each place that names name, as a
    bare name, an attribute, an imported name or a string; "<module>"
    outside every function."""
    found = []

    def visit(node, func):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)
                or isinstance(node, ast.Constant) and node.value == name):
            found.append(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")
    return found


def test_only_validate_block_reaches_the_uncached_check():
    sources = sorted((ROOT / "src" / "skyprov").rglob("*.py")) + sorted((ROOT / "skybench").rglob("*.py"))
    assert any(path.name == "chain.py" for path in sources)
    namers = sorted((str(path.relative_to(ROOT)), func)
                    for path in sources for func in _namers(path, "_validate_block"))
    assert namers == [("src/skyprov/chain.py", "validate_block")]
