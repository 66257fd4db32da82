"""Surface guard: every function and class that src/skyprov defines is named
somewhere in src/skyprov or skybench/ besides its own definition, so code
that only tests call does not accumulate in the package."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name -> why it stays though no module names it
ALLOWED = {
    "to_json_bytes": "criterion 8 hashes a proof's bytes against a frozen golden",
    "block_from_obj": "the reference that block_from_bytes is tested against",
}

# A string that is a dotted name, as skybench names the functions it wraps.
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _names(node):
    """The names that one syntax node uses."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):  # an import in __init__ counts as a use
        return [alias.name.split(".")[-1] for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
        return node.value.split(".")
    if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets):
        # the CLI runs cmd_<name> for each COMMANDS key
        return ["cmd_" + key.value.replace("-", "_") for key in node.value.keys]
    return []


def _definitions_and_uses():
    """({defined name: [module, ...]}, {name: times used outside its own definitions})."""
    defined, uses = {}, {}
    sources = sorted((ROOT / "src" / "skyprov").glob("*.py")) + sorted((ROOT / "skybench").glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for name in _names(node):
                uses[name] = uses.get(name, 0) + 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a definition that names itself, as a recursive call does, uses nothing
                for inner in ast.walk(node):
                    uses[node.name] = uses.get(node.name, 0) - _names(inner).count(node.name)
                if path.parent.name == "skyprov" and not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(path.name)
    return defined, uses


def test_every_definition_in_the_package_is_used_outside_the_tests():
    defined, uses = _definitions_and_uses()
    assert len(defined) > 100
    unused = sorted(name for name in defined if uses.get(name, 0) <= 0 and name not in ALLOWED)
    assert unused == []


def test_every_allowed_name_is_still_defined_and_otherwise_unused():
    defined, uses = _definitions_and_uses()
    assert {name: uses.get(name, 0) <= 0 for name in ALLOWED if name in defined} == dict.fromkeys(ALLOWED, True)
