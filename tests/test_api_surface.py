"""Every function and class of the package has a user.

A public name that only tests call is a second copy of behaviour the
program does not run.  So each public top-level function or class of
``src/vascrom`` must be referenced, outside its own definition, from the
program (``src/``), its scripts (``scripts/``) or the benchmark
(``perfbench/``), or be imported by the acceptance gate
(``tests/test_acceptance.py``), whose criteria are written against the
scalar API.  A private one (a leading underscore) must be referenced from
the program itself: a helper that a refactor leaves behind fails.  Only
names and attributes in the syntax tree count, not comments or strings.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vascrom"
USERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _trees() -> dict[Path, ast.Module]:
    """Every Python file of the program, its scripts and the benchmark."""
    return {path: _tree(path) for root in USERS for path in sorted(root.rglob("*.py"))}


def _definitions(trees: dict[Path, ast.Module], private=False) -> list[tuple[Path, ast.AST]]:
    """(module, node) for every public (or private) top-level function and
    class of the package."""
    return [
        (path, node)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    ]


def _names(node: ast.AST) -> Counter:
    """How often each name and attribute name occurs in the node's subtree."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unused_public_names() -> list[str]:
    trees = _trees()
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    acceptance = {
        alias.name
        for node in ast.walk(_tree(ACCEPTANCE))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # a use inside the name's own definition does not count
    return [
        f"{path.stem}.{node.name}"
        for path, node in _definitions(trees)
        if node.name not in acceptance and uses[node.name] == _names(node)[node.name]
    ]


def test_every_public_name_has_a_user_outside_tests():
    assert _unused_public_names() == []


def _unused_private_names() -> list[str]:
    trees = {path: tree for path, tree in _trees().items() if path.is_relative_to(ROOT / "src")}
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{path.stem}.{node.name}"
        for path, node in _definitions(trees, private=True)
        if uses[node.name] == _names(node)[node.name]
    ]


def test_every_private_name_has_a_user_in_the_program():
    assert _unused_private_names() == []


def test_surface_check_sees_definitions_and_uses():
    """The check finds the package's definitions, and it counts names and
    attributes but not strings."""
    names = {node.name for _, node in _definitions(_trees())}
    assert {"predict_network", "VascularNetwork", "nondimensionalize_geometry"} <= names
    assert not any(name.startswith("_") for name in names)
    private = {node.name for _, node in _definitions(_trees(), private=True)}
    assert {"_fixed_pattern", "_LinearConstraints", "_read_norm_block"} <= private
    assert all(name.startswith("_") for name in private)
    tree = ast.parse("def f():\n    return g(m.h, 'k')\n")
    assert _names(tree) == Counter({"g": 1, "m": 1, "h": 1})
