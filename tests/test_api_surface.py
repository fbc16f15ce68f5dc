"""Every function, class, method and default of the package has a user.

A public name that only tests call is a second copy of behaviour the
program does not run.  So each public top-level function or class of
``src/vascrom`` must be referenced, outside its own definition, from the
program (``src/``), its scripts (``scripts/``) or the benchmark
(``perfbench/``), or be imported by the acceptance gate
(``tests/test_acceptance.py``), whose criteria are written against the
scalar API.  A public method or property of a package class needs the same
kind of user; the acceptance gate counts when it names the attribute.  A
private name (a leading underscore) must be referenced from the program
itself: a helper that a refactor leaves behind fails.  Only names and
attributes in the syntax tree count, not comments or strings.

A default that nobody overrides is a constant dressed as a knob.  So every
defaulted parameter of a public package function, and every defaulted
``__init__`` field of a public package dataclass, must be passed somewhere
in the program, its scripts, the benchmark or the tests: by keyword, by
position, through ``**`` or through ``dataclasses.replace``.  Calls are
matched to definitions by name; a ``**`` or ``*`` whose keys or length the
syntax tree does not show passes every parameter it could reach.

Every file format is decided in one module: no module of the package but
``formats.py`` imports ``json`` or ``csv`` or opens a file.
"""

import ast
import json
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vascrom"
USERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TESTS = ROOT / "tests"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _trees(roots=USERS) -> dict[Path, ast.Module]:
    """Every Python file under roots: by default the program, its scripts and
    the benchmark."""
    return {path: _tree(path) for root in roots for path in sorted(root.rglob("*.py"))}


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
    trees = _trees([ROOT / "src"])
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{path.stem}.{node.name}"
        for path, node in _definitions(trees, private=True)
        if uses[node.name] == _names(node)[node.name]
    ]


def test_every_private_name_has_a_user_in_the_program():
    assert _unused_private_names() == []


def _methods(trees: dict[Path, ast.Module]) -> list[tuple[Path, ast.ClassDef, ast.FunctionDef]]:
    """(module, class, method) for every public method and property of a
    public package class."""
    return [
        (path, cls, node)
        for path, cls in _definitions(trees)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _unused_methods() -> list[str]:
    trees = _trees()
    uses = sum((_names(tree) for tree in trees.values()), _names(_tree(ACCEPTANCE)))
    # a use inside the method's own definition does not count
    return [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, cls, node in _methods(trees)
        if uses[node.name] == _names(node)[node.name]
    ]


def test_every_public_method_has_a_user_outside_tests():
    assert _unused_methods() == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
        for d in node.decorator_list
        if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name)
    )


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) for every __init__ field of a dataclass, in
    order; a field(init=False) is none."""
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        fields.append((stmt.target.id, value is not None))
    return fields


def _parameters(node: ast.FunctionDef) -> list[tuple[str, bool]]:
    """(name, has a default) for every positional parameter of a function,
    in order, then its keyword-only ones."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    return [(a.arg, i >= first_default) for i, a in enumerate(positional)] + [
        (a.arg, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
    ]


def _signatures(trees) -> dict[str, tuple[str, list[tuple[str, bool]], int]]:
    """callable name -> (qualified name, parameters, number of positional
    parameters) for every public package function and dataclass."""
    out = {}
    for path, node in _definitions(trees):
        if isinstance(node, ast.FunctionDef):
            params = _parameters(node)
            positional = len(node.args.posonlyargs + node.args.args)
        elif _is_dataclass(node):
            params = _init_fields(node)
            positional = len(params)
        else:
            continue
        out[node.name] = (f"{path.stem}.{node.name}", params, positional)
    return out


ALL = "*"  # every field that a dataclasses.replace(obj, **mapping) may set


def _calls(node: ast.AST, scope=None):
    """(call, the outermost function around it or None) for every call under
    node; a closure's free names are its outer function's."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, scope
        inner = child if scope is None and isinstance(child, ast.FunctionDef) else scope
        yield from _calls(child, inner)


def _passed(trees, signatures) -> dict[str, set]:
    """callable name -> (parameter, via) for every argument a call passes to
    a package function or dataclass.  A ``*`` or ``**`` whose length or keys
    the syntax tree does not show passes every parameter it could reach.  via
    is (function, parameter) when the argument is a defaulted parameter of
    the package function the call sits in, passed on as it is, else None.
    ``replace`` collects the keywords of every dataclasses.replace call."""
    passed = defaultdict(set)
    for tree in trees.values():
        for call, scope in _calls(tree):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in signatures and name != "replace":
                continue
            _, params, n_positional = signatures.get(name, ("", [], 0))
            names = [param for param, _ in params] or [ALL]
            outer = signatures.get(getattr(scope, "name", None), ("", [], 0))[1]
            forwarded = {param for param, has_default in outer if has_default}

            def via(value):
                if isinstance(value, ast.Name) and value.id in forwarded:
                    return scope.name, value.id
                return None

            for i, arg in enumerate(call.args[:n_positional]):
                if isinstance(arg, ast.Starred):
                    passed[name].update((param, None) for param in names[i:n_positional])
                    break
                passed[name].add((names[i], via(arg)))
            for k in call.keywords:
                if k.arg is not None:
                    passed[name].add((k.arg, via(k.value)))
                elif isinstance(k.value, ast.Dict) and all(
                        isinstance(key, ast.Constant) for key in k.value.keys):
                    passed[name].update((key.value, None) for key in k.value.keys)
                else:
                    passed[name].update((param, None) for param in names)
    return passed


def _unset_defaults() -> list[str]:
    """Every defaulted parameter or field that no call sets.  A default
    passed on only from a default of the calling function is set where that
    one is."""
    signatures = _signatures(_trees())
    passed = _passed(_trees(USERS + [TESTS]), signatures)
    unset = {(name, param) for name, (_, params, _) in signatures.items()
             for param, has_default in params if has_default}
    while True:  # a dataclass (capitalised, as every package class) also takes replace's
        now_set = {
            (name, param) for name, param in unset
            if any(given in (param, ALL) and via not in unset for given, via in
                   passed[name] | (passed["replace"] if name[0].isupper() else set()))
        }
        if not now_set:
            return sorted(f"{signatures[name][0]}.{param}" for name, param in unset)
        unset -= now_set


def test_every_default_is_overridden_somewhere():
    assert _unset_defaults() == []


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


def test_surface_check_sees_methods_and_defaults():
    """The method rule finds methods and properties of package classes; the
    default rule reads defaults, init=False fields and every way of passing
    an argument."""
    methods = {f"{cls.name}.{node.name}" for _, cls, node in _methods(_trees())}
    assert {"VascularNetwork.steady_inflow", "Solution.inlet_pressure",
            "VascularNetwork.validate"} <= methods
    signatures = _signatures(_trees())
    assert ("topology", False) not in signatures["VascularNetwork"][1]
    assert ("bifurcation_definition", True) in signatures["VascularNetwork"][1]
    assert signatures["solve_opt"][1][0] == ("network", False)
    source = ("def f(a, b=1, *, c=2):\n    return f(0, b, c=3)\n"
              "def g(a, b=1):\n    pass\n"
              "f(**{'b': 4})\ng(**opts)\ng(*xs)\ndataclasses.replace(obj, e=5)\n")
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    signatures = {name: (name, _parameters(node), 2) for name, node in defs.items()}
    passed = _passed({Path("x.py"): tree}, signatures)
    assert passed["f"] == {("a", None), ("b", ("f", "b")), ("c", None), ("b", None)}
    assert passed["g"] == {("a", None), ("b", None)}
    assert passed["replace"] == {("e", None)}


# what only formats.py may do: open a file, or read or write JSON or CSV text
FILE_MODULES = {"json", "csv"}
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_access(tree: ast.Module) -> list[str]:
    """Every import of json or csv in the tree, and every call of open or of a
    pathlib read or write, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Call):
            func = node.func
            names = [func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name in (FILE_CALLS if isinstance(node, ast.Call) else FILE_MODULES)]
    return found


def test_only_formats_reads_and_writes_files():
    """Every file format is written and read in formats.py, so it is decided once."""
    found = {path.name: _file_access(tree) for path, tree in _trees([PACKAGE]).items()
             if path.name != "formats.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    tree = ast.parse("import json\nfrom csv import writer\nopen(p)\np.write_text(t)\nf(p)\n")
    assert _file_access(tree) == ["1: json", "2: csv", "3: open", "4: write_text"]
    assert _file_access(_tree(PACKAGE / "formats.py"))


def test_tree_classes_hold_no_instance_dict():
    """A tree holds one of these per vessel, outlet or junction, so they are
    slotted: no field added later may bring the per-instance dict back."""
    from vascrom.network import BoundaryCondition, Fluid, Junction, JunctionOutlet, Vessel
    from vascrom.nondim import CoefficientSet

    classes = (Fluid, Vessel, BoundaryCondition, JunctionOutlet, Junction, CoefficientSet)
    assert {cls.__name__: cls.__dictoffset__ for cls in classes} == {
        cls.__name__: 0 for cls in classes}


def test_solver_scaling_script_runs():
    """scripts/ counts as a user of the package, so its one script must run."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "solver_scaling.py"), "--depths", "2",
         "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    (line,) = result.stdout.splitlines()
    assert set(json.loads(line)) == {
        "depth", "vessels", "standard_s", "std_iterations", "nnz_jacobian", "nnz_factor",
        "rri_s", "rri_nfev", "rri_njev", "kkt_s", "kkt_traced_peak_mb", "step_ms", "step_nfev",
        "step_njev", "process_peak_rss_mb",
    }
