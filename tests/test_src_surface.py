"""Every function in src/ is reached by the program: code that only the tests
call lives under tests/ (see the *_reference.py modules)."""

import ast
from pathlib import Path

from trifourier import _EXPORTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trifourier"

# Paper lemmas with no caller yet.  They are to be run by a `verify` suite
# (the change of basis by the recursion needs check_complement); adding them
# to a suite now would change the bytes that `verify` prints.
ALLOWED_UNREACHED = {"check_complement", "numbered_pair"}


def _wrapped_by_benchmark() -> set[str]:
    """The attribute names perfbench/traced.py wraps: tr.wrap(owner, "name", ...), also inside
    a loop over a tuple of names."""
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8"))
    loops = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple):
            for sub in ast.walk(node):
                loops[id(sub)] = (node.target.id, [c.value for c in node.iter.elts if isinstance(c, ast.Constant)])
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap":
            attr = node.args[1]
            if isinstance(attr, ast.Constant):
                names.add(attr.value)
            elif isinstance(attr, ast.Name) and loops.get(id(node), (None,))[0] == attr.id:
                names.update(loops[id(node)][1])
    return names


def _referenced_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _definitions(tree: ast.Module):
    """Module-level functions, and the methods of classes outside _EXPORTS.

    Dunder names are left out: Python calls them (`__init__`, `__eq__`, the
    module `__getattr__`), not the program.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef) and node.name not in _EXPORTS:
            yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef))


def test_every_src_function_is_reached():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    wrapped = _wrapped_by_benchmark()
    assert "verify_relations" in wrapped  # wrapped inside the loop over the dihedral checks
    unreached = set()
    for module, tree in trees.items():
        for fn in _definitions(tree):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if fn.name in _EXPORTS or fn.name in wrapped:
                continue
            inside = {id(node) for node in ast.walk(fn)}
            used = any(
                _referenced_name(node) == fn.name and id(node) not in inside
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used:
                unreached.add(f"{module}:{fn.name}")
    assert {name.split(":")[1] for name in unreached} == ALLOWED_UNREACHED, sorted(unreached)

