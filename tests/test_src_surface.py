"""The shape of src/.  Every function in it is reached by the program: code
that only the tests call lives under tests/ (see the *_reference.py modules).
No module imports `dataclasses`, which costs every command line its import,
and the value types keep the contract that sets, dict keys, sorting and
printed details rely on."""

import ast
from pathlib import Path

import pytest

from trifourier import _EXPORTS
from trifourier.gf2 import IntervalLabel, Subspace
from trifourier.nonabelian import MPair
from trifourier.report import Check, Report
from trifourier.taumaps import CircularMap

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trifourier"

ALLOWED_UNREACHED = set()


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



def test_no_src_module_imports_dataclasses():
    # dataclasses pulls in inspect, and building each class execs its methods: more
    # than 10 ms of every command's start.  The value types are NamedTuples and the
    # records plain classes.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _is_doubling(node) -> bool:
    """node is `t += [x ^ v for x in t]`: a list extended by each of its items XOR one value."""
    if not (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and isinstance(node.target, ast.Name)):
        return False
    comp = node.value
    return (
        isinstance(comp, ast.ListComp)
        and isinstance(comp.elt, ast.BinOp)
        and isinstance(comp.elt.op, ast.BitXor)
        and any(isinstance(g.iter, ast.Name) and g.iter.id == node.target.id for g in comp.generators)
    )


def test_subset_xor_table_is_built_only_in_span_vectors():
    # gf2.span_vectors is the one table of subset sums: the Gram forms and the map
    # tables call it rather than doubling a list themselves
    sites = []
    span = None
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.name, node.lineno) for node in ast.walk(tree) if _is_doubling(node)]
        if path.name == "gf2.py":
            span = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "span_vectors")
    assert len(sites) == 1, sites
    assert sites[0][0] == "gf2.py" and span.lineno <= sites[0][1] <= span.end_lineno, sites


# each value type, its field names in order, and two values whose field tuples differ
VALUE_TYPES = [
    (Subspace, ("rows",), ((1, 6),), ((2,),)),
    (IntervalLabel, ("a", "b"), (1, 3), (2, 2)),
    (CircularMap, ("src_dim", "dst_dim", "images"), (2, 4, (1, 2, 3)), (2, 4, (1, 2, 12))),
    (MPair, ("x", "rho"), ("g2", "eps"), ("1", "r")),
]


@pytest.mark.parametrize("cls, names, first, second", VALUE_TYPES, ids=[v[0].__name__ for v in VALUE_TYPES])
def test_value_type_contract(cls, names, first, second):
    a, b = cls(*first), cls(*second)
    assert tuple(getattr(a, n) for n in names) == first
    # equal values are equal and hash as the tuple of their fields
    assert a == cls(*first) and a != b
    assert hash(a) == hash(first) and len({a, cls(*first), b}) == 2
    # ordered by that tuple
    assert (a < b) == (first < second) and sorted([a, b]) == [cls(*t) for t in sorted([first, second])]
    # immutable
    for n in names:
        with pytest.raises(AttributeError):
            setattr(a, n, getattr(b, n))
    assert a == cls(*first)
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, first))
    assert repr(a) == f"{cls.__name__}({fields})"


def test_report_constructs_with_and_without_checks():
    empty, other = Report("s"), Report("s")
    empty.add("one", True)
    assert [c.check_id for c in empty.checks] == ["one"] and other.checks == []  # no shared default list
    given = [Check("a", True), Check("b", False, "why")]
    rep = Report("t", given)
    assert rep.checks is given and not rep.ok
    assert rep.summary() == "[PASS] a\n[FAIL] b: why\nsuite t: FAIL (2 checks)"
