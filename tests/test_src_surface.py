"""The shape of src/.  Every function in it is reached by the program: code
that only the tests call lives under tests/ (see the *_reference.py modules).
No module imports `dataclasses`, which costs every command line its import,
and the value types keep the contract that sets, dict keys, sorting and
printed details rely on."""

import ast
import textwrap
from pathlib import Path

import pytest

from trifourier import _EXPORTS
from trifourier.gf2 import IntervalLabel, Subspace
from trifourier.nonabelian import MPair
from trifourier.report import Report
from trifourier.taumaps import CircularMap

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trifourier"

# Functions no src/ code reaches, each with the caller outside src/ and tests/
# that keeps it; a test alone keeps nothing in src/.
ALLOWED_UNREACHED = {
    "FTMatrix.matrix": "the benchmark's cyclotomic.mul probe in perfbench/traced.py reads it",
    "CobMatrix.entry": "the README's library quick tour calls it",
    "Cyc.to_rational": "the README's library quick tour calls it",
}


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


_SCOPES = (ast.FunctionDef, ast.Lambda)
_MODULE = object()  # the receiver is a module


def _class_named(node, classes) -> str | None:
    """The class a name or an annotation names: `C` or "C"."""
    name = node.id if isinstance(node, ast.Name) else node.value if isinstance(node, ast.Constant) else None
    return name if name in classes else None


def _local_classes(fn, classes) -> dict[str, str | None]:
    """Each name fn binds, mapped to its class when the AST tells: a parameter
    annotated C, or a local whose every binding is `x = C(...)`."""
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
    bound = {p.arg: {_class_named(p.annotation, classes)} for p in params}
    todo, typed = list(fn.body) if isinstance(fn.body, list) else [fn.body], {}
    while todo:  # fn's own nodes, each before its children; not those of a function or class inside it
        node = todo.pop()
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            call = node.value
            typed[id(node.targets[0])] = _class_named(call.func, classes) if isinstance(call, ast.Call) else None
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, set()).add(typed.get(id(node)))
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return {name: owners.pop() if len(owners) == 1 else None for name, owners in bound.items()}


def unreached(sources: dict[str, str], exempt=frozenset()) -> set[str]:
    """The functions and methods of the modules `sources` (name -> text) that no
    code outside their own body refers to, as "module.function" and "Class.method".

    A bare name or an import reaches the module functions of that name.  `x.name`
    reaches the method `C.name` when x is `self` or `cls` inside C, the class C,
    a parameter annotated C or a local assigned `C(...)`; a module function when x
    is a module; and otherwise every function and method of that name.  Dunder
    names (Python calls them) and the names in `exempt` are left out.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs, functions, methods, owners = {}, {}, {}, {}  # key -> name; name -> keys; class -> names; name -> keys
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = node.name
                functions.setdefault(node.name, []).append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names = methods.setdefault(node.name, set())
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{node.name}.{sub.name}"] = sub.name
                        names.add(sub.name)
                        owners.setdefault(sub.name, []).append(f"{node.name}.{sub.name}")
    reached = set()

    def receiver(node, scopes, cls, modules):
        if not isinstance(node, ast.Name):
            return None
        if node.id in ("self", "cls") and cls:
            return cls
        for scope in reversed(scopes):
            if node.id in scope:
                return scope[node.id]
        return node.id if node.id in methods else _MODULE if node.id in modules else None

    def visit(node, module, modules, scopes, cls, inside):
        """Record what each reference under node reaches, outside the definitions `inside`."""
        targets = ()
        if isinstance(node, ast.Name):
            targets = functions.get(node.id, ())
        elif isinstance(node, ast.alias):
            targets = functions.get(node.name, ())
        elif isinstance(node, ast.Attribute):
            owner = receiver(node.value, scopes, cls, modules)
            if owner is _MODULE:
                targets = functions.get(node.attr, ())
            elif owner is not None:
                targets = [f"{owner}.{node.attr}"] if node.attr in methods[owner] else ()
            else:
                targets = [*functions.get(node.attr, ()), *owners.get(node.attr, ())]
        reached.update(key for key in targets if key not in inside)
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, _SCOPES):
            if not scopes and not isinstance(node, ast.Lambda):
                inside = inside + (f"{cls}.{node.name}" if cls else f"{module}.{node.name}",)
            scopes = scopes + [_local_classes(node, methods)]
        for child in ast.iter_child_nodes(node):
            visit(child, module, modules, scopes, cls, inside)

    for module, tree in trees.items():
        modules = set()  # the names this module binds to modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                modules.update(a.asname or a.name for a in node.names if a.name in trees)
        visit(tree, module, modules, [], None, ())
    skip = set(exempt) | {name for name in defs.values() if name.startswith("__") and name.endswith("__")}
    return {key for key, name in defs.items() if key not in reached and name not in skip}


def test_every_src_function_is_reached():
    wrapped = _wrapped_by_benchmark()
    assert "verify_relations" in wrapped  # wrapped inside the loop over the dihedral checks
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = unreached(sources, set(_EXPORTS) | wrapped)
    assert found == set(ALLOWED_UNREACHED), sorted(found ^ set(ALLOWED_UNREACHED))


def _unreached(**sources):
    return unreached({name: textwrap.dedent(text) for name, text in sources.items()}, {"main"})


def test_guard_flags_a_method_read_only_through_another_class():
    # B reads its own matrix through self; the name alone would count A.matrix as reached
    assert _unreached(mod="""
        class A:
            def matrix(self):
                return 1

        class B:
            def matrix(self):
                return 2

            def show(self):
                return self.matrix()

        def main():
            return B().show()
    """) == {"A.matrix"}


def test_guard_resolves_annotated_parameters_and_constructed_locals():
    assert _unreached(mod="""
        class A:
            def size(self):
                return 1

            def name(self):
                return "a"

        class B:
            def size(self):
                return 2

            def name(self):
                return "b"

        def main(a: A):
            b = B()
            return a.size(), b.name()
    """) == {"A.name", "B.size"}


def test_guard_reads_a_module_attribute_as_a_function():
    assert _unreached(
        packed="""
            def conj(rows):
                return rows
        """,
        cyclotomic="""
            class Cyc:
                def conj(self):
                    return self
        """,
        cli="""
            from . import packed

            def main(x):
                return packed.conj(x)
        """,
    ) == {"Cyc.conj"}


def test_guard_lets_an_unresolved_receiver_reach_every_owner():
    # item is unannotated and x is bound to two classes: each call reaches both owners
    assert _unreached(mod="""
        class A:
            def entry(self):
                return 1

            def size(self):
                return 1

        class B:
            def entry(self):
                return 2

            def size(self):
                return 2

        def main(items, flag):
            x = A()
            if flag:
                x = B()
            return [item.entry() for item in items], x.size()
    """) == set()


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


def _top_functions(path) -> dict[str, ast.FunctionDef]:
    return {fn.name: fn for fn in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(fn, ast.FunctionDef)}


def _names_read(fn) -> set[str]:
    """The bare names and attribute names that fn reads."""
    nodes = (node for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute)))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes}


def test_recursion_reaches_tau_only_through_pushes():
    # family.pushes is the one recursion step: outside taumaps.py only family.py imports
    # tau by name, and only pushes reads it there.  Every check reads taumaps.tau, so
    # that a map substituted in taumaps reaches all of them.
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "taumaps.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.alias) and node.name == "tau":
                    readers.add(f"{where} imports tau")
                elif isinstance(node, ast.Name) and node.id == "tau":
                    readers.add(where)
                elif isinstance(node, ast.Attribute) and node.attr == "tau":
                    if not (isinstance(node.value, ast.Name) and node.value.id == "taumaps"):
                        readers.add(where)
    assert readers == {"family.<module> imports tau", "family.pushes"}, sorted(readers)
    # the recursions and the change of basis push through pushes alone, and the
    # complement check reads the map it is given
    family, fourier = _top_functions(SRC / "family.py"), _top_functions(SRC / "fourier.py")
    for fn in (family["family_subspaces"], family["family_subspaces_prime"], fourier["push_up"]):
        assert not _names_read(fn) & {"tau", "key_table", "push_key"}, fn.name
        assert "pushes" in _names_read(fn), fn.name
    assert "tau" not in _names_read(_top_functions(SRC / "taumaps.py")["check_complement"])


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


def test_report_starts_each_suite_with_its_own_check_list():
    empty, other = Report("s"), Report("s")
    empty.add("one", True)
    assert [c.check_id for c in empty.checks] == ["one"] and other.checks == []  # no shared list
    rep = Report("t")
    rep.add("a", True)
    rep.require("b", False, "why")
    assert not rep.ok
    assert rep.summary() == "[PASS] a\n[FAIL] b: why\nsuite t: FAIL (2 checks)"


def test_max_dense_dim_caps_only_the_matrix_export():
    # `verify` takes one path at every D; the cap on 2^D x 2^D is the export's alone
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    continue
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name == "MAX_DENSE_DIM" and isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                    readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert readers == {"cli._emit_matrix"}


def test_newbasis_names_resolve_through_nonabelian():
    # `nonabelian._NEWBASIS` is exactly the names `newbasis` defines that code outside it
    # reads, and each resolves through trifourier.nonabelian in a fresh interpreter, where
    # nothing has imported `newbasis` yet
    import os
    import subprocess
    import sys

    from trifourier import nonabelian

    tree = ast.parse((SRC / "newbasis.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.AnnAssign) for t in [node.target]}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name == "newbasis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(("nonabelian", "newbasis")):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("nonabelian", "newbasis"):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
                read.update(arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant))
    assert nonabelian._NEWBASIS == defined & read, sorted(nonabelian._NEWBASIS ^ (defined & read))
    script = (
        "import trifourier.nonabelian as m\n"
        "got = {name: getattr(m, name) for name in m._NEWBASIS}\n"
        "import trifourier.newbasis as nb\n"
        "assert all(value is getattr(nb, name) for name, value in got.items())\n"
        "print(len(got))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == f"{len(nonabelian._NEWBASIS)}\n", proc.stderr
