"""Every top-level function, class and method in pik has a caller outside its unit tests.

The callers searched are the library itself (without the re-exports in
``__init__.py``), the benchmark (without its own tests) and the scripts.  A
name counts as called when that code uses it by its own name, by an import
alias or as an attribute of an imported pik module.  A non-dunder method of
a top-level class counts as called when that code reads an attribute of its
name, on a receiver that can be of that class or of a class the AST does not
show.  The AST shows a receiver's class through:

* ``self`` inside the class;
* a parameter or name annotated ``Cls``, ``Optional[Cls]`` or ``Cls | None``;
* a call of ``Cls(...)`` or of a function annotated ``-> Cls``;
* a class-level (dataclass) field annotated ``Cls``, read on a receiver
  whose class is shown;
* an item of, or a ``for`` or comprehension target over, a name, call or
  field annotated ``list[Cls]``, ``Sequence[Cls]``, ``tuple[Cls, ...]``,
  ``Iterator[Cls]`` or ``Iterable[Cls]``;
* a tuple target, element by element, over ``zip(...)`` or
  ``enumerate(...)`` of such iterables, or assigned a tuple of such values;
* ``a or b`` of these, and a name bound only to these.

A read on a name that an import binds to a pik module (``endos.is_identity``
after ``from . import endos``) is a read of that module's own name, not of
any method.  A name bound to different classes can be any of them, and a
read on it counts for each.  A name with one binding the AST does not type
(a tuple target over anything else, a ``with`` target, a subscript of an
untyped value) has no class shown.  Uses inside the name's own definition,
such as recursion, do not count.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIK = ROOT / "src" / "pik"

# Names kept without such a caller, each for the reason given.
ALLOWED = {
    ("ajohnson", "inner_degree_check"): "used by an acceptance test",
    ("endos", "automorphism"): "bench/tracer.py LAYERS wraps it by name",
    ("magnus", "johnson_image"): (
        "bench/tracer.py LAYERS wraps it by name; the group-side oracle in tests uses it"
    ),
}

DEFS = (ast.FunctionDef, ast.ClassDef)


def _caller_files() -> list[Path]:
    lib = [p for p in sorted(PIK.glob("*.py")) if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"]
    return lib + bench + sorted((ROOT / "scripts").glob("*.py"))


def _pik_module(node: ast.ImportFrom) -> "str | None":
    """The pik module an import reads from ('' for the package itself), else None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "pik":
        return ""
    if node.level == 0 and node.module and node.module.startswith("pik."):
        return node.module[4:]
    return None


def _uses(tree: ast.Module, own: str) -> list[tuple[tuple[str, str], ast.stmt]]:
    """((module, name), enclosing top-level statement) for each use of a pik name."""
    names = {n.name: (own, n.name) for n in tree.body if isinstance(n, DEFS) and own}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (src := _pik_module(node)) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if src:
                    names[local] = (src, alias.name)
                else:
                    modules[local] = alias.name
    out = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                out.append((names[node.id], stmt))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                out.append(((modules[node.value.id], node.attr), stmt))
    return out


def uncalled() -> set[tuple[str, str]]:
    """(module, name) of every top-level pik definition that nothing else uses."""
    trees = {p: ast.parse(p.read_text()) for p in _caller_files()}
    defined = {
        (p.stem, n.name): n
        for p, tree in trees.items()
        if p.parent == PIK
        for n in tree.body
        if isinstance(n, DEFS)
    }
    used = set()
    for path, tree in trees.items():
        for key, stmt in _uses(tree, path.stem if path.parent == PIK else ""):
            if defined.get(key) is not stmt:
                used.add(key)
    return set(defined) - used


def _named_class(ann: "ast.AST | None", classes: set[str]) -> "str | None":
    """The class an annotation names: Cls, "Cls", Optional[Cls] or Cls | None; else None."""
    if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", None) == "Optional":
        ann = ann.slice
    elif isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        if isinstance(ann.right, ast.Constant) and ann.right.value is None:
            ann = ann.left
    name = ann.id if isinstance(ann, ast.Name) else ann.value if isinstance(ann, ast.Constant) else None
    return name if name in classes else None


def _item_class(ann: "ast.AST | None", classes: set[str]) -> "str | None":
    """The class of the items of list[Cls], Sequence[Cls], tuple[Cls, ...],
    Iterator[Cls] or Iterable[Cls], else None."""
    if not isinstance(ann, ast.Subscript):
        return None
    outer = ann.value.id if isinstance(ann.value, ast.Name) else getattr(ann.value, "attr", None)
    inner = ann.slice
    if outer == "tuple" and isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
        last = inner.elts[1]
        inner = inner.elts[0] if isinstance(last, ast.Constant) and last.value is Ellipsis else None
    elif outer not in ("list", "Sequence", "Iterator", "Iterable"):
        return None
    return _named_class(inner, classes)


class _Types:
    """What the AST shows of the library's classes: their fields' annotations
    and the functions annotated to return a class or a sequence of one."""

    def __init__(self, lib: dict[str, ast.Module], trees: list[ast.Module]):
        self.classes = {n.name for tree in lib.values() for n in tree.body if isinstance(n, ast.ClassDef)}
        self.fields = {
            (cls.name, stmt.target.id): stmt.annotation
            for tree in lib.values()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        # a function name counts as returning Cls (or a sequence of Cls) only
        # when every def of it says so
        returned: dict[str, set] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    returned.setdefault(node.name, set()).add(self.annotated(node.returns))
        self.returns = {name: got.pop() for name, got in returned.items() if len(got) == 1}

    def annotated(self, ann: "ast.AST | None") -> tuple:
        """(the classes a value annotated ann can be, the classes of its items), None where unknown."""
        cls, item = _named_class(ann, self.classes), _item_class(ann, self.classes)
        return (frozenset([cls]) if cls else None, frozenset([item]) if item else None)

    def of(self, node: ast.AST, local: dict, items: dict, want: int = 0) -> "frozenset | None":
        """The classes an expression can be (want=0), or those of its items
        (want=1), with local and items typing the names; None where unknown."""
        if isinstance(node, ast.Name):
            return (local, items)[want].get(node.id)
        if isinstance(node, ast.Attribute):
            owners = self.of(node.value, local, items)
            found = [self.annotated(self.fields.get((cls, node.attr)))[want] for cls in owners or ()]
            return frozenset().union(*found) if owners is not None and None not in found else None
        if isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice):
            return self.of(node.value, local, items, 1) if want == 0 else None
        if isinstance(node, ast.BoolOp):
            found = [self.of(v, local, items, want) for v in node.values]
            return frozenset().union(*found) if None not in found else None
        if not isinstance(node, ast.Call):
            return None
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name in self.classes:
            return frozenset([name]) if want == 0 else None
        return self.returns.get(name, (None, None))[want]

    def receivers(self, scope: ast.FunctionDef, owner: "str | None") -> dict[int, frozenset]:
        """id of each attribute read in a top-level function or method -> the
        classes its receiver can be, where every binding of the receiver shows them."""
        # each binding of a name gives, from the names typed so far, the
        # classes it binds and the classes of their items
        how = {}

        def bind(target: ast.AST, value: ast.AST, want: int) -> None:
            """target is bound to value (want=0) or to an item of it (want=1)."""
            if not isinstance(target, ast.Tuple):
                how[id(target)] = lambda local, items: (
                    self.of(value, local, items, want),
                    None if want else self.of(value, local, items, 1),
                )
                return
            func = getattr(value, "func", None)
            parts = []  # (value, want) for each element of the target
            if want and isinstance(func, ast.Name) and func.id == "zip":
                parts = [(arg, 1) for arg in value.args]
            elif want and isinstance(func, ast.Name) and func.id == "enumerate":
                parts = [(None, 0), (value.args[0], 1)]
            elif not want and isinstance(value, ast.Tuple):
                parts = [(elt, 0) for elt in value.elts]
            if len(parts) == len(target.elts):
                for elt, (v, w) in zip(target.elts, parts):
                    if v is not None:
                        bind(elt, v, w)

        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                bind(node.targets[0], node.value, 0)
            elif isinstance(node, ast.AnnAssign):
                how[id(node.target)] = lambda local, items, a=node.annotation: self.annotated(a)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bind(node.target, node.iter, 1)
        first = scope.args.args[0] if owner and scope.args.args else None
        binds: dict[str, list] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.arg):
                got = self.annotated(node.annotation)
                if node is first and node.arg == "self":
                    got = (frozenset([owner]), None)
                binds.setdefault(node.arg, []).append(lambda local, items, got=got: got)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                binds.setdefault(node.id, []).append(how.get(id(node), lambda local, items: (None, None)))
        # A name can be any class one of its bindings gives, and is unknown
        # (None) when one binding is.  Bindings can read other names, or the
        # name itself (x = x or Cls()), so start every bound name at no class
        # and widen until nothing changes; the widening is monotone, so it ends.
        typed = [{name: frozenset() for name in binds}, {name: frozenset() for name in binds}]
        while True:
            got = {name: [bind(*typed) for bind in fs] for name, fs in binds.items()}
            wider = [
                {
                    name: frozenset().union(*found) if None not in found else None
                    for name, gs in got.items()
                    for found in [[g[want] for g in gs]]
                }
                for want in (0, 1)
            ]
            if wider == typed:
                break
            typed = wider
        out = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owners = self.of(node.value, *typed)
                if owners:
                    out[id(node)] = owners
        return out


def _module_names(tree: ast.Module, stems: set[str]) -> set[str]:
    """Local names that an import binds to one of the lib modules."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _pik_module(node) == ""
        for alias in node.names
        if alias.name in stems
    }


def unread_methods(lib: dict[str, ast.Module], others: list[ast.Module]) -> set[tuple[str, str, str]]:
    """(module, class, method) of every non-dunder method of a top-level
    class of the lib modules whose name nothing else reads as an attribute
    on a receiver that can be of that class, or of a class the AST does not show."""
    methods = {
        (stem, cls.name, f.name): f
        for stem, tree in lib.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__"))
    }
    trees = list(lib.values()) + others
    types = _Types(lib, trees)
    receiver: dict[int, frozenset] = {}
    for tree in trees:
        for top in tree.body:
            scopes = [(top, None)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                scopes = [(f, top.name) for f in top.body if isinstance(f, ast.FunctionDef)]
            for scope, owner in scopes:
                receiver.update(types.receivers(scope, owner))
    has_method = {(cls, name) for _, cls, name in methods}
    reads: dict[tuple["str | None", str], list[ast.Attribute]] = {}
    for tree in trees:
        modules = _module_names(tree, set(lib))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    continue  # a module's own name, which uncalled() checks
                owners = receiver.get(id(node), ())
                keys = [(cls, node.attr) for cls in owners]
                if not keys or any(key not in has_method for key in keys):
                    keys = [(None, node.attr)]  # a field, or an inherited method: any class may own it
                for key in keys:
                    reads.setdefault(key, []).append(node)
    unread = set()
    for key, f in methods.items():
        own = {id(node) for node in ast.walk(f)}
        uses = reads.get((key[1], key[2]), []) + reads.get((None, key[2]), [])
        if all(id(node) in own for node in uses):
            unread.add(key)
    return unread


def _imported_modules(stem: str) -> set[str]:
    """The pik modules that the module stem imports from."""
    tree = ast.parse((PIK / f"{stem}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (src := _pik_module(node)) is not None:
            found |= {src} if src else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name[4:] for alias in node.names if alias.name.startswith("pik.")}
    return found


def test_tensor_modules_are_independent():
    # lie and decomp hold tensor polynomials as plain term dicts, and the
    # Magnus expansion returns the same dicts, so neither side imports the other
    assert "magnus" not in _imported_modules("lie")
    assert "magnus" not in _imported_modules("decomp")
    assert "lie" not in _imported_modules("magnus")


def test_tracer_layers_resolve():
    # the benchmark's tracer wraps pik functions by name, so a renamed or
    # deleted one would only show when a traced run starts
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    ]
    named = [(layer, fn) for layer, fns in ast.literal_eval(layers).items() for fn in fns]
    assert named
    missing = [f"{layer}.{fn}" for layer, fn in named if not hasattr(importlib.import_module(f"pik.{layer}"), fn)]
    assert not missing, f"bench/tracer.py LAYERS names what pik does not define: {', '.join(missing)}"


def test_every_library_name_has_a_caller():
    found = uncalled()
    dead = sorted(f"{m}.{n}" for m, n in found - set(ALLOWED))
    assert not dead, f"no caller outside the unit tests: {', '.join(dead)}"
    stale = sorted(f"{m}.{n}" for m, n in set(ALLOWED) - found)
    assert not stale, f"allowed names that now have a caller or are gone: {', '.join(stale)}"


def test_every_library_method_is_read():
    trees = {p: ast.parse(p.read_text()) for p in _caller_files()}
    lib = {p.stem: tree for p, tree in trees.items() if p.parent == PIK}
    others = [tree for p, tree in trees.items() if p.parent != PIK]
    dead = sorted(".".join(key) for key in unread_methods(lib, others))
    assert not dead, f"no caller outside the unit tests: {', '.join(dead)}"


FIXTURE = {
    "reports": """
class Live:
    def as_dict(self):
        return {"n": self.size()}

    def size(self):
        return 1


class Dead:
    def as_dict(self):
        return {}

    def size(self):
        return 0


def build() -> "Live":
    return Live()
""",
    "user": """
from .reports import Dead, Live, build


def show(other: Live):
    live = build()
    dead = Dead()
    return live.as_dict(), other.as_dict(), Live().size(), dead
""",
}


def test_method_read_on_another_class_does_not_count():
    # Live.as_dict is read through `live`, bound to a call of build() ->
    # Live; Live.size through `self` and `Live()`; nothing reads Dead's
    # methods, although Dead() is bound to a name
    lib = {stem: ast.parse(src) for stem, src in FIXTURE.items()}
    assert unread_methods(lib, []) == {("reports", "Dead", "as_dict"), ("reports", "Dead", "size")}


def test_method_read_on_an_unknown_receiver_counts():
    # a receiver the AST cannot type may be any class
    lib = {stem: ast.parse(src) for stem, src in FIXTURE.items()}
    other = ast.parse("def f(x, y):\n    return x.as_dict(), y.size()\n")
    assert unread_methods(lib, [other]) == set()


TYPED = {
    "reports": """
from dataclasses import dataclass


class Part:
    def as_dict(self):
        return {}

    def size(self):
        return 0


@dataclass
class Whole:
    parts: tuple[Part, ...]
    best: Part

    def as_dict(self):
        return {"parts": [p.as_dict() for p in self.parts]}

    def size(self):
        return self.best.size()


class Dead:
    def as_dict(self):
        return {}

    def size(self):
        return 0

    def total(self):
        return 0


def wholes() -> list[Whole]:
    return []
""",
    "user": """
from typing import Optional, Sequence

from .reports import Dead, Whole, wholes


def show(others: Sequence[Dead], one: Optional[Whole] = None):
    one = one or wholes()[0]
    out = [w.size() for w in wholes()] + [one.as_dict()]
    for o in others:
        out.append(o.total())
    return out
""",
}


def test_method_read_through_loops_and_fields():
    # p.as_dict() reads Part.as_dict through a comprehension over a field
    # annotated tuple[Part, ...]; self.best.size() reads Part.size through a
    # field annotated Part; w loops over a call annotated -> list[Whole];
    # one is Optional[Whole] rebound with `or` to an item of that list; o
    # loops over Sequence[Dead].
    # So every read of as_dict and size has a typed receiver, and Dead's
    # as_dict and size are unread although other classes' are read.
    lib = {stem: ast.parse(src) for stem, src in TYPED.items()}
    assert unread_methods(lib, []) == {("reports", "Dead", "as_dict"), ("reports", "Dead", "size")}


def test_receiver_bound_to_two_classes_reads_both():
    # r is a Live or a Dead, so r.size() reads both classes' size, and
    # nothing reads either as_dict on a receiver of its class
    lib = {stem: ast.parse(src) for stem, src in FIXTURE.items()}
    other = ast.parse(
        "from .reports import Dead, Live\n\n\ndef f(flag):\n"
        "    r = Live()\n    if flag:\n        r = Dead()\n    return r.size()\n"
    )
    assert unread_methods({"reports": lib["reports"]}, [other]) == {
        ("reports", "Live", "as_dict"),
        ("reports", "Dead", "as_dict"),
    }


def test_tuple_targets_over_zip_and_enumerate():
    # w unpacks an enumerate and a zip over wholes() -> list[Whole], and x
    # a tuple of values; o unpacks an enumerate over Sequence[Dead].  The
    # nested (a, b) unpacks an untyped iterable, so nothing is read on it.
    # So as_dict and size are read only on Whole receivers.
    lib = {"reports": ast.parse(TYPED["reports"])}
    other = ast.parse(
        "from typing import Sequence\n\nfrom .reports import Dead, wholes\n\n\n"
        "def show(others: Sequence[Dead], pairs):\n"
        "    out = [w.size() for _, w in enumerate(wholes())]\n"
        "    for (a, b), w in zip(pairs, wholes()):\n"
        "        out.append(w.as_dict())\n"
        "    for i, o in enumerate(others, 1):\n"
        "        out.append(o.total())\n"
        "    x, y = wholes()[0], others[0]\n"
        "    return out, x.size(), y.total(), a, b, i\n"
    )
    assert unread_methods(lib, [other]) == {("reports", "Dead", "as_dict"), ("reports", "Dead", "size")}


def test_module_attribute_is_not_a_method_read():
    # helpers.size() reads the module function size, so Live.size (read on
    # self) is live and Dead.size, which shares the name, is unread
    lib = {"reports": ast.parse(FIXTURE["reports"]), "helpers": ast.parse("def size():\n    return 0\n")}
    other = ast.parse(
        "from . import helpers\nfrom .reports import Dead, Live\n\n\n"
        "def f():\n    return helpers.size(), Live().as_dict(), Dead()\n"
    )
    assert unread_methods(lib, [other]) == {("reports", "Dead", "as_dict"), ("reports", "Dead", "size")}
