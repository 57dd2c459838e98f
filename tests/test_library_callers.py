"""Every top-level function, class and method in pik has a caller outside its unit tests.

The callers searched are the library itself (without the re-exports in
``__init__.py``), the benchmark (without its own tests) and the scripts.  A
name counts as called when that code uses it by its own name, by an import
alias or as an attribute of an imported pik module.  A non-dunder method of
a top-level class counts as called when that code reads an attribute of its
name, on a receiver of that class or of a class the AST does not show.
The receiver's class is shown by ``self`` inside the class, by a parameter
annotated ``Cls``, and by a name or call bound to ``Cls(...)`` or to a call
of a function annotated ``-> Cls``.  Uses inside the name's own
definition, such as recursion, do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIK = ROOT / "src" / "pik"

# Names kept without such a caller, each for the reason given.
ALLOWED = {
    ("ajohnson", "inner_degree_check"): "used by an acceptance test",
    ("decomp", "verify_psi_automorphism"): "the paper's F1-F3 maps, with no other check",
    ("endos", "automorphism"): "bench/tracer.py LAYERS wraps it by name",
    ("magnus", "_letter_series"): "the reference that the letter-step test compares against",
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
    """The class an annotation names (as a name or a string), else None."""
    name = ann.id if isinstance(ann, ast.Name) else ann.value if isinstance(ann, ast.Constant) else None
    return name if name in classes else None


def _call_class(call: ast.AST, classes: set[str], returns: dict[str, str]) -> "str | None":
    """The class a call returns: Cls(...), or a function annotated -> Cls."""
    if not isinstance(call, ast.Call):
        return None
    f = call.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    return name if name in classes else returns.get(name)


def _receiver_classes(
    scope: ast.FunctionDef, owner: "str | None", classes: set[str], returns: dict[str, str]
) -> dict[int, str]:
    """id of each attribute read in a top-level function or method -> the
    class of its receiver, where every binding of the receiver shows it:
    self, a parameter annotated with the class, or a call that returns it."""
    bound = {
        id(node.targets[0]): _call_class(node.value, classes, returns)
        for node in ast.walk(scope)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
    }
    first = scope.args.args[0] if owner and scope.args.args else None
    bindings: dict[str, list] = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.arg):
            is_self = node is first and node.arg == "self"
            cls = owner if is_self else _named_class(node.annotation, classes)
            bindings.setdefault(node.arg, []).append(cls)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bindings.setdefault(node.id, []).append(bound.get(id(node)))
    local = {name: cls[0] for name, cls in bindings.items() if cls[0] and set(cls) == {cls[0]}}
    out = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            cls = local.get(value.id) if isinstance(value, ast.Name) else _call_class(value, classes, returns)
            if cls:
                out[id(node)] = cls
    return out


def unread_methods(lib: dict[str, ast.Module], others: list[ast.Module]) -> set[tuple[str, str, str]]:
    """(module, class, method) of every non-dunder method of a top-level
    class of the lib modules whose name nothing else reads as an attribute
    on a receiver of that class, or of a class the AST does not show."""
    methods = {
        (stem, cls.name, f.name): f
        for stem, tree in lib.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__"))
    }
    trees = list(lib.values()) + others
    classes = {n.name for tree in lib.values() for n in tree.body if isinstance(n, ast.ClassDef)}
    # a function name counts as returning Cls only when every def of it says so
    returned: dict[str, set] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                returned.setdefault(node.name, set()).add(_named_class(node.returns, classes))
    returns = {name: cls.pop() for name, cls in returned.items() if len(cls) == 1 and None not in cls}
    receiver: dict[int, str] = {}
    for tree in trees:
        for top in tree.body:
            scopes = [(top, None)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                scopes = [(f, top.name) for f in top.body if isinstance(f, ast.FunctionDef)]
            for scope, owner in scopes:
                receiver.update(_receiver_classes(scope, owner, classes, returns))
    has_method = {(cls, name) for _, cls, name in methods}
    reads: dict[tuple["str | None", str], list[ast.Attribute]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                cls = receiver.get(id(node))
                if (cls, node.attr) not in has_method:
                    cls = None  # a field, or an inherited method: any class may own it
                reads.setdefault((cls, node.attr), []).append(node)
    unread = set()
    for key, f in methods.items():
        own = {id(node) for node in ast.walk(f)}
        uses = reads.get((key[1], key[2]), []) + reads.get((None, key[2]), [])
        if all(id(node) in own for node in uses):
            unread.add(key)
    return unread


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
