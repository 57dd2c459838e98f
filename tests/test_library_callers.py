"""Every top-level function, class and method in pik has a caller outside its unit tests.

The callers searched are the library itself (without the re-exports in
``__init__.py``), the benchmark (without its own tests) and the scripts.  A
name counts as called when that code uses it by its own name, by an import
alias or as an attribute of an imported pik module.  A non-dunder method of
a top-level class counts as called when that code reads an attribute of its
name.  Uses inside the name's own definition, such as recursion, do not
count.
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


def unread_methods() -> set[tuple[str, str, str]]:
    """(module, class, method) of every non-dunder method of a top-level pik
    class whose name nothing else reads as an attribute."""
    trees = {p: ast.parse(p.read_text()) for p in _caller_files()}
    methods = {
        (p.stem, cls.name, f.name): f
        for p, tree in trees.items()
        if p.parent == PIK
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__"))
    }
    reads: dict[str, list[ast.Attribute]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = set()
    for key, f in methods.items():
        own = {id(node) for node in ast.walk(f)}
        if all(id(node) in own for node in reads.get(key[2], [])):
            unread.add(key)
    return unread


def test_every_library_name_has_a_caller():
    found = uncalled()
    dead = sorted(f"{m}.{n}" for m, n in found - set(ALLOWED))
    assert not dead, f"no caller outside the unit tests: {', '.join(dead)}"
    stale = sorted(f"{m}.{n}" for m, n in set(ALLOWED) - found)
    assert not stale, f"allowed names that now have a caller or are gone: {', '.join(stale)}"


def test_every_library_method_is_read():
    dead = sorted(".".join(key) for key in unread_methods())
    assert not dead, f"no caller outside the unit tests: {', '.join(dead)}"
