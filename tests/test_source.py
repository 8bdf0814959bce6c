"""Source-level rules for the package itself."""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import confalg

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_no_assert_statements():
    """Invariants raise typed errors, so ``python -O`` cannot strip them."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(confalg.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_private_imports_across_modules():
    """No module of the package imports a ``_private`` name from another
    one, so a private helper is private to the module that defines it."""
    found = [f"{path.name}:{node.lineno}: {alias.name}"
             for path in sorted(Path(confalg.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").split(".")[0] == "confalg")
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _traced_names() -> list[tuple[str, str]]:
    """The (module, attribute path) pairs of the benchmark tracer's SPANS,
    read from its source so that nothing is imported from the benchmark."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return [(module, path) for module, path, _ in ast.literal_eval(node.value)]
    raise LookupError(f"no SPANS in {TRACER}")


def test_traced_names_resolve():
    """Every name the tracer wraps is still defined where it looks for it."""
    missing = []
    for module, path in _traced_names():
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, as a plain name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def _unrelated_private_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Each private method name that two module-level classes define where
    neither inherits it from a package class that defines it: a hook
    overridden in subclasses has one such root, the base.  References are
    counted by name, so only one family of classes may own a name."""
    classes = {node.name: (filename, node) for filename, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}

    def private_methods(node: ast.ClassDef) -> set[str]:
        return {m.name for m in node.body if isinstance(m, ast.FunctionDef)
                and m.name.startswith("_") and not m.name.startswith("__")}

    def inherits(node: ast.ClassDef, name: str) -> bool:
        bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                 for b in node.bases]
        return any(base in classes and (name in private_methods(classes[base][1])
                                        or inherits(classes[base][1], name))
                   for base in bases)

    roots: dict[str, list[str]] = {}
    for cname, (filename, node) in classes.items():
        for name in sorted(private_methods(node)):
            if not inherits(node, name):
                roots.setdefault(name, []).append(f"{filename}:{cname}")
    return [f"{name}: {', '.join(owners)}" for name, owners in sorted(roots.items())
            if len(owners) > 1]


def test_unrelated_private_methods_are_named():
    source = ("class Base:\n    def _hook(self): pass\n"
              "class Sub(Base):\n    def _hook(self): pass\n"
              "class Leaf(Sub):\n    def _hook(self): pass\n"
              "class Other:\n    def _hook(self): pass\n    def _own(self): pass\n")
    trees = {"a.py": ast.parse(source),
             "b.py": ast.parse("class Far:\n    def _own(self): pass\n")}
    assert _unrelated_private_methods(trees) == ["_hook: a.py:Base, a.py:Other",
                                                 "_own: a.py:Other, b.py:Far"]
    del trees["b.py"]
    trees["a.py"].body.pop()
    assert _unrelated_private_methods(trees) == []


def _shared_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Each private name that two module-level definitions, or a
    module-level definition and a method, share.  References are counted
    by name, so a read of one would pass for a read of the other."""
    owners: dict[str, list[str]] = {}
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    owners.setdefault(name, []).append(filename)
    methods = {m.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef) for m in node.body
               if isinstance(m, ast.FunctionDef)}
    return [f"{name}: {', '.join(files)}" for name, files in sorted(owners.items())
            if len(files) > 1 or name in methods]


def test_shared_private_names_are_named():
    trees = {"a.py": ast.parse("def _one(): pass\n_two = 1\n"
                               "class C:\n    def _one(self): pass\n"),
             "b.py": ast.parse("def _two(): pass\ndef _three(): pass\n")}
    assert _shared_private_names(trees) == ["_one: a.py", "_two: a.py, b.py"]


def test_private_names_are_referenced():
    """Every private module-level function, class or constant, every private
    method of a module-level class, and every public module-level function
    or class that ``confalg`` does not export, is read somewhere in the
    package outside its own definition, so a deletion leaves no orphan
    helper behind.  A private method name belongs to one class and its
    overrides, and a private module-level name to one definition, so a
    read of the name is a read of that definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(confalg.__file__).parent.glob("*.py"))}
    assert _unrelated_private_methods(trees) == []
    assert _shared_private_names(trees) == []
    used = sum((_references(tree) for tree in trees.values()), Counter())
    exported = set(confalg.__all__)
    orphans = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, own = [node.name], _references(node)
                checked = [name for name in names if name not in exported]
                if isinstance(node, ast.ClassDef):
                    orphans += [f"{filename}:{node.name}.{method.name}"
                                for method in node.body
                                if isinstance(method, ast.FunctionDef)
                                and method.name.startswith("_")
                                and not method.name.startswith("__")
                                and used[method.name] <= _references(method)[method.name]]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names, own = [t.id for t in targets if isinstance(t, ast.Name)], Counter()
                checked = [name for name in names if name.startswith("_")]
            else:
                continue
            orphans += [f"{filename}:{name}" for name in checked
                        if not name.startswith("__") and used[name] <= own[name]]
    assert orphans == []
