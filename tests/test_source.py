"""Source-level rules for the package itself."""

from __future__ import annotations

import ast
import importlib
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
