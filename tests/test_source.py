"""Source-level rules for the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import confalg


def test_no_assert_statements():
    """Invariants raise typed errors, so ``python -O`` cannot strip them."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(confalg.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
