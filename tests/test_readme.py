"""The README's command-line examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from confalg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block_after(heading: str) -> str:
    """The first fenced block after ``heading``."""
    match = re.search(re.escape(heading) + r"\n.*?```\n(.*?)```", README, re.S)
    assert match, f"no code block after {heading!r}"
    return match.group(1)


COMMANDS = [shlex.split(line, comments=True)
            for line in _block_after("## Command line").splitlines()
            if line.startswith("confalg ")]


def test_command_block_found():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(command, capsys):
    code = main(command[1:])
    capsys.readouterr()
    assert code == 0


def test_algebra_file_example_verifies(tmp_path, capsys):
    path = tmp_path / "myalg.alg"
    path.write_text(_block_after("### Algebra files"))
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("skew symmetry: pass")
    assert "jacobi identity: pass" in out
