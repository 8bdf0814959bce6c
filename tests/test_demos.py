"""Every walkthrough in demos/ runs cleanly against the package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import confalg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(confalg.__file__).resolve().parent.parent)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, cwd=path.parent, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
