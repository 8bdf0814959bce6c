"""Replay the CLI digest table in ``golden/cli_digests.json``.

Each key is an argv joined by spaces; each value is the exit code and the
SHA-256 of stdout.  The table pins the outputs that no golden report
covers: axiom failures of the ``.alg`` fixtures in this directory, with and
without a grid, classify in JSON and TeX over one point, a grid and a
one-point grid, the TeX of truncate, submodules and ann, and error exits,
whose stdout must be empty.  A word ending in ``.alg`` names a fixture in
``golden/``.

Rebuild the table only from a commit whose output is known good::

    PYTHONPATH=src python tests/test_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from confalg.cli import main

GOLDEN = Path(__file__).parent / "golden"
TABLE = GOLDEN / "cli_digests.json"
FORMATS = ("text", "json", "tex")


def _all_formats(*argvs: str) -> list[str]:
    return [f"{argv} --format {fmt}" for argv in argvs for fmt in FORMATS]


JOBS = [
    # axiom failures, formal, bound and over grids
    *_all_formats(
        "verify broken.alg",
        "verify broken.alg --param-grid a=0..1",
        "verify wbad.alg",
        "verify wbad.alg --param a=2 b=1",
        "verify wbad.alg --param-grid a=1 b=0,1",
        "verify wbad.alg --param a=1 --param-grid b=0,1/2",
        "verify wbad.alg --param-grid b=1 --param a=1",
        "verify wl.alg",
    ),
    # classification over one point, a grid and a one-point grid
    *_all_formats(
        "classify vir --degree 1",
        "classify w --param a=1 b=0 --degree 2",
        "classify w --param-grid a=1,2 b=0,1 --degree 1",
        "classify w --param-grid a=1 --param b=0 --degree 2",
        "classify wb --param-grid b=0,1/2 --degree 1",
        "classify tsvc --param c=1 --degree 2",
        "classify tsv --param-grid a=0..1 --param b=0 --degree 1",
        "classify wbad.alg --param a=1 b=1 --degree 2",
        "classify two.alg --degree 1",
    ),
    *_all_formats(
        "truncate vir --truncate 3",
        "truncate w --param a=2 b=1 --truncate 2",
        "truncate tsvc --param c=1 --truncate 3",
        "truncate heis.alg --truncate 2",
        "submodules vir M_0_2",
        "submodules w --param a=1 b=0 M_0_0_1",
        "submodules tsv --param a=0 b=1 M_1_2 --degree 2",
        "submodules wbad.alg --param a=1 b=1 M_0_2",
        "ann vir --degree 1",
        "ann w --degree 1",
        "ann tsvc --param c=1 --degree 2",
        "ann heis.alg --degree 1",
    ),
    # check failures before any output
    *_all_formats(
        "submodules wl.alg M_0_2",
        "classify wl.alg --degree 1",
    ),
    # bad input
    *_all_formats(
        "verify malformed.alg",
        "verify missing.alg",
        "classify w --param a=nope b=0",
        "report broken.alg",
    ),
    "report two.alg",
    "verify nothere",
    "verify w --param a=0",
    "verify w --param a=0 a=1 b=0",
    "verify w --param-grid q=0..1",
    "verify w --param a=0 b=0 --param-grid a=0..1",
    "truncate vir",
    "truncate vir --truncate 0",
    "classify vir --degree 0",
    "submodules w M_0_0_1 --param a=2 b=0",
    "submodules tsv --param a=0 b=1",
    # requests outside the solver
    *_all_formats(
        "classify heis.alg",
        "submodules broken.alg M_0_2",
    ),
]


def _argv(job: str) -> list[str]:
    return [str(GOLDEN / word) if word.endswith(".alg") else word for word in job.split()]


def _run(job: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(job))
    return code, out.getvalue()


def _entry(job: str) -> list:
    code, out = _run(job)
    return [code, hashlib.sha256(out.encode()).hexdigest()]


@pytest.fixture(scope="module")
def table() -> dict[str, list]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_the_jobs(table):
    assert sorted(table) == sorted(JOBS)


@pytest.mark.parametrize("job", JOBS)
def test_job_matches_digest(table, job):
    assert _entry(job) == table[job]


if __name__ == "__main__":
    TABLE.write_text(json.dumps({job: _entry(job) for job in JOBS}, indent=1) + "\n",
                     encoding="utf-8")
