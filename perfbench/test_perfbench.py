"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The smoke runs pass ``--seconds 1``, which runs one batch per pass (about
a minute in total).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT, timeout: float = 300):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


# ---- pools and draws --------------------------------------------------------------


def test_digest_table_covers_exactly_the_pools():
    table = run.load_expected()
    pooled = {workloads.job_id(argv) for name in workloads.WORKLOAD_NAMES
              for argv in workloads.pool(name)}
    assert pooled - set(table) == set()
    assert set(table) - pooled == set()
    assert all(code == 0 for code, _ in table.values())


def test_golden_reports_are_dossier_jobs():
    dossier = {workloads.job_id(argv) for argv in workloads.pool("dossier")}
    for argv in workloads.GOLDEN_REPORTS.values():
        assert workloads.job_id(argv) in dossier


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)


def test_draw_is_seeded_and_stratified():
    for name in workloads.WORKLOAD_NAMES:
        first = next(workloads.batches(name, 7))
        assert first == next(workloads.batches(name, 7))
        assert first != next(workloads.batches(name, 8))
        assert len(first) == len(workloads.strata(name))


@pytest.mark.parametrize("name", ["classify-sweep", "truncate-ladder"])
def test_no_key_repeats_within_a_run(name):
    jobs = [argv for batch in workloads.batches(name, 3) for argv in batch]
    assert len(jobs) >= 3 * len(workloads.strata(name))
    assert workloads.repeat_share(jobs) == 0


def test_dossier_never_reruns_an_argv():
    jobs = [workloads.job_id(argv) for batch in workloads.batches("dossier", 3)
            for argv in batch]
    assert len(jobs) == len(set(jobs))


def test_submodules_module_comes_before_param():
    # --param takes one or more values and would swallow a later positional.
    for argv in workloads.pool("dossier"):
        if argv[0] == "submodules":
            assert argv[2].startswith("M_")
            assert "--param" not in argv[:3]


# ---- checks -------------------------------------------------------------------


def _job(argv, stdout, code=0):
    return run.Job(argv, code, stdout, 0.0, 0.0, None)


def test_check_job_flags_digest_and_pattern_mismatches():
    argv = ["classify", "w", "--param", "a=1", "b=0", "--degree", "2"]
    good = ("L -> 0; W -> 0\n  trivial (all actions zero)\n"
            "L -> x*alpha + d + beta; W -> gamma\n  irreducible iff alpha != 0 or gamma != 0\n")
    job = _job(argv, good)
    assert run.check_job(job, {workloads.job_id(argv): [0, job.digest]}, {}) == []
    bad = _job(argv, good.replace("gamma\n", "0\n", 1))
    problems = run.check_job(bad, {workloads.job_id(argv): [0, job.digest]}, {})
    assert len(problems) == 2


def test_check_job_requires_solvable_truncations():
    argv = ["truncate", "vir", "--truncate", "4"]
    job = _job(argv, "dimension 4\nsolvable: no\nnilpotent: no\n")
    assert run.check_job(job, {workloads.job_id(argv): [0, job.digest]}, {}) == [
        "truncation not reported solvable"]


def test_golden_mismatch_is_a_failure():
    golden = run.load_golden()
    argv = workloads.GOLDEN_REPORTS["vir"]
    job = _job(argv, "algebra vir\n")
    assert "differs from its golden report" in run.check_job(job, {}, golden)


# ---- tracer -------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    cli = run.import_cli()
    import confalg.modules
    import confalg.poly
    import confalg.report
    originals = (confalg.modules.solve_system, cli.rank1_classify,
                 confalg.report.rank1_classify, confalg.poly.Poly.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert confalg.modules.solve_system is not originals[0]
        assert cli.rank1_classify is confalg.report.rank1_classify is not originals[1]
        assert confalg.poly.Poly.__rmul__ is confalg.poly.Poly.__mul__
        assert confalg.poly.Poly.__rmul__ is not originals[3]
    finally:
        tracer.uninstall()
    assert (confalg.modules.solve_system, cli.rank1_classify,
            confalg.report.rank1_classify, confalg.poly.Poly.__rmul__) == originals


# ---- whole runs ---------------------------------------------------------------


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "provenance" in json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_timing_run_emits_every_end_to_end_metric(name):
    result = _result(_bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_traced_run_emits_every_layer_metric(name):
    result = _result(_bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # The workload split, by exact counts.
    if name == "truncate-ladder":
        assert values["solve.solve_system.calls"] == 0
        assert values["annihilation.FiniteLie.derived_series.calls_per_truncate_job"] == 2
    if name == "classify-sweep":
        assert all(v == 0 for k, v in values.items()
                   if k.startswith("annihilation.FiniteLie.") and k.endswith(".calls"))
        assert values["solve.solve_system.calls_per_classify"] == 20
    if name == "dossier":
        assert values["modules.submodule_scan.calls_per_submodules_job"] == 2
        if values["base.bound_tex_reports"]:
            assert values["modules.rank1_classify.calls_per_tex_report"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "dossier", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
