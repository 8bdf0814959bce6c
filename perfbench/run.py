#!/usr/bin/env python3
"""confalg benchmark: run one workload of CLI jobs and print its metrics.

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 36 --trace 0

Jobs run one at a time, in this process, through ``confalg.cli.main(argv)``.
Every job's exit code and stdout are checked (see ``check_job``).  With
``--trace 0`` the run times the jobs and prints the end-to-end metrics; with
``--trace 1`` it runs the jobs plainly, then again with every layer wrapped
(``tracer.py``), and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.  The
line before it records the seed, the jobs run and where the numbers came
from.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from calibrate import REFERENCE_S, speed_sample
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 15
TRACE_SHARE = 0.5  # share of --seconds the trace run spends on its untraced pass


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


# ---- running and checking one job ---------------------------------------------


class Job:
    """One CLI call.  ``wall`` and ``cpu`` are raw seconds; ``scale`` turns
    them into seconds at the reference speed (see calibrate.py)."""

    __slots__ = ("argv", "code", "stdout", "wall", "cpu", "error", "problems", "scale")

    def __init__(self, argv, code, stdout, wall, cpu, error):
        self.argv, self.code, self.stdout = argv, code, stdout
        self.wall, self.cpu, self.error = wall, cpu, error
        self.problems: list[str] = []
        self.scale = 1.0

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale

    @property
    def norm_cpu(self) -> float:
        return self.cpu * self.scale

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def run_job(main, argv: list[str]) -> Job:
    out, err = io.StringIO(), io.StringIO()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # job boundary: any exception is a failed job
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return Job(argv, code, out.getvalue(), wall, cpu, error)


def load_expected() -> dict[str, list]:
    if not EXPECTED.is_file():
        raise SetupError(f"missing digest table {EXPECTED.name}")
    return json.loads(EXPECTED.read_text())


def load_golden() -> dict[str, bytes]:
    out = {}
    for preset, argv in workloads.GOLDEN_REPORTS.items():
        path = GOLDEN / f"report_{preset}.txt"
        if not path.is_file():
            raise SetupError(f"missing golden file tests/golden/{path.name}")
        out[workloads.job_id(argv)] = path.read_bytes()
    return out


def check_job(job: Job, expected: dict, golden: dict) -> list[str]:
    """Problems with a job's outcome; an empty list means it passed."""
    argv, jid = job.argv, workloads.job_id(job.argv)
    if job.error is not None:
        return [f"raised {job.error}"]
    problems = []
    entry = expected.get(jid)
    if entry is None:
        problems.append("no entry in the digest table")
    elif [job.code, job.digest] != entry:
        problems.append(f"exit {job.code} digest {job.digest[:12]} != expected "
                        f"exit {entry[0]} digest {entry[1][:12]}")
    if jid in golden and job.stdout.encode() != golden[jid]:
        problems.append("differs from its golden report")
    text = "--format" not in argv
    if argv[0] == "classify" and text:
        families = [line for line in job.stdout.splitlines() if not line.startswith(" ")]
        if families != workloads.expected_classify_families(argv):
            problems.append(f"families {families} break the classification pattern")
    if argv[0] == "truncate":
        if text:
            solvable = any(line.startswith("solvable: yes")
                           for line in job.stdout.splitlines())
        else:
            try:
                solvable = json.loads(job.stdout).get("solvable") is True
            except ValueError:
                solvable = False
        if not solvable:
            problems.append("truncation not reported solvable")
    return problems


# ---- set-up and provenance ----------------------------------------------------


def import_cli():
    if not (SRC / "confalg" / "cli.py").is_file():
        raise SetupError("no confalg sources under src/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import confalg.cli
    return confalg.cli


def setup_times(probes: int) -> list[tuple[float, float]]:
    """Cold set-up in fresh interpreters: import confalg and its CLI and build
    the five presets.  Returns (raw seconds, speed sample) per probe.  One
    discarded warm-up probe compiles the bytecode."""
    samples = []
    for i in range(probes + 1):
        done = subprocess.run([sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        if i:
            seconds, speed = done.stdout.split()[-2:]
            samples.append((float(seconds), float(speed)))
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "confalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, run: str, jobs: list[Job], **extra) -> dict:
    return {
        "run": run,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": [workloads.job_id(job.argv) for job in jobs],
        "job_wall_s": [round(job.wall, 6) for job in jobs],
        "job_scale": [round(job.scale, 4) for job in jobs],
        "repeat_share": workloads.repeat_share([job.argv for job in jobs]),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        **extra,
    }


# ---- the job loop -------------------------------------------------------------


class SpeedScale:
    """Sets each job's ``scale`` from speed samples taken just before and just
    after it (see calibrate.py)."""

    def __init__(self):
        self.last = speed_sample()

    def measure(self, job: Job) -> None:
        now = speed_sample()
        job.scale = REFERENCE_S / ((self.last + now) / 2)
        self.last = now


def run_batches(main, batches, seconds: float, expected, golden):
    """Run whole batches while another one is expected to end within
    ``seconds`` (always at least one), and return the jobs of each.

    Garbage is collected between jobs, outside the timed region, because
    each real CLI call starts from a fresh process.
    """
    done: list[list[Job]] = []
    took: list[float] = []
    start = time.perf_counter()
    for batch in batches:
        elapsed = time.perf_counter() - start
        if took and elapsed + statistics.median(took) > seconds:
            break
        begun = time.perf_counter()
        jobs = []
        speed = SpeedScale()
        for argv in batch:
            job = run_job(main, argv)
            job.problems = check_job(job, expected, golden)
            jobs.append(job)
            gc.collect()
            speed.measure(job)
        done.append(jobs)
        took.append(time.perf_counter() - begun)
    return done


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _batch_median(batches: list[list[Job]], field: str) -> float:
    return statistics.median(sum(getattr(job, field) for job in batch) for batch in batches)


def timing_run(args, expected, golden) -> tuple[dict, dict, list[Job]]:
    setup = setup_times(SETUP_PROBES)
    cli = import_cli()
    batches = run_batches(cli.main, workloads.batches(args.workload, args.seed),
                          args.seconds, expected, golden)
    jobs = [job for batch in batches for job in batch]
    walls = [job.norm_wall for job in jobs]
    p75 = _p75(walls)
    metrics = {
        "batch_s": (_batch_median(batches, "norm_wall"), "s"),
        "cpu_s": (_batch_median(batches, "norm_cpu"), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.p75": (p75, "s"),
        "setup_s": (statistics.median(raw * REFERENCE_S / speed for raw, speed in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "batches": len(batches), "batch_size": len(batches[0]),
        "jobs_beyond_p75": sum(w > p75 for w in walls),
        "raw": {"batch_s": _batch_median(batches, "wall"),
                "cpu_s": _batch_median(batches, "cpu"),
                "job_s.p50": statistics.median(job.wall for job in jobs),
                "setup_s": statistics.median(raw for raw, _ in setup)},
        "speed_scale": {"min": min(job.scale for job in jobs),
                        "median": statistics.median(job.scale for job in jobs),
                        "max": max(job.scale for job in jobs)},
    }
    return metrics, extra, jobs


# ---- the traced run -----------------------------------------------------------

# Span metrics: (metric name, unit, span, field).
SPAN_METRICS = [
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("presets.instantiate.s", "s", "presets.instantiate", "incl_s"),
    ("presets.named_module.s", "s", "presets.named_module", "incl_s"),
]
for _layer in ("mul", "add", "subs", "coeff_of", "group_coefficients", "monic_div_rem"):
    SPAN_METRICS += [(f"poly.{_layer}.calls", "count", f"poly.{_layer}", "calls"),
                     (f"poly.{_layer}.self_s", "s", f"poly.{_layer}", "self_s")]
SPAN_METRICS += [
    ("solve.solve_system.calls", "count", "solve.solve_system", "calls"),
    ("solve.solve_system.s", "s", "solve.solve_system", "incl_s"),
    ("solve.solve_system.self_s", "s", "solve.solve_system", "self_s"),
    ("solve.rational_roots.calls", "count", "solve.rational_roots", "calls"),
    ("algebra.check_skew.calls", "count", "algebra.check_skew", "calls"),
    ("algebra.check_skew.s", "s", "algebra.check_skew", "incl_s"),
    ("algebra.check_jacobi.calls", "count", "algebra.check_jacobi", "calls"),
    ("algebra.check_jacobi.s", "s", "algebra.check_jacobi", "incl_s"),
    ("algebra.specialize.s", "s", "algebra.specialize", "incl_s"),
    ("annihilation.ann_bracket.calls", "count", "annihilation.ann_bracket", "calls"),
    ("annihilation.ann_bracket.self_s", "s", "annihilation.ann_bracket", "self_s"),
    ("annihilation.compare_closed_form.s", "s", "annihilation.compare_closed_form", "incl_s"),
    ("annihilation.truncated_quotient.self_s", "s", "annihilation.truncated_quotient",
     "self_s"),
]
for _method in ("check_jacobi", "derived_series", "lower_central_series"):
    _span = f"annihilation.FiniteLie.{_method}"
    SPAN_METRICS += [(f"{_span}.calls", "count", _span, "calls"),
                     (f"{_span}.s", "s", _span, "incl_s")]
SPAN_METRICS += [
    ("annihilation.FiniteLie.bracket_vectors.calls", "count",
     "annihilation.FiniteLie.bracket_vectors", "calls"),
    ("modules.rank1_classify.calls", "count", "modules.rank1_classify", "calls"),
    ("modules.rank1_classify.s", "s", "modules.rank1_classify", "incl_s"),
    ("modules.rank1_classify.self_s", "s", "modules.rank1_classify", "self_s"),
    ("modules.check_module.calls", "count", "modules.check_module", "calls"),
    ("modules.check_module.s", "s", "modules.check_module", "incl_s"),
    ("modules.submodule_scan.calls", "count", "modules.submodule_scan", "calls"),
    ("modules.submodule_scan.s", "s", "modules.submodule_scan", "incl_s"),
    ("modules.irreducibility_verdict.calls", "count", "modules.irreducibility_verdict",
     "calls"),
    ("modules.induced_action.calls", "count", "modules.induced_action", "calls"),
    ("report.build_report.self_s", "s", "report.build_report", "self_s"),
    ("report.attach_tex.s", "s", "report.attach_tex", "incl_s"),
    ("report.render_text.s", "s", "report.render_text", "incl_s"),
    ("report.render_json.s", "s", "report.render_json", "incl_s"),
    ("report.render_tex.s", "s", "report.render_tex", "incl_s"),
]

# Waste ratios: (metric, base metric, numerator span, denominator span or None
# for "per job", predicate selecting the jobs both are counted over).
RATIOS = [
    ("solve.solve_system.calls_per_classify", "base.classify_jobs",
     "solve.solve_system", "modules.rank1_classify", lambda argv: argv[0] == "classify"),
    ("modules.submodule_scan.calls_per_submodules_job", "base.scanning_submodules_jobs",
     "modules.submodule_scan", None,
     lambda argv: argv[0] == "submodules" and not workloads.has_constant_action(argv)),
    ("modules.rank1_classify.calls_per_tex_report", "base.bound_tex_reports",
     "modules.rank1_classify", None,
     lambda argv: (argv[0] == "report" and argv[-2:] == ["--format", "tex"]
                   and (argv[1] == "vir" or "--param" in argv))),
    ("annihilation.FiniteLie.derived_series.calls_per_truncate_job", "base.truncate_jobs",
     "annihilation.FiniteLie.derived_series", None, lambda argv: argv[0] == "truncate"),
]

# Self times below cli.main must add up to each job's wall time within this.
SELF_SUM_TOLERANCE = (0.002, 0.03)  # absolute seconds, share of the job's wall time


def trace_run(args, expected, golden) -> tuple[dict, dict, list[Job]]:
    cli = import_cli()
    plain_batches = run_batches(cli.main, workloads.batches(args.workload, args.seed),
                                args.seconds * TRACE_SHARE, expected, golden)
    tracer = Tracer()
    tracer.install()
    integrity = [f"unwrapped binding {name}" for name in tracer.unwrapped_bindings()]
    numerators = {num for _, _, num, _, _ in RATIOS} | {den for _, _, _, den, _ in RATIOS if den}
    sums = {name: [0, 0] for name, *_ in RATIOS}  # [numerator, denominator]
    registry_max = 0
    traced: list[Job] = []
    speed = SpeedScale()
    try:
        for plain in (job for batch in plain_batches for job in batch):
            before = {name: tracer.stats[name].calls for name in numerators}
            self_before = tracer.total_self()
            tracer.registries.clear()
            job = run_job(cli.main, plain.argv)
            self_sum = tracer.total_self() - self_before
            registry_max = max([registry_max] + [len(reg) for reg in tracer.registries])
            job.problems = check_job(job, expected, golden)
            if (job.code, job.digest) != (plain.code, plain.digest):
                job.problems.append("traced output differs from the untraced output")
            low, share = SELF_SUM_TOLERANCE
            if abs(self_sum - job.wall) > low + share * job.wall:
                job.problems.append(f"layer self times add to {self_sum:.4f}s, "
                                    f"job wall time {job.wall:.4f}s")
            for name, _, num, den, selects in RATIOS:
                if selects(job.argv):
                    sums[name][0] += tracer.stats[num].calls - before[num]
                    sums[name][1] += tracer.stats[den].calls - before[den] if den else 1
            traced.append(job)
            gc.collect()
            speed.measure(job)
    finally:
        patched = tracer.patched_count()
        tracer.uninstall()
    stats = tracer.stats
    metrics = {name: (getattr(stats[span], field), unit)
               for name, unit, span, field in SPAN_METRICS}
    metrics["poly.registry_vars.max"] = (registry_max, "count")
    metrics.update({name: (value, "count") for name, value in tracer.counters.items()})
    for name, base, _, den, selects in RATIOS:
        num_total, den_total = sums[name]
        jobs_counted = sum(1 for job in traced if selects(job.argv))
        metrics[name] = (num_total / den_total if den_total else 0.0, "ratio")
        metrics[base] = (jobs_counted, "count")
    in_order = iter(traced)
    traced_batches = [[next(in_order) for _ in batch] for batch in plain_batches]
    plain_s = _batch_median(plain_batches, "norm_wall")
    traced_s = _batch_median(traced_batches, "norm_wall")
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    extra = {"batches": len(plain_batches), "untraced_batch_s": plain_s,
             "traced_batch_s": traced_s, "patched_bindings": patched, "integrity": integrity}
    if integrity:
        traced[0].problems += integrity
    return metrics, extra, traced


# ---- entry point --------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        expected, golden = load_expected(), load_golden()
        measure = trace_run if args.trace else timing_run
        metrics, extra, jobs = measure(args, expected, golden)
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    failed = [job for job in jobs if job.problems]
    for job in failed[:20]:
        sys.stderr.write(f"FAILED {workloads.job_id(job.argv)}: {'; '.join(job.problems)}\n")
    info = provenance(args, "trace" if args.trace else "timing", jobs,
                      failed_frac=len(failed) / len(jobs), **extra)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
