"""Job pools of the benchmark workloads and the seeded, stratified draw.

Every workload is a list of strata.  A stratum is a finite list of CLI jobs
(argv lists for ``confalg.cli.main``) of similar cost.  A run draws batches:
each batch takes one unused job from every stratum, so every seed gets the
same mix and only the concrete inputs change.  A job's *key* is its argv
without ``--format``; it names the computation a cache could reuse.

* classify-sweep and truncate-ladder never reuse a key within a run
  (repeat share 0), so a cross-call cache cannot pass as a kernel gain.
* dossier never reruns the same argv, but may render one computation in
  several formats, as a user exploring an algebra does; the share of such
  jobs is reported as the repeat share.

The draw stops when a stratum has no unused job left.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOAD_NAMES = ("classify-sweep", "truncate-ladder", "dossier")

FORMATS = ("text", "json", "tex")

# Parameter values: the acceptance grids first, then off-grid rationals.
_A_VALUES = ("0", "1/2", "1", "3/2", "2", "-1", "1/3", "5/2")
_B_VALUES = ("0", "1", "-1")
_LINE_VALUES = ("0", "1/2", "1", "3/2", "2", "-1", "1/3", "-1/2", "3", "5/2",
                "3/4", "-2", "2/3", "4", "-3/2", "1/4", "5", "-3", "7/2", "-1/3")

# The five report jobs whose stdout must equal tests/golden/report_<preset>.txt.
GOLDEN_REPORTS = {
    "vir": ["report", "vir"],
    "w": ["report", "w", "--param", "a=2", "b=1"],
    "wb": ["report", "wb", "--param", "b=1/2"],
    "tsv": ["report", "tsv", "--param", "a=0", "b=0"],
    "tsvc": ["report", "tsvc", "--param", "c=1"],
}


def _points(preset: str, limit: int | None = None) -> list[list[str]]:
    """Bindings (as --param arguments) for a preset, grid points first."""
    if preset == "vir":
        points = [[]]
    elif preset in ("w", "tsv"):
        points = [[f"a={a}", f"b={b}"] for b in _B_VALUES for a in _A_VALUES]
    else:
        name = "b" if preset == "wb" else "c"
        points = [[f"{name}={v}"] for v in _LINE_VALUES]
    return points[:limit]


def _with_params(argv: list[str], point: list[str]) -> list[str]:
    return argv + (["--param", *point] if point else [])


def _formatted(argv: list[str], formats=FORMATS) -> list[list[str]]:
    return [argv if fmt == "text" else argv + ["--format", fmt] for fmt in formats]


# Degrees drawn per batch.  Two degree-2 jobs per algebra and no degree-4
# tsvc job keep a batch near 11 s at seed, so a run holds three batches and
# the job-time quantiles fall inside clusters of similar jobs.
_CLASSIFY_DEGREES = {"w": (2, 2, 3, 4), "wb": (2, 2, 3, 4), "tsv": (2, 2, 3, 4),
                     "tsvc": (2, 2, 3)}


def _classify_strata():
    strata = []
    for preset, degrees in _CLASSIFY_DEGREES.items():
        for degree in sorted(set(degrees)):
            copies = degrees.count(degree)
            jobs = [_with_params(["classify", preset], point) + ["--degree", str(degree)]
                    for point in _points(preset)]
            for copy in range(copies):
                strata.append((f"{preset}/degree{degree}#{copy}", jobs))
    return strata


# Truncation depths per batch.  At seed the rungs form cost clusters: six
# jobs under 0.2 s, four near 0.6 s, five near 1.2 s and tsv depth 12 near
# 2.8 s, so the median and 75th-percentile jobs sit inside a cluster rather
# than between two rungs.
_LADDER = {
    "w": (4, 8, 11, 14),
    "wb": (5, 11, 13),
    "tsv": (4, 8, 9, 10, 12),
    "tsvc": (5, 8, 9),
}


def _truncate_strata():
    vir = [argv for depth in range(4, 21)
           for argv in _formatted(["truncate", "vir", "--truncate", str(depth)],
                                  ("text", "json"))]
    strata = [("vir/depth4-20", vir)]
    for preset, depths in _LADDER.items():
        limit = 16 if preset in ("w", "tsv") else 12
        for depth in depths:
            jobs = [argv for point in _points(preset, limit)
                    for argv in _formatted(
                        _with_params(["truncate", preset], point)
                        + ["--truncate", str(depth)], ("text", "json"))]
            strata.append((f"{preset}/depth{depth}", jobs))
    return strata


_VERIFY_GRIDS = {
    "w": (["a=0..2", "b=0,1"], ["a=-1,1/3,5/2", "b=-1..1"], ["a=1/2,3/2", "b=0"],
          ["a=-2..3", "b=1/2"]),
    "tsv": (["a=0..2", "b=0,1"], ["a=1/2,3/2", "b=-1..1"], ["a=1/3", "b=-2..2"],
            ["a=-1..1", "b=1/4,3"]),
    "wb": (["b=0..3"], ["b=-1,1/3,5/2"], ["b=-3..-1"], ["b=1/2,3/2,7/2,4"]),
    "tsvc": (["c=0..3"], ["c=-1,1/2,5/2"], ["c=-3..-1"], ["c=1/3,2/3,3/4,5"]),
}

# Bound algebras whose rank-one modules are scanned, and the ones with a
# constant carrier (where M_alpha_beta_gamma exists).
_SCAN_POINTS = {
    "vir": [[]],
    "w": [["a=1", "b=0"], ["a=2", "b=1"], ["a=1/3", "b=-1"]],
    "wb": [["b=0"], ["b=1/2"], ["b=-1"]],
    "tsv": [["a=1", "b=0"], ["a=0", "b=1"], ["a=5/2", "b=-1"]],
    "tsvc": [["c=1"], ["c=-1"], ["c=1/2"]],
}
_CARRIER_POINTS = {"w": [["a=1", "b=0"]], "wb": [["b=0"]], "tsv": [["a=1", "b=0"]]}
_BETAS = ("2", "-1", "1/2", "3")
_GAMMAS = ("1", "-3", "1/2")


def _submodule_jobs(modules: list[str], points: dict) -> list[list[str]]:
    jobs = []
    for preset, preset_points in points.items():
        for point in preset_points:
            for module in modules:
                for degree in (3, 4, 5):
                    base = _with_params(["submodules", preset, module], point)
                    jobs += _formatted(base + ["--degree", str(degree)])
    return jobs


def _dossier_strata():
    """Thirteen submodules strata out of twenty-two put the median job well
    inside the cluster of scans, and six light-report strata hold the 75th
    percentile."""
    limits = {"w": None, "wb": None, "tsv": 16, "tsvc": 12}
    reports = {preset: [argv for point in _points(preset, limit)
                        for argv in _formatted(_with_params(["report", preset], point))]
               for preset, limit in limits.items()}
    verify, formal, heavy_ann = [], [], []
    for preset in ("vir", "w", "wb", "tsv", "tsvc"):
        formal += _formatted(["report", preset])
        verify += _formatted(["verify", preset])
        for grid in _VERIFY_GRIDS.get(preset, ()):
            verify += _formatted(["verify", preset, "--param-grid", *grid])
        ann = [argv for degree in range(6, 11)
               for argv in _formatted(["ann", preset, "--degree", str(degree)])]
        (heavy_ann if preset in ("tsv", "tsvc") else formal).extend(ann)
    scans = {
        "M_0_b": _submodule_jobs([f"M_0_{b}" for b in _BETAS], _SCAN_POINTS),
        "M_1_b": _submodule_jobs([f"M_1_{b}" for b in _BETAS], _SCAN_POINTS),
        "M_0_b_g": _submodule_jobs([f"M_0_{b}_{g}" for b in _BETAS for g in _GAMMAS],
                                   _CARRIER_POINTS),
    }
    light = reports["w"] + reports["wb"]
    return [
        *((f"submodules/{name}#{copy}", scans[name])
          for name, copies in (("M_0_b", 5), ("M_1_b", 4), ("M_0_b_g", 4))
          for copy in range(copies)),
        ("verify/formal-and-grid", verify),
        ("report-ann/formal-light", formal),
        *((f"report/bound-w-wb#{copy}", light) for copy in range(6)),
        ("report-ann/heavy", reports["tsv"] + reports["tsvc"] + heavy_ann),
    ]


_STRATA = {
    "classify-sweep": _classify_strata,
    "truncate-ladder": _truncate_strata,
    "dossier": _dossier_strata,
}

# Whether a run may render one computation (one key) in several formats.
_FORMAT_REPEATS = {"classify-sweep": False, "truncate-ladder": False, "dossier": True}


def strata(workload: str) -> list[tuple[str, list[list[str]]]]:
    """The workload's strata as (name, jobs) pairs, in a fixed order."""
    return _STRATA[workload]()


def pool(workload: str) -> list[list[str]]:
    """Every job a run of the workload can draw, without duplicates."""
    seen, out = set(), []
    for _, jobs in strata(workload):
        for argv in jobs:
            if job_id(argv) not in seen:
                seen.add(job_id(argv))
                out.append(argv)
    return out


def job_id(argv: list[str]) -> str:
    return " ".join(argv)


def job_key(argv: list[str]) -> str:
    """The job without its output format: the computation it asks for."""
    out, skip = [], False
    for token in argv:
        if skip:
            skip = False
        elif token == "--format":
            skip = True
        else:
            out.append(token)
    return " ".join(out)


def batches(workload: str, seed: int):
    """Yield batches (lists of argv) for a seed until a stratum runs dry."""
    rng = random.Random(f"{workload}/{seed}")
    queues = []
    for _, jobs in strata(workload):
        order = list(jobs)
        rng.shuffle(order)
        queues.append(order)
    format_repeats = _FORMAT_REPEATS[workload]
    used: set[str] = set()
    while True:
        batch = []
        for queue in queues:
            while queue:
                argv = queue.pop()
                mark = job_id(argv) if format_repeats else job_key(argv)
                if mark not in used:
                    used.add(mark)
                    batch.append(argv)
                    break
            else:
                return
        rng.shuffle(batch)
        yield batch


def repeat_share(jobs: list[list[str]]) -> float:
    """Share of jobs whose key already ran earlier in the same list."""
    seen, repeats = set(), 0
    for argv in jobs:
        key = job_key(argv)
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs) if jobs else 0.0


# ---- independent output checks ------------------------------------------------


def _param_value(argv: list[str], name: str) -> Fraction | None:
    for token in argv:
        if token.startswith(name + "="):
            return Fraction(token.split("=", 1)[1])
    return None


def expected_classify_families(argv: list[str]) -> list[str]:
    """Family lines of a text classify job, by the pattern of acceptance
    criterion 4: the standard Virasoro family, with a constant carrier gamma
    exactly for w and tsv at (a, b) = (1, 0) and for wb at b = 0."""
    preset = argv[1]
    if preset in ("w", "tsv"):
        carrier = _param_value(argv, "a") == 1 and _param_value(argv, "b") == 0
    else:
        carrier = preset == "wb" and _param_value(argv, "b") == 0
    value = "gamma" if carrier else "0"
    if preset in ("w", "wb"):
        return ["L -> 0; W -> 0", f"L -> x*alpha + d + beta; W -> {value}"]
    return ["L -> 0; Y -> 0; M -> 0", f"L -> x*alpha + d + beta; Y -> {value}; M -> 0"]


def has_constant_action(argv: list[str]) -> bool:
    """Whether a submodules job names a module with a nonzero constant
    action, whose verdict needs no scan."""
    parts = argv[2].split("_")
    return len(parts) == 4 and Fraction(parts[3]) != 0
