#!/usr/bin/env python3
"""Regenerate the digest table ``expected.json`` from the current sources.

    python3 perfbench/gen_expected.py

Runs every job any seed of any workload can draw and records its exit code
and the SHA-256 of its stdout.  Run it only on a commit whose output is
known good (the table was made from the commit that added the benchmark);
a table regenerated from broken code would accept broken output.  Jobs that
exit nonzero or fail an independent check (golden report, classification
pattern, solvability) are printed and leave the table unwritten.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time

import run
import workloads

WORKERS = 2


def _run_share(job_ids: list[str]) -> list[tuple[str, int | None, str, float, list[str]]]:
    main = run.import_cli().main
    golden = run.load_golden()
    out = []
    for jid in job_ids:
        job = run.run_job(main, jid.split(" "))
        # The job's own digest stands in for the table; the other checks run.
        problems = run.check_job(job, {jid: [job.code, job.digest]}, golden)
        if job.code != 0:
            problems.append(f"exit code {job.code}")
        out.append((jid, job.code, job.digest, job.wall, problems))
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    jobs = sorted({workloads.job_id(job) for name in workloads.WORKLOAD_NAMES
                   for job in workloads.pool(name)})
    shares = [jobs[i::WORKERS] for i in range(WORKERS)]
    start = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool(WORKERS) as workers:
        results = [row for share in workers.map(_run_share, shares) for row in share]
    bad = [(jid, problems) for jid, _, _, _, problems in results if problems]
    for jid, problems in bad:
        sys.stderr.write(f"{jid}: {'; '.join(problems)}\n")
    slowest = sorted(results, key=lambda row: -row[3])[:5]
    print(f"{len(results)} jobs in {time.perf_counter() - start:.0f}s; slowest: "
          + ", ".join(f"{jid} ({wall:.2f}s)" for jid, _, _, wall, _ in slowest))
    if bad:
        return 1
    table = {jid: [code, digest] for jid, code, digest, _, _ in sorted(results)}
    run.EXPECTED.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
